"""Duplicate removal within a block (Algorithm 5, Section VI-B).

Rows of the intermediate table often repeat the same data vertex in the
same column (Figure 9: every row starts with ``v0``), so all their warps
would extract the same ``N(v, l)``.  Within one block, warps write their
vertex to shared memory, find the *first* warp holding the same vertex,
and share that warp's staged input buffer instead of re-reading global
memory.  The join finds the same hits for a whole table at once
(``repro.core.kernels._shared_hit_mask``); :func:`sharing_assignment`
is the per-block reference its tests compare against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.gpusim.constants import WARPS_PER_BLOCK


def sharing_assignment(block_vertices: Sequence[int]) -> List[int]:
    """Algorithm 5 lines 1-5: ``addr[i]`` = first occurrence of ``v_i``.

    ``block_vertices[i]`` is the vertex warp ``i`` of the block needs;
    the returned ``addr[i]`` points at the warp whose staged buffer warp
    ``i`` reads (itself, when it is the first occurrence).
    """
    first_of: Dict[int, int] = {}
    addr: List[int] = []
    for i, v in enumerate(block_vertices):
        if v not in first_of:
            first_of[v] = i
        addr.append(first_of[v])
    return addr


def distinct_loads(block_vertices: Sequence[int]) -> int:
    """How many global-memory list loads the block issues after sharing
    (= number of distinct vertices in the block)."""
    return len(set(block_vertices))


def removable_fraction(column_vertices: Sequence[int],
                       block_size: int = WARPS_PER_BLOCK) -> float:
    """Fraction of neighbor-list loads a column's duplicates save.

    The paper notes DR's bottleneck is its region size — one block —
    since each warp handles one row; this estimates the attainable
    saving for a given intermediate-table column.
    """
    n = len(column_vertices)
    if n == 0:
        return 0.0
    loads = 0
    for start in range(0, n, block_size):
        loads += distinct_loads(column_vertices[start:start + block_size])
    return 1.0 - loads / n
