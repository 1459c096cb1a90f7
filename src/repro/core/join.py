"""The parallel vertex-oriented join (Algorithms 3 and 4, Section V).

Each iteration joins the intermediate table ``M`` (all partial matches of
the joined subquery ``Q'``) with the candidate set ``C(u)`` of the next
query vertex.  Per row, one simulated warp:

1. (Prealloc-Combine, Alg. 4) bounds its output by ``|N(v', l0)|`` for the
   rarest-labeled linking edge, contributing to the combined GBA buffer;
2. computes ``buf_i = (N(v', l0) \\ m_i) ∩ C(u)`` and intersects with the
   remaining linking edges' neighbor lists;
3. links surviving vertices to ``m_i``, producing rows of ``M'``.

Without Prealloc-Combine the *two-step output scheme* is simulated
instead: the whole per-edge join work runs twice (count pass + write
pass), exactly the doubling GSI eliminates.

On the host, ``M`` is one ``(n, w)`` int64 array at every step, and each
step writes ``M'`` once from the prefix sum of its buffer lengths.  Every
step runs the one edge pass and cost model of :mod:`repro.core.kernels`;
the two host lanes (``GSIConfig.join_kernel``) differ only in the
function that computes the per-row buffers: ``rows`` runs one set
operation per row, ``vector`` one pass per edge over the whole table.

Duplicate removal (Alg. 5) and the 4-layer load balance (Section VI) hook
in here as well: the former shares staged neighbor lists between warps of
one block, the latter reshapes kernel task lists before scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.arraytypes import Array
from repro.core.config import GSIConfig
from repro.core.kernels import (
    _distinct_neighbors,
    _edge_pass,
    _link,
    _prealloc,
    _two_step,
)
from repro.core.plan import JoinPlan, JoinStep, select_first_edge
from repro.core.set_ops import CandidateSet
from repro.errors import BudgetExceeded
from repro.gpusim.constants import CYCLES_PER_GLD, LABEL_JOIN
from repro.gpusim.device import Device
from repro.gpusim.transactions import contiguous_read
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.trace import get_tracer
from repro.storage.base import NeighborStore


@dataclass
class JoinContext:
    """Everything one join step needs; created once per query."""

    graph: LabeledGraph
    store: NeighborStore
    device: Device
    config: GSIConfig


def execute_join_step(ctx: JoinContext, rows: Array,
                      columns: List[int], step: JoinStep,
                      cand: CandidateSet) -> Array:
    """One iteration of Algorithm 2's loop (i.e. one Alg. 3 invocation).

    ``rows`` is the ``(n, w)`` intermediate table and ``columns[j]``
    names the query vertex of its column ``j``; the new vertex's matches
    are appended as the last column of the returned ``(n', w + 1)``
    table.  The lane (``GSIConfig.join_kernel``) picks only the buffer
    function of :func:`~repro.core.kernels._edge_pass`; the neighbor
    fetch, the costs, prealloc, link and the two-step write are shared
    by both lanes.
    """
    if rows.shape[0] == 0 or len(cand) == 0:
        return np.empty((0, rows.shape[1] + 1), dtype=np.int64)
    if ctx.config.max_intermediate_rows is not None and \
            rows.shape[0] > ctx.config.max_intermediate_rows:
        raise BudgetExceeded(
            "intermediate table exceeded "
            f"{ctx.config.max_intermediate_rows} rows")

    col_of = {qv: j for j, qv in enumerate(columns)}
    step_name = f"join_u{step.vertex}"

    # Order linking edges so the rarest-label edge comes first (Alg. 4
    # line 1); this is also the edge whose neighbor lists bound the GBA.
    # Each edge's lists are fetched once and serve the prealloc and
    # both passes of the two-step scheme (fetches charge nothing).
    first = select_first_edge(step, ctx.graph)
    order = [first] + [e for e in step.linking_edges if e != first]
    edges = [_distinct_neighbors(ctx, rows[:, col_of[u]], label)
             for u, label in order]

    if ctx.config.use_gpu_set_ops:
        # C(u) is materialized as a bitset for O(1)-transaction probes
        # (Section V): one bit per data vertex, zeroed then set.
        bitset_words = (ctx.graph.num_vertices + 31) // 32
        ctx.device.memset_cycles(bitset_words)

    if ctx.config.use_prealloc_combine:
        _prealloc(ctx, edges[0], step_name)
        flat, counts = _edge_pass(ctx, rows, edges, cand, count_only=False,
                                  step_name=step_name)
        return _link(ctx, rows, flat, counts, step_name)

    # Two-step output scheme: identical join work performed twice.
    _edge_pass(ctx, rows, edges, cand, count_only=True,
               step_name=step_name + "_count")
    flat, counts = _edge_pass(ctx, rows, edges, cand, count_only=False,
                              step_name=step_name + "_write")
    return _two_step(ctx, rows, flat, counts, step_name)


def run_join_phase(ctx: JoinContext, plan: JoinPlan,
                   candidates: Dict[int, Array]) -> Array:
    """Execute the full join loop.

    Returns the ``(n, k)`` match table with columns in ``plan.order``
    (the caller permutes them into query-vertex order).  A step that
    empties the table leaves every later step an empty table, which
    returns at once without charging anything.
    """
    with get_tracer().span("kernel.join_phase",
                           lane=ctx.config.join_kernel,
                           steps=len(plan.steps)) as span:
        start_cands = candidates[plan.start_vertex]
        # Materializing M = C(u_start): one coalesced copy.
        tx = contiguous_read(len(start_cands))
        ctx.device.meter.add_gld(tx, label=LABEL_JOIN)
        ctx.device.meter.add_gst(tx)
        ctx.device.run_kernel([float(tx * CYCLES_PER_GLD)],
                              name="init_m")

        rows = np.asarray(start_cands, dtype=np.int64).reshape(-1, 1)
        columns = [plan.start_vertex]
        for step in plan.steps:
            cand = CandidateSet(np.asarray(candidates[step.vertex],
                                           dtype=np.int64))
            rows = execute_join_step(ctx, rows, columns, step, cand)
            columns.append(step.vertex)
        span.set_attribute("rows", int(rows.shape[0]))
    return rows
