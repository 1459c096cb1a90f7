"""Warp-slot scheduling: turns per-task costs into kernel elapsed time.

A kernel is a bag of warp tasks (in GSI's join, one task per intermediate
table row).  The device has ``WARP_SLOTS`` concurrent warp contexts; tasks
are dispatched in order to the least-loaded slot, and the kernel's elapsed
time is the *makespan* — exactly why the paper's Section VI-A says "the
overall performance is limited by the longest workload".

The 4-layer load-balance scheme (Section VI-A) is implemented here as task
splitting *before* scheduling:

1. tasks larger than ``W1`` get a dedicated kernel spread over the whole
   device (extra launch overhead);
2. tasks larger than ``W2`` (= block size) are spread over a block's warps;
3. within a block, work above ``W3`` is pooled in shared memory and split
   evenly (paying a merge overhead per chunk);
4. the remainder stays on its original warp.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.gpusim.constants import (
    BLOCK_THREADS,
    KERNEL_LAUNCH_CYCLES,
    TASK_MERGE_CYCLES,
    WARPS_PER_BLOCK,
    WARP_SLOTS,
)


def makespan(task_cycles: Sequence[float], slots: int = WARP_SLOTS) -> float:
    """Elapsed cycles for tasks dispatched in-order to least-loaded slots.

    With fewer tasks than slots this is simply ``max(task_cycles)``; with
    skewed tasks the largest ones dominate, reproducing the imbalance the
    paper's load-balance scheme targets.
    """
    n = len(task_cycles)
    if n == 0:
        return 0.0
    if slots <= 1:
        return float(sum(task_cycles))
    if n <= slots:
        return float(max(task_cycles))
    heap: List[float] = [0.0] * slots
    for c in task_cycles:
        finish = heapq.heappop(heap)
        heapq.heappush(heap, finish + float(c))
    return max(heap)


@dataclass(frozen=True)
class LoadBalanceConfig:
    """Thresholds of the 4-layer scheme, in *work units* (list elements).

    The paper requires ``W1 > W2 > W3 > 32`` with ``W2`` fixed to the CUDA
    block size, which layer 2 reads as
    :data:`~repro.gpusim.constants.BLOCK_THREADS` (1024); it tunes
    ``W1 = 4096`` and ``W3 = 256`` (Tables IX and X).
    """

    w1: int = 4096
    w3: int = 256
    cycles_per_unit: float = 14.0
    """Conversion from work units to cycles when splitting (one element
    costs roughly one coalesced-load share plus compare)."""


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one kernel's tasks."""

    elapsed_cycles: float
    kernel_launches: int
    num_tasks_scheduled: int


def split_tasks_4layer(task_units: Sequence[float],
                       cfg: LoadBalanceConfig
                     ) -> Tuple[List[float], float, int]:
    """Apply the 4-layer splitting to per-task work (in units).

    Returns ``(split_unit_list, extra_cycles, extra_launches)`` where
    ``extra_cycles`` covers the dedicated kernels of layer 1 and the merge
    overheads of layers 2-3, and ``extra_launches`` counts layer-1 kernels.
    """
    out: List[float] = []
    extra_cycles = 0.0
    extra_launches = 0
    # Merge overhead is paid by each chunk's warp in parallel, so it is
    # folded into the chunk's own cost (in units) rather than serialized.
    merge_units = TASK_MERGE_CYCLES / cfg.cycles_per_unit
    for units in task_units:
        if units > cfg.w1:
            # Layer 1: dedicated kernel over the whole device; the
            # launch itself is serial host-side overhead.
            extra_launches += 1
            extra_cycles += KERNEL_LAUNCH_CYCLES
            extra_cycles += (units * cfg.cycles_per_unit) / WARP_SLOTS
            continue
        if units > BLOCK_THREADS:
            # Layer 2: one whole block works on this task.
            per_warp = units / WARPS_PER_BLOCK
            out.extend([per_warp + merge_units] * WARPS_PER_BLOCK)
            continue
        if units > cfg.w3:
            # Layer 3: excess beyond W3 pooled and split evenly in-block.
            chunks = int(units // cfg.w3) + (1 if units % cfg.w3 else 0)
            per_chunk = units / chunks
            out.extend([per_chunk + merge_units] * chunks)
            continue
        # Layer 4: stays on its warp.
        out.append(float(units))
    return out, extra_cycles, extra_launches


def schedule_kernel(task_cycles: Sequence[float],
                    slots: int = WARP_SLOTS,
                    lb: Optional[LoadBalanceConfig] = None,
                    task_units: Optional[Sequence[float]] = None
                    ) -> ScheduleResult:
    """Schedule one kernel; optionally load-balanced.

    ``task_cycles`` is the authoritative cost per task.  When ``lb`` is
    given, ``task_units`` (work in list elements, defaulting to
    cycles/``cycles_per_unit``) drives the threshold comparisons, and the
    cycle costs are re-derived from the split units.
    """
    launches = 1
    if lb is None:
        elapsed = KERNEL_LAUNCH_CYCLES + makespan(task_cycles, slots)
        return ScheduleResult(elapsed, launches, len(task_cycles))

    if task_units is None:
        task_units = [c / lb.cycles_per_unit for c in task_cycles]
    split_units, extra_cycles, extra_launches = split_tasks_4layer(
        task_units, lb)
    split_cycles = [u * lb.cycles_per_unit for u in split_units]
    elapsed = (KERNEL_LAUNCH_CYCLES + makespan(split_cycles, slots)
               + extra_cycles)
    return ScheduleResult(elapsed, launches + extra_launches,
                          len(split_cycles))
