"""Hardware constants for the simulated GPU (modeled on an NVIDIA Titan XP).

The paper's testbed is a Titan XP: 30 streaming multiprocessors, 128 cores
per SM, 48 KB shared memory per SM, 12 GB global memory, 128-byte global
memory transactions (Section II-B / VII).  The simulator is a *cost model*:
kernels run functionally in Python while these constants convert counted
events (memory transactions, launches, element operations) into simulated
cycles and milliseconds.

Latency constants are in line with published microbenchmarks of Pascal
GPUs; only *ratios* matter for reproducing the paper's comparisons.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Thread hierarchy (Section II-B)
# ---------------------------------------------------------------------------

WARP_SIZE = 32
"""Threads per warp; a warp executes in SIMD lock-step."""

NUM_SM = 30
"""Streaming multiprocessors on the device (Titan XP)."""

WARPS_PER_SM = 32
"""Resident warps we model per SM (occupancy-limited)."""

WARP_SLOTS = NUM_SM * WARPS_PER_SM
"""Total concurrent warp contexts; the parallel width of the device."""

BLOCK_THREADS = 1024
"""Threads per block (the paper sets W2 to the CUDA block size, 1024)."""

WARPS_PER_BLOCK = BLOCK_THREADS // WARP_SIZE
"""Warps per block: the region duplicate removal (Alg. 5) operates on."""

# ---------------------------------------------------------------------------
# Memory hierarchy (Section II-B)
# ---------------------------------------------------------------------------

TRANSACTION_BYTES = 128
"""Width of one global-memory transaction."""

ELEMENT_BYTES = 4
"""We store vertex ids / offsets as 32-bit words, as the paper does."""

ELEMENTS_PER_TRANSACTION = TRANSACTION_BYTES // ELEMENT_BYTES
"""Vertex ids fetched by one coalesced transaction (= warp width)."""

SHARED_MEMORY_BYTES = 48 * 1024
"""Shared memory per SM (Titan XP: 48 KB)."""

# ---------------------------------------------------------------------------
# Latency model (cycles)
# ---------------------------------------------------------------------------

CYCLES_PER_GLD = 400
"""Latency charged per global-memory *load* transaction."""

CYCLES_PER_GST = 400
"""Latency charged per global-memory *store* transaction."""

CYCLES_PER_SHARED = 25
"""Latency charged per shared-memory access (per 128 B batch)."""

CYCLES_PER_OP = 1
"""Cost of one warp-wide arithmetic/compare step on resident data."""

KERNEL_LAUNCH_CYCLES = 7_000
"""Fixed overhead of launching one kernel (~5 us at 1.4 GHz)."""

KERNEL_QUEUE_CYCLES = 400
"""Host-side queue cost per launch when many tiny kernels are issued
back-to-back (the naive one-kernel-per-set-operation mode): launches
pipeline through the driver at roughly this serial cost each."""

TASK_MERGE_CYCLES = 64
"""Overhead per chunk when the load balancer splits/merges a task
through shared memory (Section VI-A layers 2-3)."""

CLOCK_GHZ = 1.4
"""Core clock used to convert cycles to milliseconds."""

# ---------------------------------------------------------------------------
# CPU cost model (for the sequential baselines in Figure 12)
# ---------------------------------------------------------------------------

CPU_CLOCK_GHZ = 2.3
"""The paper's host CPU: Intel Xeon E5-2697 @ 2.30 GHz."""

CPU_CYCLES_PER_OP = 12
"""Cycles charged per counted basic operation (candidate check, edge
probe, recursion step) of a CPU engine.  Pointer-chasing graph code is
memory-bound, hence well above 1 cycle/op."""


# ---------------------------------------------------------------------------
# Meter-label registry (GSI002)
# ---------------------------------------------------------------------------
# Every labeled meter charge in the engine attributes its transactions
# to one of these phases.  The gsilint GSI002 rule rejects stringly-typed
# one-off labels at charge sites; new phases are added HERE (constant +
# METER_LABELS entry) so per-phase attribution stays enumerable by
# reports, benches, and the serving metrics layer.

LABEL_FILTER = "filter"
"""Candidate filtering: signature-table scans (Algorithm 1)."""

LABEL_JOIN = "join"
"""Joining phase: edge passes over the intermediate table (Alg. 3/4)."""

LABEL_PCSR_MAINTAIN = "pcsr_maintain"
"""In-place PCSR inserts/removals (dynamic maintenance)."""

LABEL_PCSR_COMPACT = "pcsr_compact"
"""PCSR dead-space compaction sweeps."""

LABEL_PCSR_REBUILD = "pcsr_rebuild"
"""Full PCSR partition rebuilds (occupancy / Claim-1 starvation)."""

LABEL_SIG_MAINTAIN = "sig_maintain"
"""Incremental signature-table row updates."""

LABEL_COMMIT_PATCH = "commit_patch"
"""O(changes) CSR snapshot commits (row splicing)."""

LABEL_DELTA_SEED = "delta_seed"
"""Per-batch delta-match seed construction in the stream engine."""

METER_LABELS = frozenset({
    LABEL_FILTER,
    LABEL_JOIN,
    LABEL_PCSR_MAINTAIN,
    LABEL_PCSR_COMPACT,
    LABEL_PCSR_REBUILD,
    LABEL_SIG_MAINTAIN,
    LABEL_COMMIT_PATCH,
    LABEL_DELTA_SEED,
})
"""The registry: every statically-known meter label. Dynamic labels
(per-shard ``shard{i}`` attribution from
:func:`~repro.gpusim.meter.merge_shard_snapshots`) are additive on top
and are not charge-site labels."""


def cycles_to_ms(cycles: float) -> float:
    """Convert simulated GPU cycles to milliseconds."""
    return cycles / (CLOCK_GHZ * 1e6)


def cpu_ops_to_ms(ops: float) -> float:
    """Convert counted CPU operations to simulated milliseconds."""
    return ops * CPU_CYCLES_PER_OP / (CPU_CLOCK_GHZ * 1e6)
