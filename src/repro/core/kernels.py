"""Join kernels: one edge pass and one cost model for both host lanes.

The intermediate table is one ``(n, w)`` int64 array, and
:func:`repro.core.join.execute_join_step` drives every step.  This module
holds

* the neighbor fetch, :func:`_distinct_neighbors`: one
  :meth:`~repro.storage.base.NeighborStore.gather` call returns every
  distinct bound vertex's ``N(v, l)`` back to back, with the store's
  charges per vertex.  Lists are sorted-unique by the store's
  invariant, and nothing is memoized: the step driver fetches each
  linking edge once per step;

* the edge pass, :func:`_edge_pass`: for each linking edge it computes
  the per-row buffers and charges every row from the buffers' length
  arrays with :func:`_edge_costs`, the one statement of Section V's
  cost model;

* the two buffer functions between which ``GSIConfig.join_kernel``
  chooses.  Both return the same ``(flat, counts, len_keep)`` and differ
  only in host speed:

  - ``rows`` (:func:`_rows_buffers`): one ``np.isin`` /
    ``np.intersect1d`` per row, the direct transcription of
    Algorithm 3 lines 10-13;
  - ``vector`` (:func:`_vector_buffers`): ``(N(v, l) \\ m_i) ∩ C(u)``
    as one gather over the store's concatenation, and the refines as
    one sorted membership pass over the whole table;

* the array code around the edge pass: Algorithm 4's capacity bounds and
  GBA scan (:func:`_prealloc`), the link kernel that writes ``M'`` once
  from the prefix sum of the buffer lengths (:func:`_link`) and the
  two-step scheme's write (:func:`_two_step`).

``tests/test_join_golden.py`` pins both lanes to costs recorded from the
per-row join.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Tuple

import numpy as np

from repro.arraytypes import Array
from repro.core.config import GSIConfig
from repro.core.set_ops import CandidateSet
from repro.gpusim.constants import (
    CYCLES_PER_GLD,
    CYCLES_PER_GST,
    CYCLES_PER_OP,
    CYCLES_PER_SHARED,
    LABEL_JOIN,
    WARPS_PER_BLOCK,
)
from repro.gpusim.transactions import contiguous_read, contiguous_reads

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.join import JoinContext


class DistinctNeighbors(NamedTuple):
    """One linking edge's ``N(v, l)``, gathered once per distinct bound
    vertex: ``inv`` maps each table row to its vertex, and the other
    fields are the store's :class:`~repro.storage.base.Gathered` lists
    and charges, indexed by vertex."""

    inv: Array
    concat: Array
    starts: Array
    lens: Array
    locate: Array
    read: Array
    streamed: Array


class EdgeCost(NamedTuple):
    """One edge kernel's counted events, one entry per table row;
    ``units`` drive the load-balance thresholds, ``launches`` counts the
    naive mode's per-operation kernels over all rows."""

    gld: Array
    gst: Array
    shared: Array
    ops: Array
    units: Array
    launches: int


# ----------------------------------------------------------------------
# Functional building blocks
# ----------------------------------------------------------------------


def _shared_hit_mask(vcol: Array) -> Array:
    """Duplicate-removal hits (Algorithm 5, Section VI-B): rows whose
    bound vertex already occurred earlier within the same
    ``WARPS_PER_BLOCK`` block.

    Rows of the intermediate table often repeat the same data vertex in
    the same column (Figure 9: every row starts with ``v0``), so all
    their warps would extract the same ``N(v, l)``.  Within one block,
    warps write their vertex to shared memory, find the *first* warp
    holding the same vertex (Alg. 5 lines 1-5), and share that warp's
    staged input buffer instead of re-reading global memory; the
    first-occurrence stager keeps its own global read.  This finds the
    hits of a whole table at once.
    """
    num_rows = len(vcol)
    idx = np.arange(num_rows, dtype=np.int64)
    block_id = idx // WARPS_PER_BLOCK
    order = np.lexsort((idx, vcol, block_id))
    first = np.ones(num_rows, dtype=bool)
    if num_rows > 1:
        sb, sv = block_id[order], vcol[order]
        first[1:] = (sb[1:] != sb[:-1]) | (sv[1:] != sv[:-1])
    hit = np.empty(num_rows, dtype=bool)
    hit[order] = ~first
    return hit


def _segment_membership(values: Array, seg_of: Array,
                        seg_starts: Array, seg_lens: Array,
                        concat: Array) -> Array:
    """``values[i] ∈ segment[seg_of[i]]`` for sorted-unique segments.

    Equivalent to per-row ``np.intersect1d(buf, nbrs,
    assume_unique=True)`` membership; the buffers stay sorted-unique, so
    filtering by this mask reproduces the intersection exactly.
    """
    out = np.zeros(len(values), dtype=bool)
    if len(values) == 0:
        return out
    order = np.argsort(seg_of, kind="stable")
    sorted_seg = seg_of[order]
    bounds = np.flatnonzero(sorted_seg[1:] != sorted_seg[:-1]) + 1
    for run in np.split(order, bounds):
        seg = int(seg_of[run[0]])
        n = int(seg_lens[seg])
        if n == 0:
            continue
        segment = concat[seg_starts[seg]:seg_starts[seg] + n]
        vals = values[run]
        pos = np.minimum(np.searchsorted(segment, vals), n - 1)
        out[run] = segment[pos] == vals
    return out


def _distinct_neighbors(ctx: "JoinContext", vcol: Array,
                        label: int) -> DistinctNeighbors:
    """One store gather of ``N(v, label)`` for each distinct vertex of
    ``vcol``."""
    uniq, inv = np.unique(vcol, return_inverse=True)
    return DistinctNeighbors(inv, *ctx.store.gather(uniq, label))


# ----------------------------------------------------------------------
# Per-row buffers: the only difference between the lanes
# ----------------------------------------------------------------------


def _rows_buffers(table: Array, nbrs: DistinctNeighbors,
                  cand: CandidateSet, flat: Array, counts: Array,
                  first: bool) -> Tuple[Array, Array, Array]:
    """One set operation per row (the ``rows`` lane).

    On the first edge ``buf_i = (N(v, l0) \\ m_i) ∩ C(u)``; on a refine
    ``buf_i = buf_i ∩ N(v, l)``, where ``flat``/``counts`` hold the
    incoming buffers concatenated in row order and their lengths.
    Returns the new ``(flat, counts, len_keep)``: ``len_keep`` is each
    row's count after the subtraction, before the ``C(u)`` probe; a
    refine probes nothing, so there it equals ``counts``.
    """
    concat, inv = nbrs.concat, nbrs.inv.tolist()
    lists = [concat[s:s + n]
             for s, n in zip(nbrs.starts.tolist(), nbrs.lens.tolist())]
    if first:
        keeps = [lists[k][~np.isin(lists[k], table[i])]
                 for i, k in enumerate(inv)]
        out = [keep[cand.contains_mask(keep)] for keep in keeps]
    else:
        bufs = np.split(flat, np.cumsum(counts)[:-1])
        keeps = out = [np.intersect1d(buf, lists[k], assume_unique=True)
                       for buf, k in zip(bufs, inv)]
    return (np.concatenate(out),
            np.array([len(buf) for buf in out], dtype=np.int64),
            np.array([len(keep) for keep in keeps], dtype=np.int64))


def _vector_buffers(table: Array, nbrs: DistinctNeighbors,
                    cand: CandidateSet, flat: Array, counts: Array,
                    first: bool) -> Tuple[Array, Array, Array]:
    """:func:`_rows_buffers` over the whole table at once (the
    ``vector`` lane): each row's share is gathered from the store's
    concatenation of the distinct lists."""
    num_rows, width = table.shape
    starts, concat = nbrs.starts, nbrs.concat
    row_ids = np.arange(num_rows, dtype=np.int64)
    if first:
        nlen = nbrs.lens[nbrs.inv]
        row_of = np.repeat(row_ids, nlen)
        head = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(nlen, out=head[1:])
        gather = (np.arange(len(row_of), dtype=np.int64)
                  - head[:-1][row_of] + starts[nbrs.inv][row_of])
        vals = concat[gather]
        in_row = np.zeros(len(vals), dtype=bool)
        for j in range(width):
            in_row |= vals == table[row_of, j]
        keep_mask = ~in_row
        buf_mask = keep_mask & cand.contains_mask(concat)[gather]
        len_keep = np.bincount(row_of, weights=keep_mask,
                               minlength=num_rows).astype(np.int64)
        new_counts = np.bincount(row_of, weights=buf_mask,
                                 minlength=num_rows).astype(np.int64)
        return vals[buf_mask], new_counts, len_keep
    row_of = np.repeat(row_ids, counts)
    member = _segment_membership(flat, nbrs.inv[row_of], starts,
                                 nbrs.lens, concat)
    new_counts = np.bincount(row_of, weights=member,
                             minlength=num_rows).astype(np.int64)
    return flat[member], new_counts, new_counts


# ----------------------------------------------------------------------
# The cost model (Section V)
# ----------------------------------------------------------------------


def _edge_costs(config: GSIConfig, cand: CandidateSet,
                nbrs: DistinctNeighbors, width: int, first: bool,
                counts_in: Array, len_keep: Array, counts: Array,
                count_only: bool) -> EdgeCost:
    """Every row's counted events for one edge kernel, from the buffer
    function's length arrays (``counts_in`` are the incoming buffer
    lengths, read back by a refine).

    **GPU-friendly** (``use_gpu_set_ops``, "+SO"): the row is cached in
    shared memory, neighbor lists are staged batch by batch (128 B per
    transaction), ``C(u)`` membership is one bitset transaction per
    element, and subtraction and candidate check are fused; with
    ``use_write_cache`` a 128 B write cache batches result stores.

    **Naive**: every set operation is its own kernel launch using a
    traditional two-list intersection: the row is re-read per operation,
    the subtraction's result is materialized to global memory between
    kernels, ``C(u)`` membership is a binary search
    (:meth:`CandidateSet.probe_gld`), and stores are unbatched.

    A duplicate-removal hit (``use_duplicate_removal``, Alg. 5) reads
    its list from the block's shared memory instead of global memory,
    and every row pays Alg. 5's synchronization.  ``count_only`` strips
    the stores (the two-step scheme's counting pass).
    """
    friendly = config.use_gpu_set_ops
    write_cache = config.use_write_cache and friendly
    num_rows = len(counts)
    read = nbrs.read[nbrs.inv]
    streamed = nbrs.streamed[nbrs.inv]
    locread = nbrs.locate[nbrs.inv] + read
    # ``inv`` numbers the bound vertices one-to-one, so its repeats
    # within a block are the vertex column's.
    hit = (_shared_hit_mask(nbrs.inv) if config.use_duplicate_removal
           else np.zeros(num_rows, dtype=bool))
    gld = np.where(hit, 0, locread)
    shared = np.where(hit, locread, read if friendly else 0)
    gst = contiguous_reads(counts) if write_cache else counts
    if first:
        units = streamed
        ops = streamed + width + len_keep
        gld = gld + len_keep * cand.probe_gld(1, friendly)
        if friendly:
            launches = 0
            shared = shared + contiguous_read(width)  # row cached once
            if write_cache:
                shared = shared + (counts > 0)  # the cache's staging slot
        else:
            # Row re-read, then the subtraction's result stored and
            # loaded again by the intersection kernel.
            launches = 2 * num_rows
            mid = contiguous_reads(len_keep)
            gld = gld + contiguous_read(width) + mid
            gst = gst + mid
    else:
        units = counts_in + streamed
        ops = counts_in + streamed
        gld = gld + contiguous_reads(counts_in)  # buffer read back
        launches = 0 if friendly else num_rows
    if config.use_duplicate_removal:
        ops = ops + 4
    if count_only:
        gst = np.zeros(num_rows, dtype=np.int64)
    return EdgeCost(gld, gst, shared, ops, units, launches)


def _charge(ctx: "JoinContext", cost: EdgeCost, name: str) -> None:
    """Meter one edge kernel and schedule its per-row tasks in row
    order (which fixes the simulated latency and any
    ``BudgetExceeded`` point)."""
    device = ctx.device
    device.meter.add_gld(int(cost.gld.sum()), label=LABEL_JOIN)
    device.meter.add_gst(int(cost.gst.sum()))
    device.meter.add_shared(int(cost.shared.sum()))
    device.meter.add_ops(int(cost.ops.sum()))
    if cost.launches:
        device.launch_overhead(cost.launches)
    cycles = (cost.gld * CYCLES_PER_GLD + cost.gst * CYCLES_PER_GST
              + cost.shared * CYCLES_PER_SHARED + cost.ops * CYCLES_PER_OP)
    device.run_kernel(cycles.tolist(), name=name,
                      lb=ctx.config.load_balance_config(),
                      task_units=cost.units.astype(np.float64).tolist())


def _edge_pass(ctx: "JoinContext", table: Array,
               edges: List[DistinctNeighbors], cand: CandidateSet,
               count_only: bool, step_name: str) -> Tuple[Array, Array]:
    """All linking-edge kernels of one step, one per edge, over the
    edges' lists as the caller fetched them (edge 0 first).  Returns
    ``(flat, counts)``: the per-row buffers concatenated in row order
    plus their lengths.
    """
    buffers = (_vector_buffers if ctx.config.join_kernel == "vector"
               else _rows_buffers)
    width = table.shape[1]
    flat = np.empty(0, dtype=np.int64)
    counts = np.zeros(table.shape[0], dtype=np.int64)
    for edge_idx, nbrs in enumerate(edges):
        first = edge_idx == 0
        counts_in = counts
        flat, counts, len_keep = buffers(table, nbrs, cand, flat, counts,
                                         first)
        _charge(ctx, _edge_costs(ctx.config, cand, nbrs, width, first,
                                 counts_in, len_keep, counts, count_only),
                name=f"{step_name}_e{edge_idx}")
    return flat, counts


# ----------------------------------------------------------------------
# Prealloc / link / two-step materialization
# ----------------------------------------------------------------------


def _prealloc(ctx: "JoinContext", nbrs: DistinctNeighbors,
              step_name: str) -> None:
    """Algorithm 4's capacity bounds + GBA scan over the first edge's
    list lengths."""
    locate = nbrs.locate[nbrs.inv]
    ctx.device.meter.add_gld(int(locate.sum()), label=LABEL_JOIN)
    tasks = (locate * CYCLES_PER_GLD).tolist()
    ctx.device.exclusive_prefix_sum(
        nbrs.lens[nbrs.inv], name=f"{step_name}_prealloc_scan",
        fused_tasks=tasks)


def _materialize(table: Array, flat: Array, counts: Array) -> Array:
    """``m_i (+) z`` for every surviving z, as one bulk repeat+stack."""
    width = table.shape[1]
    new_rows = np.empty((len(flat), width + 1), dtype=np.int64)
    new_rows[:, :width] = np.repeat(table, counts, axis=0)
    new_rows[:, width] = flat
    return new_rows


def _link(ctx: "JoinContext", table: Array, flat: Array,
          counts: Array, step_name: str) -> Array:
    """Alg. 3 lines 14-21 over the whole table."""
    ctx.device.exclusive_prefix_sum(counts, name=f"{step_name}_offsets")
    width = table.shape[1]
    use_cache = ctx.config.use_write_cache and ctx.config.use_gpu_set_ops
    nz = counts > 0
    gld = np.where(nz, contiguous_read(width) + contiguous_reads(counts), 0)
    written = (width + 1) * counts
    gst = np.where(nz, contiguous_reads(written) if use_cache else written,
                   0)
    ctx.device.meter.add_gld(int(gld.sum()), label=LABEL_JOIN)
    ctx.device.meter.add_gst(int(gst.sum()))
    cycles = gld * CYCLES_PER_GLD + gst * CYCLES_PER_GST
    ctx.device.run_kernel(cycles.tolist(), name=f"{step_name}_link",
                          lb=ctx.config.load_balance_config(),
                          task_units=counts.astype(np.float64).tolist())
    return _materialize(table, flat, counts)


def _two_step(ctx: "JoinContext", table: Array, flat: Array,
              counts: Array, step_name: str) -> Array:
    """Two-step scheme's assembly: writes were charged in the repeated
    pass, only the offsets scan and batched stores land here."""
    ctx.device.exclusive_prefix_sum(counts, name=f"{step_name}_offsets")
    width = table.shape[1]
    written = (width + 1) * counts[counts > 0]
    ctx.device.meter.add_gst(int(contiguous_reads(written).sum()))
    return _materialize(table, flat, counts)
