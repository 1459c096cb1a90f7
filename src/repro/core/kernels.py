"""Array join kernels: the vector edge pass and the shared table writes.

The intermediate table is one ``(n, w)`` int64 array on both host lanes
(``GSIConfig.join_kernel``), and :func:`repro.core.join.execute_join_step`
drives every step.  This module holds

* the ``vector`` lane's edge pass, :func:`_edge_pass_vector`, which runs
  each linking edge over the *whole* table instead of one Python
  iteration per row (the ``rows`` lane, ``repro.core.join._edge_pass``):

  - rows are grouped by their bound vertex (``np.unique``), so each
    distinct ``(v, label)`` neighbor list is fetched and concatenated
    exactly once — duplicate-removal sharing falls out of the grouping;
  - ``(N(v, l) \\ m_i) ∩ C(u)`` and the refine intersections run as
    vectorized sorted-set operations over the flattened buffers, built
    on the same primitives (`CandidateSet.contains_mask`, sorted
    ``searchsorted`` probes) the per-row lane uses;
  - per-row :class:`~repro.core.set_ops.RowCost` fields are derived from
    length arrays with the exact formulas of ``SetOpEngine``, so metered
    transaction totals, kernel cycle lists (hence simulated latency and
    budget-abort points) and match sets are **byte-identical** to the
    per-row pass;

* the array code both lanes share around the edge pass: Algorithm 4's
  capacity bounds and GBA scan (:func:`_prealloc_vector`), the link
  kernel that writes ``M'`` once from the prefix sum of the buffer
  lengths (:func:`_link_vector`) and the two-step scheme's write
  (:func:`_two_step_vector`).

``tests/test_join_golden.py`` pins both lanes to costs recorded from the
per-row join.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.arraytypes import Array
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


# ----------------------------------------------------------------------
# Vectorized cost primitives
# ----------------------------------------------------------------------


def _write_cost_vec(n: Array, write_cache: bool) -> Array:
    """Elementwise ``SetOpEngine._write_cost``."""
    return contiguous_reads(n) if write_cache else n


# ----------------------------------------------------------------------
# Functional building blocks
# ----------------------------------------------------------------------


def _shared_hit_mask(vcol: Array) -> Array:
    """Duplicate-removal hits: rows whose bound vertex already occurred
    earlier within the same ``WARPS_PER_BLOCK`` block (Alg. 5's
    first-occurrence stager keeps its own global read)."""
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


# ----------------------------------------------------------------------
# Edge pass
# ----------------------------------------------------------------------


def _distinct_neighbors(
        ctx: "JoinContext", vcol: Array, label: int
) -> Tuple[Array, List[Array], Array, Array, Array, Array]:
    """Fetch each distinct vertex's neighbor list once (shared memo with
    the per-row lane).

    Returns ``(inv, lists, locate_u, read_u, streamed_u, len_u)``:
    ``inv`` maps each row to its distinct vertex, and the other five
    are indexed by distinct vertex.
    """
    uniq, inv = np.unique(vcol, return_inverse=True)
    num_uniq = len(uniq)
    locate_u = np.empty(num_uniq, dtype=np.int64)
    read_u = np.empty(num_uniq, dtype=np.int64)
    streamed_u = np.empty(num_uniq, dtype=np.int64)
    len_u = np.empty(num_uniq, dtype=np.int64)
    lists: List[Array] = []
    for k in range(num_uniq):
        nbrs, locate, read_tx, streamed = ctx.neighbors(int(uniq[k]), label)
        lists.append(nbrs)
        locate_u[k] = locate
        read_u[k] = read_tx
        streamed_u[k] = streamed
        len_u[k] = len(nbrs)
    return inv, lists, locate_u, read_u, streamed_u, len_u


def _meter_and_launch(ctx: "JoinContext", gld: Array, gst: Array,
                      shared: Array, ops: Array,
                      launches: int, units: Array, name: str) -> None:
    """Bulk twin of ``_run_edge_kernel``: meter totals are plain sums, and
    the per-row cycle list is passed in the same row order, so scheduling
    (and any ``BudgetExceeded`` point) is identical."""
    device = ctx.device
    device.meter.add_gld(int(gld.sum()), label=LABEL_JOIN)
    device.meter.add_gst(int(gst.sum()))
    device.meter.add_shared(int(shared.sum()))
    device.meter.add_ops(int(ops.sum()))
    if launches:
        device.launch_overhead(launches)
    cycles = (gld * CYCLES_PER_GLD + gst * CYCLES_PER_GST
              + shared * CYCLES_PER_SHARED + ops * CYCLES_PER_OP)
    device.run_kernel(cycles.tolist(), name=name,
                      lb=ctx.config.load_balance_config(),
                      task_units=units.astype(np.float64).tolist())


def _edge_pass_vector(ctx: "JoinContext", rows_np: Array,
                      col_of: Dict[int, int],
                      edges: List[Tuple[int, int]], cand: CandidateSet,
                      count_only: bool, step_name: str
                      ) -> Tuple[Array, Array]:
    """All linking-edge kernels over the whole table at once.

    Returns ``(flat, counts)``: the per-row buffers concatenated in row
    order plus their lengths.
    """
    num_rows, width = rows_np.shape
    engine = ctx.set_engine
    friendly = engine.friendly
    write_cache = engine.write_cache
    dr = ctx.config.use_duplicate_removal
    probe_factor = cand.probe_gld(1, friendly)

    flat = np.empty(0, dtype=np.int64)
    counts = np.zeros(num_rows, dtype=np.int64)
    for edge_idx, (u_prime, label) in enumerate(edges):
        vcol = rows_np[:, col_of[u_prime]]
        inv, lists, locate_u, read_u, streamed_u, len_u = (
            _distinct_neighbors(ctx, vcol, label))
        starts_u = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(len_u, out=starts_u[1:])
        concat = np.concatenate(lists)
        locate_r, read_r = locate_u[inv], read_u[inv]
        streamed_r = streamed_u[inv]
        shared_hit = (_shared_hit_mask(vcol) if dr
                      else np.zeros(num_rows, dtype=bool))
        locread = locate_r + read_r
        gld = np.where(shared_hit, 0, locread)
        shared = np.where(shared_hit, locread,
                          read_r if friendly else 0)
        launches = 0

        if edge_idx == 0:
            # buf_i = (N(v, l0) \ m_i) ∩ C(u), all rows at once: expand
            # each row's neighbor list by gathering from the per-vertex
            # concatenation, then mask per element.
            nlen_r = len_u[inv]
            total = int(nlen_r.sum())
            row_of = np.repeat(np.arange(num_rows, dtype=np.int64), nlen_r)
            head = np.zeros(num_rows + 1, dtype=np.int64)
            np.cumsum(nlen_r, out=head[1:])
            gather = (np.arange(total, dtype=np.int64) - head[:-1][row_of]
                      + starts_u[inv][row_of])
            vals = concat[gather]
            in_row = np.zeros(total, dtype=bool)
            for j in range(width):
                in_row |= vals == rows_np[row_of, j]
            keep_mask = ~in_row
            buf_mask = keep_mask & cand.contains_mask(concat)[gather]
            len_keep = np.bincount(row_of, weights=keep_mask,
                                   minlength=num_rows).astype(np.int64)
            counts = np.bincount(row_of, weights=buf_mask,
                                 minlength=num_rows).astype(np.int64)
            flat = vals[buf_mask]

            units = streamed_r
            row_read = contiguous_read(width)
            if friendly:
                shared = shared + row_read
            else:
                gld = gld + row_read
                launches += num_rows
            ops = streamed_r + width
            if friendly:
                gst = np.zeros(num_rows, dtype=np.int64)
            else:
                mid = contiguous_reads(len_keep)
                gst = mid.copy()
                gld = gld + mid
                launches += num_rows
            gld = gld + len_keep * probe_factor
            ops = ops + len_keep
            gst = gst + _write_cost_vec(counts, write_cache)
            if write_cache:
                shared = shared + (counts > 0)
        else:
            # buf_i = buf_i ∩ N(v, l): one membership probe per element.
            counts_in = counts
            row_of = np.repeat(np.arange(num_rows, dtype=np.int64),
                               counts_in)
            member = _segment_membership(flat, inv[row_of], starts_u,
                                         len_u, concat)
            counts = np.bincount(row_of, weights=member,
                                 minlength=num_rows).astype(np.int64)
            flat = flat[member]

            units = counts_in + streamed_r
            gld = gld + contiguous_reads(counts_in)
            if not friendly:
                launches += num_rows
            ops = counts_in + streamed_r
            gst = _write_cost_vec(counts, write_cache)

        if dr:
            ops = ops + 4  # Alg. 5 synchronization overhead
        if count_only:
            gst = np.zeros(num_rows, dtype=np.int64)
        _meter_and_launch(ctx, gld, gst, shared, ops, launches, units,
                          name=f"{step_name}_e{edge_idx}")
    return flat, counts


# ----------------------------------------------------------------------
# Prealloc / link / two-step materialization
# ----------------------------------------------------------------------


def _prealloc_vector(ctx: "JoinContext", rows_np: Array,
                     col0: int, label0: int, step_name: str) -> None:
    """Algorithm 4's capacity bounds + GBA scan, grouped by vertex."""
    # Only list lengths and locate costs: no neighbor concatenation.
    inv, _, locate_u, _, _, len_u = _distinct_neighbors(
        ctx, rows_np[:, col0], label0)
    locate_r = locate_u[inv]
    caps = len_u[inv]
    ctx.device.meter.add_gld(int(locate_r.sum()), label=LABEL_JOIN)
    tasks = (locate_r * CYCLES_PER_GLD).tolist()
    ctx.device.exclusive_prefix_sum(
        caps, name=f"{step_name}_prealloc_scan", fused_tasks=tasks)


def _materialize(rows_np: Array, flat: Array,
                 counts: Array) -> Array:
    """``m_i (+) z`` for every surviving z, as one bulk repeat+stack."""
    width = rows_np.shape[1]
    new_rows = np.empty((len(flat), width + 1), dtype=np.int64)
    new_rows[:, :width] = np.repeat(rows_np, counts, axis=0)
    new_rows[:, width] = flat
    return new_rows


def _link_vector(ctx: "JoinContext", rows_np: Array, flat: Array,
                 counts: Array, step_name: str) -> Array:
    """Alg. 3 lines 14-21 over the whole table."""
    ctx.device.exclusive_prefix_sum(counts, name=f"{step_name}_offsets")
    width = rows_np.shape[1]
    use_cache = ctx.config.use_write_cache and ctx.config.use_gpu_set_ops
    nz = counts > 0
    gld = np.where(nz, contiguous_read(width) + contiguous_reads(counts), 0)
    written = (width + 1) * counts
    gst = np.where(nz, _write_cost_vec(written, use_cache), 0)
    ctx.device.meter.add_gld(int(gld.sum()), label=LABEL_JOIN)
    ctx.device.meter.add_gst(int(gst.sum()))
    cycles = gld * CYCLES_PER_GLD + gst * CYCLES_PER_GST
    ctx.device.run_kernel(cycles.tolist(), name=f"{step_name}_link",
                          lb=ctx.config.load_balance_config(),
                          task_units=counts.astype(np.float64).tolist())
    return _materialize(rows_np, flat, counts)


def _two_step_vector(ctx: "JoinContext", rows_np: Array,
                     flat: Array, counts: Array,
                     step_name: str) -> Array:
    """Two-step scheme's assembly: writes were charged in the repeated
    pass, only the offsets scan and batched stores land here."""
    ctx.device.exclusive_prefix_sum(counts, name=f"{step_name}_offsets")
    width = rows_np.shape[1]
    written = (width + 1) * counts[counts > 0]
    ctx.device.meter.add_gst(int(contiguous_reads(written).sum()))
    return _materialize(rows_np, flat, counts)
