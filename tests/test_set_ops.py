"""Tests for the join's set operations and their cost modes (Section V).

The operations are the per-row buffer function of the ``rows`` lane
(``_rows_buffers``, which the ``vector`` lane must reproduce) and their
costs the one cost function both lanes charge (``_edge_costs``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GSIConfig
from repro.core.kernels import DistinctNeighbors, _edge_costs, _rows_buffers
from repro.core.set_ops import CandidateSet
from repro.gpusim.transactions import contiguous_read

FRIENDLY = GSIConfig()
NAIVE = GSIConfig(use_gpu_set_ops=False)


def arr(*xs):
    return np.array(sorted(xs), dtype=np.int64)


def bound_to(nbrs, num_rows=1, locate_tx=1, read_tx=None, streamed=None):
    """``num_rows`` table rows all bound to one vertex whose list is
    ``nbrs``; storage charges default to a streamed per-label list."""
    if read_tx is None:
        read_tx = contiguous_read(len(nbrs))
    if streamed is None:
        streamed = len(nbrs)
    return DistinctNeighbors(
        inv=np.zeros(num_rows, dtype=np.int64), concat=nbrs, starts=arr(0),
        lens=arr(len(nbrs)), locate=arr(locate_tx), read=arr(read_tx),
        streamed=arr(streamed))


def first_edge(config, row, nbrs, cand, num_rows=1, **charges):
    """``buf = (nbrs \\ row) ∩ C(u)`` for ``num_rows`` copies of ``row``;
    returns the first row's buffer and every row's costs."""
    table = np.tile(row, (num_rows, 1))
    lists = bound_to(nbrs, num_rows, **charges)
    zeros = np.zeros(num_rows, dtype=np.int64)
    flat, counts, len_keep = _rows_buffers(table, lists, cand, zeros[:0],
                                           zeros, True)
    cost = _edge_costs(config, cand, lists, table.shape[1], True, zeros,
                       len_keep, counts, count_only=False)
    return flat[:counts[0]], cost


def refine_edge(config, buf, nbrs, count_only=False, **charges):
    """``buf = buf ∩ nbrs`` for one row; returns ``(buffer, costs)``."""
    table = np.zeros((1, 1), dtype=np.int64)
    lists = bound_to(nbrs, **charges)
    cand = CandidateSet(np.empty(0, dtype=np.int64))
    counts_in = arr(len(buf))
    flat, counts, len_keep = _rows_buffers(table, lists, cand, buf,
                                           counts_in, False)
    cost = _edge_costs(config, cand, lists, 1, False, counts_in, len_keep,
                       counts, count_only)
    return flat, cost


class TestCandidateSet:
    def test_contains_mask(self):
        c = CandidateSet(arr(2, 5, 9))
        mask = c.contains_mask(arr(1, 2, 9, 10))
        assert list(mask) == [False, True, True, False]

    def test_empty_candidate_set(self):
        c = CandidateSet(np.empty(0, dtype=np.int64))
        assert not c.contains_mask(arr(1, 2)).any()
        assert len(c) == 0

    def test_empty_values(self):
        c = CandidateSet(arr(1))
        assert len(c.contains_mask(np.empty(0, dtype=np.int64))) == 0

    def test_probe_cost_modes(self):
        c = CandidateSet(arr(*range(100)))
        assert c.probe_gld(10, friendly=True) == 10     # bitset: 1 each
        assert c.probe_gld(10, friendly=False) == 20    # binary search


class TestFirstEdgeOp:
    def test_functional_result(self):
        row = arr(1, 2)
        nbrs = arr(1, 3, 4, 5)
        cand = CandidateSet(arr(3, 5, 9))
        buf, _ = first_edge(FRIENDLY, row, nbrs, cand)
        assert list(buf) == [3, 5]  # drop 1 (in row), drop 4 (not in C)

    def test_empty_neighbors(self):
        buf, _ = first_edge(FRIENDLY, arr(1), np.empty(0, dtype=np.int64),
                            CandidateSet(arr(1, 2)))
        assert len(buf) == 0

    def test_friendly_mode_no_launches(self):
        _, cost = first_edge(FRIENDLY, arr(1), arr(2, 3),
                             CandidateSet(arr(2, 3)))
        assert cost.launches == 0

    def test_naive_mode_launches_kernels(self):
        _, cost = first_edge(NAIVE, arr(1), arr(2, 3),
                             CandidateSet(arr(2, 3)))
        assert cost.launches == 2  # subtraction + intersection kernels

    def test_naive_costs_more_gld(self):
        row, nbrs = arr(1), arr(*range(10, 80))
        cand = CandidateSet(arr(*range(10, 80, 2)))
        _, cf = first_edge(FRIENDLY, row, nbrs, cand)
        _, cn = first_edge(NAIVE, row, nbrs, cand)
        assert cn.gld.sum() > cf.gld.sum()

    def test_write_cache_batches_stores(self):
        plain = GSIConfig(use_write_cache=False)
        row, nbrs = arr(999), arr(*range(100))
        cand = CandidateSet(arr(*range(100)))
        _, cc = first_edge(FRIENDLY, row, nbrs, cand)
        _, cp = first_edge(plain, row, nbrs, cand)
        assert cc.gst.sum() < cp.gst.sum()
        # 100 results: batched = ceil(100/32) = 4, unbatched = 100.
        assert cc.gst.sum() <= 8 and cp.gst.sum() >= 100

    def test_shared_hit_removes_global_reads(self):
        # Two rows of one block bound to the same vertex: the second
        # reads the list the first staged in shared memory.
        dr = GSIConfig(use_duplicate_removal=True)
        row, nbrs = arr(1), arr(*range(10, 80))
        cand = CandidateSet(arr(*range(10, 80)))
        _, cost = first_edge(dr, row, nbrs, cand, num_rows=2, locate_tx=2)
        (miss_gld, hit_gld), (miss_sh, hit_sh) = cost.gld, cost.shared
        assert hit_gld < miss_gld
        assert hit_sh > miss_sh

    def test_storage_read_tx_honored(self):
        row, nbrs = arr(1), arr(2, 3)
        cand = CandidateSet(arr(2, 3))
        _, cheap = first_edge(FRIENDLY, row, nbrs, cand, read_tx=1,
                              streamed=2)
        _, costly = first_edge(FRIENDLY, row, nbrs, cand, read_tx=9,
                               streamed=200)
        assert costly.gld.sum() > cheap.gld.sum()
        assert costly.units.sum() > cheap.units.sum()


class TestRefineOp:
    def test_functional_intersection(self):
        out, _ = refine_edge(FRIENDLY, arr(1, 3, 5), arr(3, 4, 5))
        assert list(out) == [3, 5]

    def test_empty_buffer_short_circuit(self):
        out, _ = refine_edge(FRIENDLY, np.empty(0, dtype=np.int64),
                             arr(1, 2))
        assert len(out) == 0

    def test_count_only_discount_strips_stores(self):
        cfg = GSIConfig(use_write_cache=False)
        _, cost = refine_edge(cfg, arr(1, 2, 3), arr(1, 2, 3))
        _, stripped = refine_edge(cfg, arr(1, 2, 3), arr(1, 2, 3),
                                  count_only=True)
        assert cost.gst.sum() > 0
        assert stripped.gst.sum() == 0
        assert np.array_equal(stripped.gld, cost.gld)
        assert np.array_equal(stripped.ops, cost.ops)

    def test_naive_refine_launches(self):
        _, cost = refine_edge(NAIVE, arr(1), arr(1))
        assert cost.launches == 1


@settings(max_examples=50, deadline=None)
@given(
    row=st.sets(st.integers(0, 50), min_size=1, max_size=5),
    nbrs=st.sets(st.integers(0, 50), max_size=30),
    cand=st.sets(st.integers(0, 50), max_size=30),
)
def test_property_first_edge_semantics(row, nbrs, cand):
    buf, _ = first_edge(FRIENDLY, arr(*row), arr(*nbrs),
                        CandidateSet(arr(*cand)))
    assert set(buf.tolist()) == (nbrs - row) & cand


@settings(max_examples=50, deadline=None)
@given(
    buf=st.sets(st.integers(0, 50), max_size=30),
    nbrs=st.sets(st.integers(0, 50), max_size=30),
)
def test_property_refine_semantics(buf, nbrs):
    out, _ = refine_edge(FRIENDLY, arr(*buf), arr(*nbrs))
    assert set(out.tolist()) == buf & nbrs
