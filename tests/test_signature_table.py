"""Tests for the signature-table scan: its layout costs (Figure 8c vs
8d) and its candidates, against the warp-by-warp reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import encode_vertex, num_words
from repro.core.signature_table import SignatureTable
from repro.graph.generators import random_walk_query, scale_free_graph

from oracle import candidate_mask, reference_scan_cost


def make_tables(bits=512):
    g = scale_free_graph(200, 3, 5, 5, seed=4)
    q = random_walk_query(g, 4, seed=1)
    col = SignatureTable.build(g, bits, column_first=True)
    row = SignatureTable.build(g, bits, column_first=False)
    sig = encode_vertex(q, 0, bits)
    return g, col, row, sig


class TestFunctional:
    def test_layout_does_not_change_results(self):
        _, col, row, sig = make_tables()
        assert np.array_equal(col.scan(sig)[1], row.scan(sig)[1])

    def test_filter_returns_label_matches_only(self):
        g, col, _, sig = make_tables()
        cand = col.scan(sig)[1]
        assert len(cand)
        for v in cand:
            assert g.vertex_label(int(v)) == int(sig[0])


class TestScanCost:
    def test_column_first_cheaper(self):
        _, col, row, sig = make_tables()
        assert col.scan(sig)[0].gld_transactions \
            < row.scan(sig)[0].gld_transactions

    def test_row_first_pays_stride_gap(self):
        # With 16-word signatures, a warp's same-word reads span
        # 16 x 4 x 32 bytes = 16 segments: one order of magnitude worse.
        _, col, row, sig = make_tables(512)
        ratio = (row.scan(sig)[0].gld_transactions
                 / max(1, col.scan(sig)[0].gld_transactions))
        assert ratio > 4

    def test_task_count_is_warps(self):
        g, col, _, sig = make_tables()
        cost, _ = col.scan(sig)
        assert len(cost.warp_task_cycles) == (g.num_vertices + 31) // 32

    def test_label_miss_warps_read_one_word(self):
        # A signature whose label matches nothing: every warp reads only
        # word 0, so column-first cost is exactly one tx per warp.
        g = scale_free_graph(100, 2, 3, 3, seed=1)
        table = SignatureTable.build(g, 128, column_first=True)
        sig = np.zeros(4, dtype=np.uint32)
        sig[0] = 999_999  # label not present
        cost, cand = table.scan(sig)
        warps = (g.num_vertices + 31) // 32
        assert cost.gld_transactions == warps
        assert len(cand) == 0

    def test_empty_table(self):
        table = SignatureTable(np.zeros((0, 4), dtype=np.uint32))
        sig = np.zeros(4, dtype=np.uint32)
        cost, cand = table.scan(sig)
        assert cost.gld_transactions == 0
        assert cost.warp_task_cycles == ()
        assert len(cand) == 0

    def test_shorter_signatures_cost_less(self):
        g = scale_free_graph(200, 3, 5, 5, seed=4)
        q = random_walk_query(g, 4, seed=1)
        costs = []
        for bits in (64, 256, 512):
            t = SignatureTable.build(g, bits, column_first=True)
            sig = encode_vertex(q, 0, bits)
            costs.append(t.scan(sig)[0].gld_transactions)
        assert costs[0] <= costs[1] <= costs[2]


def _words(rng, shape, fill):
    """uint32 words with no bits, about 1/8 of them, or about 7/8."""
    draws = [rng.integers(0, 2**32, size=shape, dtype=np.uint32)
             for _ in range(3)]
    if fill == "empty":
        return np.zeros(shape, dtype=np.uint32)
    if fill == "sparse":
        return draws[0] & draws[1] & draws[2]
    return draws[0] | draws[1] | draws[2]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 200), bits=st.sampled_from([64, 128, 256, 512]),
       column_first=st.booleans(), seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from([0, 1, 2, 999_999]),
       rows_fill=st.sampled_from(["empty", "sparse", "dense"]),
       sig_tail=st.sampled_from(["empty", "row_subset", "sparse", "dense"]))
def test_scan_equals_reference(n, bits, column_first, seed, label,
                               rows_fill, sig_tail):
    """``scan`` charges the warp-loop cost to the byte and keeps exactly
    the rows the whole-table mask keeps, for any row count (multiples of
    32 or not), present or absent labels, empty or dense tails, and
    both layouts."""
    rng = np.random.default_rng(seed)
    w = num_words(bits)
    rows = _words(rng, (n, w), rows_fill)
    rows[:, 0] = rng.integers(0, 3, size=n)
    sig = np.zeros(w, dtype=np.uint32)
    sig[0] = label
    if sig_tail == "row_subset" and n:
        # bits of one row's tail: that row (at least) passes
        sig[1:] = rows[rng.integers(n), 1:] & _words(rng, w - 1, "dense")
    elif sig_tail in ("sparse", "dense"):
        sig[1:] = _words(rng, w - 1, sig_tail)
    table = SignatureTable(rows, column_first=column_first)

    cost, cand = table.scan(sig)

    assert cost == reference_scan_cost(table, sig)
    assert type(cost.gld_transactions) is int
    assert all(type(c) is int for c in cost.warp_task_cycles)
    assert cand.dtype == np.int64
    assert np.array_equal(cand, np.flatnonzero(candidate_mask(rows, sig)))
