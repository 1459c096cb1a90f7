"""Tests for incremental index maintenance (signature table + PCSR)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import encode_all, encode_vertex
from repro.core.signature_table import SignatureTable
from repro.dynamic import (
    DynamicGraph,
    DynamicIndex,
    DynamicPCSRStorage,
    full_rebuild_transactions,
    random_update_stream,
)
from repro.dynamic.index import DynamicSignatureTable
from repro.errors import StorageError
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import GraphBuilder, LabeledGraph
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label
from repro.storage.pcsr import PCSRPartition, default_hash

from oracle import pcsr_probe, store_digest


def star_partition(num_leaves, gpn=16):
    edges = [(0, v, 0) for v in range(1, num_leaves + 1)]
    g = LabeledGraph([0] * (num_leaves + 1), edges)
    return PCSRPartition(partition_by_edge_label(g)[0], gpn=gpn)


def entries(pairs):
    """Directed ``(key, neighbor)`` pairs as an ``apply_bulk`` array."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


NONE = entries([])


def both_ways(edges):
    """Undirected ``(u, v)`` edges as entries in both orientations."""
    return entries([e for u, v in edges for e in ((u, v), (v, u))])


def commit_into(store, graph, inserted=(), deleted=()):
    """Commit ``(u, v, label)`` changes to ``graph`` and apply them to
    ``store``; returns the committed snapshot."""
    snapshot, _ = graph.apply_changes(inserted, deleted)
    store.apply_batch(snapshot, inserted, deleted)
    return snapshot


class TestPCSRIncrementalOps:
    def test_new_key_takes_a_free_slot(self):
        p = star_partition(3)
        assert p.apply_bulk(entries([(99, 0)]), NONE)
        assert list(p.neighbors(99)) == [0]
        assert p.key_count() == 5
        assert p.validate() == []

    def test_merged_neighbors_stay_sorted(self):
        p = star_partition(4)
        assert p.apply_bulk(entries([(0, 99), (0, 50)]), NONE)
        assert list(p.neighbors(0)) == [1, 2, 3, 4, 50, 99]
        assert p.validate() == []

    def test_delete_one_neighbor(self):
        p = star_partition(4)
        assert p.apply_bulk(NONE, entries([(0, 2)]))
        assert list(p.neighbors(0)) == [1, 3, 4]
        assert p.validate() == []

    def test_remove_last_neighbor_leaves_empty_key(self):
        p = star_partition(2)
        assert p.apply_bulk(NONE, entries([(1, 0)]))
        assert list(p.neighbors(1)) == []
        assert p.key_count() == 3  # key slot survives with empty extent
        assert p.validate() == []

    def test_remove_missing_neighbor_raises(self):
        p = star_partition(2)
        with pytest.raises(StorageError):
            p.apply_bulk(NONE, entries([(1, 99)]))

    def test_items_round_trip(self):
        p = star_partition(5)
        items = dict(p.items())
        assert sorted(items) == list(range(6))
        assert list(items[0]) == [1, 2, 3, 4, 5]

    def test_chain_extension_through_empty_pool(self):
        # GPN=3: two keys per group.  New keys sharing one home group
        # fill it, then must chain through empty groups, exactly like
        # Algorithm 1.
        g = scale_free_graph(60, 3, 1, 1, seed=3)
        p = PCSRPartition(partition_by_edge_label(g)[0], gpn=3)
        pool = set(p._empty_pool)
        home = default_hash(1000, p.num_groups)
        same_home = [v for v in range(1000, 20000)
                     if default_hash(v, p.num_groups) == home][:4]
        assert p.apply_bulk(entries([(v, 0) for v in same_home]), NONE)
        chain = [home]
        while p.groups[chain[-1], p.gpn - 1, 0] != -1:
            chain.append(int(p.groups[chain[-1], p.gpn - 1, 0]))
        assert len(chain) > 1 and set(chain[1:]) <= pool
        assert p.validate() == []
        for v in same_home:
            assert list(p.neighbors(v)) == [0]

    def test_starvation_returns_false(self):
        # A single-group partition (one vertex pair) has no empty pool.
        g = LabeledGraph([0, 0], [(0, 1, 0)])
        p = PCSRPartition(partition_by_edge_label(g)[0], gpn=2)
        assert p._empty_pool == set()
        got_false = False
        for v in range(2, 10):
            if not p.apply_bulk(entries([(v, 0)]), NONE):
                got_false = True
                break
        assert got_false
        assert p.validate() == []

    def test_probe_transactions_counts_actual_miss_reads(self):
        # A probe (gather's ``locate``) pays for every group actually
        # read, misses included: one read when the home group ends the
        # chain, more when it must walk one.
        p = star_partition(3)
        got = p.gather(np.array([0, 123456]))
        assert got.locate.tolist() == [pcsr_probe(p, 0)[0],
                                       pcsr_probe(p, 123456)[0]]
        assert got.locate.min() >= 1
        assert got.lens.tolist() == [3, 0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)),
                         max_size=24),
                min_size=1, max_size=6),
       st.integers(2, 16))
def test_property_bulk_batches_keep_validate_clean(batches, gpn):
    """Acceptance: after every batch of random inserts and deletes,
    validate() reports nothing and the adjacency equals the edge set.
    Each pair toggles its edge; on Claim-1 starvation the partition is
    rebuilt from its items plus the batch, as the dynamic storage
    layer rebuilds from the committed snapshot."""
    g = LabeledGraph([0] * 81, [(0, 1, 0)])
    p = PCSRPartition(partition_by_edge_label(g)[0], gpn=gpn)
    edges = {(0, 1)}
    for batch in batches:
        adds, dels = set(), set()
        for a, b in batch:
            e = (min(a, b), max(a, b))
            if a == b or e in adds or e in dels:
                continue
            (dels if e in edges else adds).add(e)
        edges = (edges - dels) | adds
        if not p.apply_bulk(both_ways(sorted(adds)),
                            both_ways(sorted(dels))):
            adj = {v: set(arr.tolist()) for v, arr in p.items()}
            for u, v in dels:
                adj[u].discard(v)
                adj[v].discard(u)
            for u, v in adds:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            p = PCSRPartition(EdgeLabelPartition(0, {
                v: np.array(sorted(ws), dtype=np.int64)
                for v, ws in adj.items()}), gpn=gpn)
        assert p.validate() == [], batch
        want = {}
        for u, v in edges:
            want.setdefault(u, []).append(v)
            want.setdefault(v, []).append(u)
        got = {v: arr.tolist() for v, arr in p.items() if len(arr)}
        assert got == {v: sorted(ws) for v, ws in want.items()}


class TestDynamicPCSRStorage:
    def test_new_label_partition_then_delete(self):
        g = scale_free_graph(60, 3, 3, 3, seed=2)
        store = DynamicPCSRStorage(g)
        g = commit_into(store, g, inserted=[(0, 59, 99)])  # new label
        assert list(store.neighbors(0, 99)) == [59]
        commit_into(store, g, deleted=[(0, 59, 99)])
        assert list(store.neighbors(0, 99)) == []
        assert store.validate() == {}

    def test_delete_unknown_label_raises(self):
        g = scale_free_graph(20, 2, 2, 2, seed=1)
        store = DynamicPCSRStorage(g)
        with pytest.raises(StorageError, match="no partition"):
            store.apply_batch(g, [], [(0, 1, 12345)])

    def test_unknown_label_delete_rejected_before_any_write(self):
        g = scale_free_graph(20, 2, 2, 2, seed=1)
        store = DynamicPCSRStorage(g)
        assert list(store.neighbors(0, 0)) == [2, 4]
        with pytest.raises(StorageError, match="no partition"):
            store.apply_batch(g, [], [(0, 2, 0), (0, 1, 12345)])
        assert list(store.neighbors(0, 0)) == [2, 4]
        assert store.incremental_ops == 0

    def test_bad_delete_on_a_later_label_rejected_before_any_write(self):
        g = scale_free_graph(20, 2, 2, 2, seed=1)
        store = DynamicPCSRStorage(g)
        digests, meter = store_digest(store), store.meter.snapshot()
        with pytest.raises(StorageError, match="1 is not a neighbor of 0"):
            store.apply_batch(g, [], [(0, 2, 0), (0, 1, 1)])
        assert list(store.neighbors(0, 0)) == [2, 4]
        assert store.incremental_ops == 0
        assert store_digest(store) == digests
        assert store.meter.snapshot() == meter

    def test_bad_delete_rejected_before_any_build_or_rebuild(self):
        b = GraphBuilder()
        b.add_vertices([0] * 40)
        b.add_edge(0, 1, 0)
        b.add_edge(2, 3, 1)
        b.add_edge(3, 4, 1)
        g = b.build()
        store = DynamicPCSRStorage(g)
        digests, meter = store_digest(store), store.meter.snapshot()
        # Label 0 would rebuild (2 keys / 2 groups gaining 4 more), and
        # label 7 would be built; the bad delete on label 1 stops both.
        with pytest.raises(StorageError, match="4 is not a neighbor of 2"):
            store.apply_batch(
                g, [(0, v, 0) for v in range(4, 8)] + [(8, 9, 7)],
                [(2, 4, 1)])
        assert store.rebuilds == 0 and store.partition(7) is None
        assert store_digest(store) == digests
        assert store.meter.snapshot() == meter

    def test_occupancy_policy_triggers_rebuild(self):
        b = GraphBuilder()
        b.add_vertices([0] * 40)
        b.add_edge(0, 1, 0)
        g = b.build()
        store = DynamicPCSRStorage(g)
        # The label-0 partition starts with 2 keys / 2 groups; adding
        # keys beyond 1.5 per group must rebuild rather than chain
        # forever.
        for v in range(2, 12):
            g = commit_into(store, g, inserted=[(0, v, 0)])
        assert store.rebuilds >= 1
        part = store.partition(0)
        assert part.occupancy() <= 1.5
        assert part.validate() == []
        assert sorted(int(x) for x in store.neighbors(0, 0)) \
            == list(range(1, 12))

    def test_matches_rebuilt_storage_after_stream(self):
        base = scale_free_graph(80, 3, 3, 4, seed=3)
        dyn = DynamicGraph(base)
        store = DynamicPCSRStorage(base)
        for delta in random_update_stream(base, 4, 20, seed=4):
            dyn.apply(delta)
            commit = dyn.commit()
            store.apply_batch(commit.snapshot, commit.inserted_edges,
                              commit.deleted_edges)
        final = dyn.base
        assert store.validate() == {}
        for v in range(final.num_vertices):
            for lab in final.distinct_edge_labels():
                assert list(store.neighbors(v, lab)) == \
                    list(final.neighbors_by_label(v, lab))


class TestDynamicIndex:
    def test_signature_rows_match_full_encode(self):
        base = scale_free_graph(50, 3, 3, 3, seed=6)
        dyn = DynamicGraph(base)
        index = DynamicIndex(base, signature_bits=256)
        for delta in random_update_stream(base, 3, 12, seed=7):
            dyn.apply(delta)
            index.apply_commit(dyn.commit())
        final = dyn.base
        expected = encode_all(final, 256)
        assert np.array_equal(index.signature_table.table, expected)
        assert index.signature_table.num_vertices == final.num_vertices

    def test_maintenance_is_metered(self):
        base = scale_free_graph(50, 3, 3, 3, seed=6)
        dyn = DynamicGraph(base)
        index = DynamicIndex(base)
        dyn.apply(random_update_stream(base, 1, 10, seed=1)[0])
        index.apply_commit(dyn.commit())
        snap = index.meter.snapshot()
        assert snap.gld > 0 and snap.gst > 0

    def test_full_rebuild_estimate_scales_with_graph(self):
        small = scale_free_graph(50, 3, 3, 3, seed=1)
        large = scale_free_graph(500, 3, 3, 3, seed=1)
        assert full_rebuild_transactions(large) \
            > 5 * full_rebuild_transactions(small)


class TestSignatureMaintenanceCost:
    """One bulk re-encode charges exactly what the per-row loop did:
    per touched row, one adjacency stream (at least one transaction)
    and one row write."""

    @pytest.mark.parametrize("column_first", [True, False])
    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_charges_equal_per_row_sums(self, column_first, bits):
        base = scale_free_graph(60, 3, 3, 3, seed=4)
        dyn = DynamicGraph(base)
        table = SignatureTable.build(base, bits, column_first=column_first)
        meter = MemoryMeter()
        sigs = DynamicSignatureTable(table, bits, meter=meter)
        for delta in random_update_stream(base, 3, 12, seed=5,
                                          new_vertex_fraction=0.2):
            dyn.apply(delta)
            commit = dyn.commit()
            touched = list(commit.touched_vertices) + \
                list(commit.touched_vertices)[:3]  # repeats count once
            rows = sorted(set(touched))
            before = meter.snapshot()
            assert sigs.apply(commit.snapshot, touched) == len(rows)
            spent = meter.snapshot().diff(before)
            want_gld = sum(
                max(1, contiguous_read(commit.snapshot.degree(v)))
                for v in rows)
            assert spent.gld == want_gld
            assert spent.labeled_gld.get("sig_maintain", 0) == want_gld
            assert spent.gst == len(rows) * sigs.row_transactions()
            for v in rows:
                assert np.array_equal(
                    table.table[v],
                    encode_vertex(commit.snapshot, v, bits))

    def test_no_touched_rows_charge_nothing(self):
        base = scale_free_graph(30, 3, 3, 3, seed=1)
        meter = MemoryMeter()
        sigs = DynamicSignatureTable(SignatureTable.build(base, 256), 256,
                                     meter=meter)
        assert sigs.apply(base, []) == 0
        assert meter.snapshot() == MemoryMeter().snapshot()
