"""PCSR health stats and the dead-space-ratio compaction policy.

Covers the monitoring surface (``PCSRPartition.stats`` /
``PCSRStorage.stats`` / ``DynamicPCSRStorage.stats``), in-place
compaction correctness, the automatic trigger in the dynamic store, and
the stats' exposure: read on demand from a batch service, carried by
every stream report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import DynamicPCSRStorage, GraphDelta, StreamEngine
from repro.dynamic.index import MIN_COMPACT_DEAD_WORDS
from repro.gpusim.meter import MemoryMeter
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label
from repro.service.batch import BatchEngine
from repro.shard import ShardedEngine, ShardedGraph
from repro.storage.pcsr import (
    GroupStack,
    PCSRPartition,
    PCSRStorage,
    default_hash,
)

from oracle import brute_force_matches, scalar_chain_length


NONE = np.empty((0, 2), dtype=np.int64)


def grow(part, key, neighbor):
    """Merge one directed ``(key, neighbor)`` entry through the bulk
    path."""
    assert part.apply_bulk(np.array([[key, neighbor]], dtype=np.int64),
                           NONE)


def tiny_partition():
    adjacency = {
        0: np.array([1, 2], dtype=np.int64),
        1: np.array([0], dtype=np.int64),
        2: np.array([0], dtype=np.int64),
    }
    return PCSRPartition(EdgeLabelPartition(7, adjacency), gpn=4)


class TestPartitionStats:
    def test_stats_after_build(self):
        part = tiny_partition()
        s = part.stats()
        assert s["label"] == 7
        assert s["keys"] == 3
        assert s["ci_words"] == 4
        assert s["dead_words"] == 0
        assert s["dead_ratio"] == 0.0
        assert s["occupancy"] == pytest.approx(part.occupancy())
        assert s["max_chain_length"] == part.max_chain_length()

    def test_dead_words_appear_after_relocation(self):
        part = tiny_partition()
        # Regions are built with zero slack, so growing any list
        # relocates its group's region and orphans the old words.
        grow(part, 0, 9)
        assert part.dead_words() > 0
        assert part.dead_ratio() > 0.0
        assert part.stats()["dead_words"] == part.dead_words()


class TestKeptChainLengths:
    def test_layer_is_walked_again_only_after_a_link(self):
        # GPN=3 holds two keys per group.  Vertex 1000's home group is
        # full, so the first new key homed there extends its chain and
        # the second fills the new link.
        g = scale_free_graph(60, 3, 1, 1, seed=3)
        part = PCSRPartition(partition_by_edge_label(g)[0], gpn=3)
        stack = part._stack
        lengths = stack.chain_lengths()
        assert stack.chain_lengths() is lengths
        assert not lengths.flags.writeable
        home = default_hash(1000, part.num_groups)
        linking, filling = [v for v in range(1000, 20000)
                            if default_hash(v, part.num_groups) == home][:2]
        grow(part, linking, 0)
        linked = stack.chain_lengths()
        assert linked is not lengths
        assert part.max_chain_length() == int(lengths[0]) + 1
        assert part.max_chain_length() == scalar_chain_length(part)
        grow(part, filling, 0)
        assert stack.chain_lengths() is linked

    def test_only_a_linked_label_is_walked(self, monkeypatch):
        """Algorithm 1 records each label's longest chain, so neither a
        store's first ``stats()`` nor a rebuild walks any label; a
        chain link drops only its own label's length."""
        walked = []
        walk = GroupStack._walk_chains

        def counted(stack, positions):
            walked.append(stack.labels[positions].tolist())
            return walk(stack, positions)

        monkeypatch.setattr(GroupStack, "_walk_chains", counted)

        def kept_lengths_exact(store):
            assert {lab: s["max_chain_length"]
                    for lab, s in store.stats()["per_label"].items()} \
                == {lab: scalar_chain_length(p)
                    for lab, p in store._parts.items()}

        graph = scale_free_graph(60, 3, 1, 3, seed=3)
        store = DynamicPCSRStorage(graph, gpn=3)
        kept_lengths_exact(store)
        assert walked == []

        # A new key whose home chain is full links a group to it.
        lab = 1
        part = store.partition(lab)
        n = graph.num_vertices
        v = next(v for v in range(n, n + 20000)
                 if part._place_new_keys([v])[1])
        key = next(part.items())[0]
        graph, _ = graph.apply_changes([(key, v, lab)], (),
                                       [0] * (v + 1 - n))
        store.apply_batch(graph, [(key, v, lab)], ())
        assert store.rebuilds == 0
        kept_lengths_exact(store)
        assert walked == [[lab]]

        # New keys past the occupancy bound rebuild label 2.
        n = graph.num_vertices
        fresh = store.partition(2).num_groups
        inserted = [(n + 2 * i, n + 2 * i + 1, 2) for i in range(fresh)]
        graph, _ = graph.apply_changes(inserted, (), [0] * (2 * fresh))
        rebuilds = store.rebuilds
        store.apply_batch(graph, inserted, ())
        assert store.rebuilds == rebuilds + 1
        kept_lengths_exact(store)
        assert walked == [[lab]]


class TestCompaction:
    def make_dirty(self):
        part = tiny_partition()
        for w in (5, 6, 7, 8, 9):
            grow(part, 0, w)
            grow(part, 1, w)
        assert part.dead_words() > 0
        return part

    def test_compact_preserves_content_and_zeroes_dead(self):
        part = self.make_dirty()
        before = {v: list(nbrs) for v, nbrs in part.items()}
        ci_before = part._ci_len
        dead = part.dead_words()
        reclaimed = part.compact()
        assert reclaimed >= dead
        assert part.dead_words() == 0
        assert part.dead_ratio() == 0.0
        assert part._ci_len == ci_before - reclaimed
        assert {v: list(nbrs) for v, nbrs in part.items()} == before
        assert part.validate() == []

    def test_compact_is_metered(self):
        part = self.make_dirty()
        meter = MemoryMeter()
        part.compact(meter)
        assert meter.labeled_gld("pcsr_compact") > 0
        assert meter.gst > 0

    def test_compact_on_clean_partition_is_a_noop(self):
        part = tiny_partition()
        before = {v: list(nbrs) for v, nbrs in part.items()}
        assert part.compact() == 0
        assert {v: list(nbrs) for v, nbrs in part.items()} == before
        assert part.validate() == []

    def test_lookups_survive_compaction(self):
        part = self.make_dirty()
        part.compact()
        assert sorted(part.neighbors(0).tolist()) == [1, 2, 5, 6, 7, 8, 9]
        assert sorted(part.neighbors(1).tolist()) == [0, 5, 6, 7, 8, 9]
        assert part.neighbors(99).size == 0


class TestAutoCompaction:
    def churn(self, store, graph, rng, rounds=300):
        """One-edge batches through ``apply_batch``; returns the last
        committed snapshot."""
        live = {(u, v): lab for u, v, lab in graph.edges()}
        n = graph.num_vertices
        for _ in range(rounds):
            inserted, deleted = [], []
            if live and rng.random() < 0.5:
                (u, v), lab = sorted(live.items())[
                    int(rng.integers(len(live)))]
                deleted.append((u, v, lab))
                del live[(u, v)]
            else:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                key = (min(u, v), max(u, v))
                if u == v or key in live:
                    continue
                inserted.append((key[0], key[1], 0))
                live[key] = 0
            graph, _ = graph.apply_changes(inserted, deleted)
            store.apply_batch(graph, inserted, deleted)
        return graph

    def test_trigger_fires_and_bounds_dead_ratio(self):
        graph = scale_free_graph(60, 3, 2, 1, seed=3)
        store = DynamicPCSRStorage(graph, compact_dead_ratio=0.05)
        rng = np.random.default_rng(1)
        final = self.churn(store, graph, rng)
        assert store.compactions > 0
        assert store.words_reclaimed > 0
        for part in store._parts.values():
            assert (part.dead_words() < MIN_COMPACT_DEAD_WORDS
                    or part.dead_ratio() <= store.compact_dead_ratio)
        # Content still exact after all that churn.
        for v in range(final.num_vertices):
            for lab in final.distinct_edge_labels():
                assert store.neighbors(v, lab).tolist() == \
                    final.neighbors_by_label(v, lab).tolist()
        assert store.validate() == {}

    def test_stats_carry_maintenance_counters(self):
        graph = scale_free_graph(60, 3, 2, 1, seed=3)
        store = DynamicPCSRStorage(graph, compact_dead_ratio=0.05)
        self.churn(store, graph, np.random.default_rng(1))
        s = store.stats()
        assert s["compactions"] == store.compactions
        assert s["rebuilds"] == store.rebuilds
        assert s["words_reclaimed"] == store.words_reclaimed
        assert s["incremental_ops"] > 0
        assert s["compact_dead_ratio"] == 0.05
        assert s["total_ci_words"] >= s["total_dead_words"] >= 0
        assert 0.0 <= s["dead_ratio"] < 1.0
        assert s["per_label"][0]["keys"] > 0


class TestStatsSurfaces:
    def graph(self):
        b = GraphBuilder()
        ids = b.add_vertices([0, 1, 0, 1])
        b.add_edge(ids[0], ids[1], 0)
        b.add_edge(ids[1], ids[2], 0)
        b.add_edge(ids[2], ids[3], 1)
        return b.build()

    def test_static_pcsr_storage_stats(self):
        graph = self.graph()
        store = PCSRStorage(graph)
        s = store.stats()
        assert s["kind"] == "pcsr"
        assert s["partitions"] == 2
        assert s["total_dead_words"] == 0
        assert set(s["per_label"]) == {0, 1}
        assert s["max_chain_length"] == store.max_chain_length()

    def test_stats_walks_each_chain_once(self, monkeypatch):
        store = PCSRStorage(self.graph())
        walked = []
        walk = GroupStack.chain_lengths

        def counted(stack):
            walked.append(stack.labels.tolist())
            return walk(stack)

        monkeypatch.setattr(GroupStack, "chain_lengths", counted)
        s = store.stats()
        # One walk over the stacked group layer covers both labels.
        assert walked == [[0, 1]]
        assert {lab: d["max_chain_length"]
                for lab, d in s["per_label"].items()} == {
            lab: store.partition(lab).max_chain_length() for lab in (0, 1)}

    def test_batch_engine_storage_stats(self):
        s = BatchEngine(self.graph()).storage_stats()
        assert "kind" in s  # populated for every storage kind
        if s["kind"].endswith("pcsr"):
            assert "total_dead_words" in s

    @pytest.mark.parametrize("backend",
                             ["batch", "batch-sharded", "sharded"])
    def test_run_batch_reads_no_store_stats(self, monkeypatch, backend):
        graph = scale_free_graph(60, 3, 4, 4, seed=7)
        queries = [random_walk_query(graph, k, seed=s)
                   for s, k in enumerate([3, 4, 5])]
        if backend == "batch":
            service = BatchEngine(graph)
            engines = [service.engine]
        else:
            service = ShardedEngine(ShardedGraph(graph, 2, halo_hops=3))
            engines = service.engines
            if backend == "batch-sharded":
                service = BatchEngine(sharded=service)

        def refuse():
            raise AssertionError("run_batch read store stats")

        for engine in engines:
            monkeypatch.setattr(engine.store, "stats", refuse)
        report = service.run_batch(queries)
        assert report.errors == 0
        assert [r.match_set() for r in report.results] == \
            [brute_force_matches(q, graph) for q in queries]

    def test_stream_report_carries_pcsr_health(self):
        graph = self.graph()
        engine = StreamEngine(graph)
        report = engine.apply_batch(
            GraphDelta.for_graph(graph.num_vertices).add_edge(0, 3, 1))
        assert report.pcsr["kind"] == "dynamic-pcsr"
        assert report.pcsr["compactions"] == engine.index.compactions
        assert "total_dead_words" in report.pcsr
        assert "max_occupancy" in report.pcsr
        assert report.compactions >= 0
        assert "compactions=" in report.summary_line()
