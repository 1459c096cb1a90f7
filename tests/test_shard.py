"""Tests for the sharded graph subsystem (partition + halo + gather).

The load-bearing assertions are differential: across shard counts
{1, 2, 4, 8}, the scatter-gather match set must be *identical* to the
single-engine path and to the brute-force oracle — that is the
halo-containment / anchor-ownership correctness argument made
executable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import GSIEngine
from repro.errors import GraphError
from repro.gpusim.meter import MeterSnapshot, merge_shard_snapshots
from repro.graph.generators import (
    mesh_graph,
    random_walk_query,
    scale_free_graph,
)
from repro.graph.labeled_graph import GraphBuilder, path_query
from repro.obs.trace import Tracer, set_tracer
from repro.service import BatchEngine, make_executor
from repro.service import plan_cache as plan_cache_module
from repro.shard import (
    ShardedEngine,
    ShardedGraph,
    halo_hops_for_query_vertices,
    query_center,
)

from oracle import brute_force_matches, paper_query, tiny_paper_graph

SHARD_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def data_graph():
    return scale_free_graph(60, 3, 4, 4, seed=7)


@pytest.fixture(scope="module")
def queries(data_graph):
    return [random_walk_query(data_graph, k, seed=s)
            for s, k in enumerate([3, 4, 5, 4, 3])]


@pytest.fixture(scope="module")
def oracle_sets(data_graph, queries):
    return [brute_force_matches(q, data_graph) for q in queries]


# ----------------------------------------------------------------------
# Ownership: contiguous id blocks dealt in hashed order
# ----------------------------------------------------------------------


class TestPartitioners:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_total_assignment(self, data_graph, shards):
        owner = ShardedGraph(data_graph, shards, halo_hops=0).owner
        assert owner.shape == (data_graph.num_vertices,)
        assert owner.min() >= 0 and owner.max() < shards

    def test_deterministic(self, data_graph):
        a = ShardedGraph(data_graph, 4, halo_hops=0).owner
        b = ShardedGraph(data_graph, 4, halo_hops=0).owner
        assert np.array_equal(a, b)

    def test_hash_balanced(self, data_graph):
        owner = ShardedGraph(data_graph, 4, halo_hops=0).owner
        counts = np.bincount(owner, minlength=4)
        # Block-dealing guarantees near-equal counts (one block each
        # here, so within one block length of each other).
        assert counts.max() - counts.min() <= np.ceil(
            data_graph.num_vertices / 4)

    @pytest.mark.parametrize("num_vertices, shards, want", [
        (10, 3, [0, 0, 0, 0, 2, 2, 2, 2, 1, 1]),
        (7, 4, [0, 0, 2, 2, 1, 1, 3]),
        # Four blocks of ceil(12 / 5) = 3 ids run out before shard 4.
        (12, 5, [0, 0, 0, 2, 2, 2, 1, 1, 1, 3, 3, 3]),
        (6, 6, [0, 4, 2, 5, 3, 1]),
        # perfbench serve_zipf's layout: 4,000 vertices on 2 shards.
        (4000, 2, (np.arange(4000) // 2000).tolist()),
    ], ids=["10-on-3", "7-on-4", "12-on-5", "6-on-6", "4000-on-2"])
    def test_owner_map_is_pinned(self, num_vertices, shards, want):
        """The block-hash layout is part of every sharded benchmark's
        baseline (perfbench's ``serve_zipf`` included), so these
        arrays must not move."""
        g = path_query([0] * num_vertices)
        owner = ShardedGraph(g, shards, halo_hops=0).owner
        assert owner.dtype == np.int64
        assert owner.tolist() == want

    def test_non_positive_shards_rejected(self, data_graph):
        for shards in (0, -1):
            with pytest.raises(ValueError, match="num_shards"):
                ShardedGraph(data_graph, shards)


# ----------------------------------------------------------------------
# ShardedGraph: halo construction + validation
# ----------------------------------------------------------------------


class TestShardedGraph:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_structurally_valid(self, data_graph, shards):
        sg = ShardedGraph(data_graph, shards, halo_hops=2)
        assert sg.validate() == {}

    def test_ownership_partitions_vertices(self, data_graph):
        sg = ShardedGraph(data_graph, 4, halo_hops=1)
        owned = np.concatenate([
            s.local_to_global[s.owned_mask] for s in sg.shards])
        assert sorted(owned.tolist()) == list(
            range(data_graph.num_vertices))

    def test_halo_contains_h_hop_ball(self, data_graph):
        h = 2
        sg = ShardedGraph(data_graph, 4, halo_hops=h)
        for shard in sg.shards:
            members = set(int(v) for v in shard.local_to_global)
            frontier = set(
                int(v) for v in shard.local_to_global[shard.owned_mask])
            ball = set(frontier)
            for _ in range(h):
                nxt = set()
                for v in frontier:
                    nxt.update(int(w) for w in data_graph.neighbors(v))
                frontier = nxt - ball
                ball |= nxt
            assert ball <= members

    def test_shard_subgraph_is_induced(self, data_graph):
        sg = ShardedGraph(data_graph, 4, halo_hops=1)
        for shard in sg.shards:
            l2g = shard.local_to_global
            members = set(int(v) for v in l2g)
            # Every G-edge between two members appears in the shard.
            expect = sum(
                1 for u, v, _lab in data_graph.edges()
                if u in members and v in members)
            assert shard.graph.num_edges == expect

    def test_one_shard_is_whole_graph(self, data_graph):
        sg = ShardedGraph(data_graph, 1, halo_hops=3)
        shard = sg.shards[0]
        assert shard.num_owned == data_graph.num_vertices
        assert shard.num_halo == 0
        assert shard.graph.num_edges == data_graph.num_edges
        assert sg.info().vertex_replication == pytest.approx(1.0)

    def test_more_shards_than_vertices(self):
        g = path_query([0, 1, 0])
        sg = ShardedGraph(g, 8, halo_hops=1)
        assert sg.validate() == {}
        # Every vertex still owned exactly once; extra shards are empty.
        assert sum(s.num_owned for s in sg.shards) == 3

    def test_invalid_arguments(self, data_graph):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedGraph(data_graph, 0)
        with pytest.raises(ValueError, match="halo_hops"):
            ShardedGraph(data_graph, 2, halo_hops=-1)
        for kind in ("metis", "label"):
            with pytest.raises(ValueError, match="unknown partitioner"):
                ShardedGraph(data_graph, 2, partitioner=kind)

    def test_halo_bound_helper(self):
        assert halo_hops_for_query_vertices(1) == 1
        assert halo_hops_for_query_vertices(2) == 1
        assert halo_hops_for_query_vertices(12) == 6
        with pytest.raises(ValueError):
            halo_hops_for_query_vertices(0)


# ----------------------------------------------------------------------
# Query center / radius
# ----------------------------------------------------------------------


class TestQueryCenter:
    def test_path_center(self):
        anchor, radius = query_center(path_query([0, 1, 2, 3, 4]))
        assert anchor == 2
        assert radius == 2

    def test_single_vertex(self):
        g = path_query([5])
        assert query_center(g) == (0, 0)

    def test_triangle(self):
        anchor, radius = query_center(paper_query())
        assert anchor == 0
        assert radius == 1

    def test_disconnected_rejected(self):
        b = GraphBuilder()
        b.add_vertices([0, 0, 0, 0])
        b.add_edge(0, 1, 0)
        b.add_edge(2, 3, 0)
        with pytest.raises(GraphError, match="connected"):
            query_center(b.build())


# ----------------------------------------------------------------------
# Differential: sharded vs single engine vs oracle
# ----------------------------------------------------------------------


class TestShardedMatching:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_identical_to_oracle_and_single_engine(
            self, data_graph, queries, oracle_sets, shards):
        single = GSIEngine(data_graph)
        sg = ShardedGraph(data_graph, shards, halo_hops=3)
        engine = ShardedEngine(sg)
        report = engine.run_batch(queries)
        assert report.errors == 0
        for item, query, want in zip(report.items, queries, oracle_sets):
            merged = item.result
            assert set(merged.matches) == want
            assert len(merged.matches) == len(want)  # no duplicates
            assert merged.match_set() == single.match(query).match_set()

    def test_paper_example(self):
        g = tiny_paper_graph()
        q = paper_query()
        want = brute_force_matches(q, g)
        for shards in (2, 3):
            engine = ShardedEngine(
                ShardedGraph(g, shards, halo_hops=1))
            assert engine.match(q).match_set() == want

    def test_boundary_spanning_matches_dedup(self):
        """Matches crossing shard ownership appear exactly once.

        A 6-vertex path on 6 shards gives every vertex its own shard
        (owners ``[0, 4, 2, 5, 3, 1]``), so every edge match crosses
        the boundary; the halo replicates it on both sides and
        ownership dedup must keep exactly one copy.
        """
        g = path_query([0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1])
        q = path_query([0, 0], [1])
        want = brute_force_matches(q, g)
        sg = ShardedGraph(g, 6, halo_hops=1)
        assert sg.owner.tolist() == [0, 4, 2, 5, 3, 1]
        engine = ShardedEngine(sg)
        report = engine.run_batch([q])
        item = report.items[0]
        assert set(item.result.matches) == want
        assert len(item.result.matches) == len(want)
        # The halo really did replicate boundary matches: shards found
        # more raw matches than they own.
        raw = sum(s.raw_matches for s in item.per_shard)
        owned = sum(s.owned_matches for s in item.per_shard)
        assert owned == len(want)
        assert raw > owned

    def test_radius_beyond_halo_rejected(self, data_graph):
        engine = ShardedEngine(ShardedGraph(data_graph, 2, halo_hops=1))
        deep = path_query([0, 1, 0, 1, 0, 1, 0])  # radius 3
        with pytest.raises(GraphError, match="halo"):
            engine.prepare(deep)
        # run_batch isolates the failure per item instead of raising.
        report = engine.run_batch([deep])
        assert report.items[0].error is not None
        assert "halo" in report.items[0].error

    def test_executors_identical(self, data_graph, queries):
        """The process pool — its pickled engine context and lazy
        per-(epoch, shard) worker attach — must produce the serial
        executor's matches, meter snapshots, simulated times and
        transaction totals."""
        sg = ShardedGraph(data_graph, 4, halo_hops=3)
        reference = None
        for kind in ("serial", "process"):
            with make_executor(kind, 2) as executor, \
                    ShardedEngine(sg) as engine:
                report = engine.run_batch(queries, executor=executor)
                # Second batch reuses worker-side cached shard engines.
                again = engine.run_batch(queries, executor=executor)
                got = ([sorted(i.result.matches) for i in report.items],
                       report.shard_transactions,
                       [i.result.counters for i in report.items],
                       [i.result.elapsed_ms for i in report.items])
                assert got[0] == [sorted(i.result.matches)
                                  for i in again.items]
                if reference is None:
                    reference = got
                assert got == reference, kind

    def test_per_shard_work_decreases_on_mesh(self):
        """More shards => smaller shards => less work per shard."""
        g = mesh_graph(20, 20, 5, 4, seed=3)
        queries = [random_walk_query(g, k, seed=s)
                   for s, k in enumerate([3, 4, 5, 4])]
        max_tx = {}
        results = {}
        for shards in (1, 4, 8):
            engine = ShardedEngine(
                ShardedGraph(g, shards, halo_hops=2))
            report = engine.run_batch(queries)
            max_tx[shards] = report.max_shard_transactions
            results[shards] = [sorted(i.result.matches)
                               for i in report.items]
        assert results[4] == results[1]
        assert results[8] == results[1]
        assert max_tx[4] < max_tx[1]
        assert max_tx[8] < max_tx[4]

    def test_merged_counters_attribute_per_shard(self, data_graph,
                                                 queries):
        engine = ShardedEngine(ShardedGraph(data_graph, 2, halo_hops=3))
        result = engine.match(queries[0])
        labeled = result.counters.labeled_gld
        assert labeled["shard0"] + labeled["shard1"] == \
            result.counters.gld
        assert result.counters.transactions == \
            result.counters.gld + result.counters.gst

    def test_plan_cached_flag_matches_single_engine_semantics(
            self, data_graph, queries):
        """A query counts as plan-cached only when *no* shard had to
        run the planner — cross-shard plan sharing inside one query
        (shard 0 plans, shards 1+ replay) must not inflate hit flags
        the way it would under an any-shard-hit definition."""
        engine = ShardedEngine(ShardedGraph(data_graph, 2, halo_hops=3))
        first = engine.run_batch(queries)
        again = engine.run_batch(queries)
        assert first.items[0].plan_cached is False
        assert all(item.plan_cached for item in again.items)

    def test_prepare_fingerprints_each_query_once(self, monkeypatch,
                                                  data_graph, queries):
        """Every shard that plans counts its own plan-cache lookup, but
        the query is canonicalized once for all of them."""
        engine = ShardedEngine(ShardedGraph(data_graph, 2, halo_hops=3))
        canonicalized = []
        real = plan_cache_module.query_fingerprint

        def counted(query, *args, **kwargs):
            canonicalized.append(query)
            return real(query, *args, **kwargs)

        monkeypatch.setattr(plan_cache_module, "query_fingerprint", counted)
        planned = []
        for query in queries:
            before = engine.plan_cache.stats_snapshot()
            sp = engine.prepare(query)
            planned.append(sum(p.plan is not None for p in sp.per_shard))
            assert (engine.plan_cache.stats_snapshot().diff(before).lookups
                    == planned[-1])
        assert canonicalized == list(queries)
        assert max(planned) == 2

    def test_report_shape(self, data_graph, queries):
        engine = ShardedEngine(ShardedGraph(data_graph, 4, halo_hops=3))
        report = engine.run_batch(queries)
        assert report.num_queries == len(queries)
        assert len(report.shard_transactions) == 4
        assert report.info.num_shards == 4
        assert report.total_transactions == sum(
            report.shard_transactions)
        assert report.max_shard_transactions == max(
            report.shard_transactions)
        line = report.summary_line()
        assert "4 shards" in line and "replication" in line


# ----------------------------------------------------------------------
# Meter merging
# ----------------------------------------------------------------------


class TestMergeShardSnapshots:
    def test_sums_and_prefixes(self):
        a = MeterSnapshot(gld=10, gst=2, shared=1, ops=5,
                          kernel_launches=3, labeled_gld={"join": 7})
        b = MeterSnapshot(gld=4, gst=1, shared=0, ops=2,
                          kernel_launches=1, labeled_gld={"join": 2,
                                                          "filter": 2})
        merged = merge_shard_snapshots([a, b])
        assert merged.gld == 14 and merged.gst == 3
        assert merged.kernel_launches == 4
        assert merged.labeled_gld["join"] == 9
        assert merged.labeled_gld["filter"] == 2
        assert merged.labeled_gld["shard0"] == 10
        assert merged.labeled_gld["shard1"] == 4
        assert merged.labeled_gld["shard0/gst"] == 2
        assert merged.transactions == 17

    def test_empty(self):
        merged = merge_shard_snapshots([])
        assert merged.gld == 0 and merged.labeled_gld == {}


# ----------------------------------------------------------------------
# BatchEngine integration
# ----------------------------------------------------------------------


class TestBatchEngineShardedBackend:
    def test_identical_results_and_shard_report(self, data_graph,
                                                queries):
        plain = BatchEngine(data_graph)
        plain_report = plain.run_batch(queries)
        sharded = ShardedEngine(ShardedGraph(data_graph, 4, halo_hops=3))
        service = BatchEngine(sharded=sharded)
        report = service.run_batch(queries)
        assert report.shard is not None
        assert report.executor == "serial"
        storage = service.storage_stats()
        assert storage["num_shards"] == 4
        assert len(storage["per_shard"]) == 4
        for mine, theirs in zip(report.items, plain_report.items):
            assert mine.result.match_set() == theirs.result.match_set()
        # Single-query convenience path routes through the coordinator.
        assert service.match(queries[0]).match_set() == \
            plain.match(queries[0]).match_set()

    def test_sharded_rejects_engine_combo(self, data_graph):
        sharded = ShardedEngine(ShardedGraph(data_graph, 2, halo_hops=2))
        with pytest.raises(ValueError, match="not both"):
            BatchEngine(engine=GSIEngine(data_graph), sharded=sharded)
        with pytest.raises(ValueError, match="sharded backend"):
            BatchEngine(sharded=sharded).execute(object())

    def test_rejected_query_keeps_batch_bookkeeping(self, data_graph,
                                                    queries):
        """A query the sharded prepare rejects is timed, as on the
        single-engine path, and the sharded ``batch.run`` span carries
        the same ``matches`` and ``errors`` attributes."""
        b = GraphBuilder()
        b.add_vertices([0, 0])  # two vertices, no edge: disconnected
        service = BatchEngine(
            sharded=ShardedEngine(ShardedGraph(data_graph, 2,
                                               halo_hops=3)))
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            report = service.run_batch([queries[0], b.build()])
        finally:
            set_tracer(previous)
        rejected = report.items[1]
        assert "connected" in rejected.error
        assert rejected.host_ms > 0.0
        (span,) = [s for s in tracer.finished()
                   if s["name"] == "batch.run"]
        assert span["attrs"]["sharded"] is True
        assert span["attrs"]["matches"] == report.total_matches
        assert span["attrs"]["errors"] == report.errors == 1

    def test_empty_batch(self, data_graph):
        sharded = ShardedEngine(ShardedGraph(data_graph, 2, halo_hops=2))
        report = BatchEngine(sharded=sharded).run_batch([])
        assert report.num_queries == 0
        assert report.shard.num_queries == 0
