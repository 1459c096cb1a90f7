"""Differential tests for the StreamEngine (continuous queries).

The acceptance anchor: for randomized update streams of inserts and
deletes, the delta match results composed over batches must equal the
brute-force oracle on every committed snapshot — and, at the end of the
stream, a cold GSI engine over each storage backend must agree with the
composed sets.
"""

import gc
import weakref

import pytest

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.dynamic import GraphDelta, StreamEngine, random_update_stream
from repro.errors import BudgetExceeded, GraphError
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import GraphBuilder, LabeledGraph
from repro.storage.factory import build_storage, storage_kinds

from oracle import brute_force_matches


def run_stream(graph_seed, stream_seed, batches=5, batch_size=10,
               query_sizes=(2, 3, 4)):
    graph = scale_free_graph(50, 3, 3, 3, seed=graph_seed)
    engine = StreamEngine(graph)
    queries = [random_walk_query(graph, k, seed=stream_seed + i)
               for i, k in enumerate(query_sizes)]
    qids = [engine.register(q) for q in queries]
    stream = random_update_stream(graph, batches, batch_size,
                                  seed=stream_seed)
    for delta in stream:
        engine.apply_batch(delta)
        snapshot = engine.graph
        for qid, q in zip(qids, queries):
            assert engine.matches(qid) == brute_force_matches(q, snapshot)
    return engine, queries, qids


class TestDifferentialStream:
    @pytest.mark.parametrize("graph_seed,stream_seed", [
        (1, 0), (2, 3), (5, 1), (9, 4),
    ])
    def test_composed_deltas_equal_oracle_every_batch(self, graph_seed,
                                                      stream_seed):
        run_stream(graph_seed, stream_seed)

    def test_final_snapshot_agrees_across_storage_backends(self):
        engine, queries, qids = run_stream(3, 2, batches=4,
                                           batch_size=12)
        final = engine.graph
        for kind in storage_kinds():
            cold = GSIEngine(final, store=build_storage(kind, final))
            for qid, q in zip(qids, queries):
                assert cold.match(q).match_set() == engine.matches(qid), \
                    f"storage backend {kind} disagrees with the stream"

    def test_delete_heavy_stream(self):
        graph = scale_free_graph(40, 3, 2, 2, seed=7)
        engine = StreamEngine(graph)
        q = random_walk_query(graph, 3, seed=1)
        qid = engine.register(q)
        stream = random_update_stream(graph, 4, 15, seed=8,
                                      delete_fraction=0.7)
        for delta in stream:
            engine.apply_batch(delta)
            assert engine.matches(qid) == \
                brute_force_matches(q, engine.graph)

    def test_maintained_artifacts_serve_adhoc_queries(self):
        engine, _, _ = run_stream(4, 5, batches=3, batch_size=10)
        q = random_walk_query(engine.graph, 4, seed=11)
        assert engine.match(q).match_set() == \
            brute_force_matches(q, engine.graph)
        assert engine.index.storage.validate() == {}


class TestDeltaSemantics:
    def triangle(self):
        b = GraphBuilder()
        u = b.add_vertices([0, 0, 0])
        b.add_edge(u[0], u[1], 0)
        b.add_edge(u[1], u[2], 0)
        b.add_edge(u[0], u[2], 0)
        return b.build()

    def test_created_and_destroyed_are_disjoint_and_exact(self):
        b = GraphBuilder()
        b.add_vertices([0, 0, 0, 0])
        b.add_edge(0, 1, 0)
        b.add_edge(1, 2, 0)
        graph = b.build()
        engine = StreamEngine(graph)
        qid = engine.register(self.triangle())
        assert engine.matches(qid) == set()

        report = engine.apply_batch(
            GraphDelta.for_graph(4).add_edge(0, 2, 0))
        delta = report.query_deltas[qid]
        assert len(delta.created) == 6  # one triangle, 6 embeddings
        assert delta.destroyed == set()
        assert delta.num_matches == 6

        report = engine.apply_batch(
            GraphDelta.for_graph(4).remove_edge(1, 2))
        delta = report.query_deltas[qid]
        assert delta.created == set()
        assert len(delta.destroyed) == 6
        assert engine.matches(qid) == set()

    def test_single_vertex_query_tracks_new_vertices(self):
        graph = LabeledGraph([0, 1], [(0, 1, 0)])
        engine = StreamEngine(graph)
        q = LabeledGraph([1], [])
        qid = engine.register(q)
        assert engine.matches(qid) == {(1,)}
        d = GraphDelta.for_graph(2)
        v = d.add_vertex(1)
        d.add_edge(v, 0, 0)
        report = engine.apply_batch(d)
        assert report.query_deltas[qid].created == {(v,)}
        assert engine.matches(qid) == {(1,), (v,)}

    def test_batch_report_counters(self):
        graph = scale_free_graph(30, 3, 2, 2, seed=2)
        engine = StreamEngine(graph)
        engine.register(random_walk_query(graph, 3, seed=0))
        d = random_update_stream(graph, 1, 8, seed=3)[0]
        report = engine.apply_batch(d)
        assert report.batch_index == 0
        assert report.num_inserted + report.num_deleted > 0
        assert report.maintenance.gst > 0
        assert report.wall_ms > 0
        assert "batch 0" in report.summary_line()
        assert engine.batches_applied == 1

    def test_unregister_stops_tracking(self):
        graph = scale_free_graph(30, 3, 2, 2, seed=2)
        engine = StreamEngine(graph)
        qid = engine.register(random_walk_query(graph, 3, seed=0))
        engine.unregister(qid)
        assert engine.num_registered == 0
        report = engine.apply_batch(
            random_update_stream(graph, 1, 4, seed=1)[0])
        assert report.query_deltas == {}

    def test_requires_pcsr_config(self):
        graph = scale_free_graph(20, 2, 2, 2, seed=1)
        with pytest.raises(GraphError):
            StreamEngine(graph, GSIConfig.baseline())


class TestQueryIdLifecycle:
    """Regression: a query id retired by ``unregister`` must never be
    reused, and reads through a stale id must raise, not silently serve
    another query's match set."""

    def make_engine(self):
        graph = scale_free_graph(30, 3, 2, 2, seed=2)
        return graph, StreamEngine(graph)

    def test_ids_monotonic_and_never_reused(self):
        graph, engine = self.make_engine()
        q1 = random_walk_query(graph, 3, seed=0)
        q2 = random_walk_query(graph, 3, seed=1)
        first = engine.register(q1)
        engine.unregister(first)
        second = engine.register(q2)
        assert second > first, "retired ids must never come back"
        third = engine.register(q1)
        assert third > second

    def test_stale_id_reads_raise(self):
        graph, engine = self.make_engine()
        qid = engine.register(random_walk_query(graph, 3, seed=0))
        engine.unregister(qid)
        # Even after new registrations and batches, the stale id raises.
        engine.register(random_walk_query(graph, 3, seed=1))
        engine.apply_batch(random_update_stream(graph, 1, 4, seed=1)[0])
        with pytest.raises(KeyError):
            engine.matches(qid)
        with pytest.raises(KeyError):
            engine.initial_result(qid)

    def test_unregister_unknown_id_raises(self):
        _, engine = self.make_engine()
        with pytest.raises(KeyError):
            engine.unregister(0)

    def test_double_unregister_raises(self):
        graph, engine = self.make_engine()
        qid = engine.register(random_walk_query(graph, 3, seed=0))
        engine.unregister(qid)
        with pytest.raises(KeyError):
            engine.unregister(qid)

    def test_never_issued_id_raises(self):
        _, engine = self.make_engine()
        with pytest.raises(KeyError):
            engine.matches(99)


class TestRegisterBudget:
    """Regression: a seeding match that exhausts the configured budget
    returns ``timed_out`` with no matches; registering that as the live
    set would make every later delta build on a wrong base."""

    @pytest.mark.parametrize("config,query_seed", [
        (GSIConfig(budget_ms=0.05), 0),
        (GSIConfig(max_intermediate_rows=1000), 2),
    ])
    def test_budget_aborted_register_raises_and_registers_nothing(
            self, config, query_seed):
        graph = scale_free_graph(400, 4, 3, 2, seed=1)
        query = random_walk_query(graph, 4, seed=query_seed)
        assert len(GSIEngine(graph).match(query).matches) > 1000
        engine = StreamEngine(graph, config)
        assert engine.match(query).timed_out
        with pytest.raises(BudgetExceeded):
            engine.register(query)
        assert engine.num_registered == 0
        # No id was allocated: the next registration gets the first one.
        missing = LabeledGraph([99], [])  # no candidates, no budget spent
        assert engine.register(missing) == 0
        report = engine.apply_batch(
            random_update_stream(graph, 1, 8, seed=3)[0])
        assert list(report.query_deltas) == [0]


def rebuilt_index(matches):
    index = {}
    for m in matches:
        for v in m:
            index.setdefault(v, set()).add(m)
    return index


class TestLiveSetIndex:
    """Each registered query indexes its live matches by data vertex;
    destroyed matches are found through that index."""

    def test_index_equals_rebuild_after_churn_and_unregister(self):
        graph = scale_free_graph(50, 3, 2, 2, seed=4)
        engine = StreamEngine(graph)
        queries = [random_walk_query(graph, k, seed=s)
                   for k, s in ((2, 1), (3, 2), (3, 3), (4, 4))]
        qids = [engine.register(q) for q in queries]
        stream = random_update_stream(graph, 8, 14, seed=6,
                                      delete_fraction=0.5)
        destroyed = 0
        for i, delta in enumerate(stream):
            if i == 4:
                engine.unregister(qids[1])
            report = engine.apply_batch(delta)
            destroyed += report.total_destroyed
        assert destroyed > 0
        assert sorted(engine._registered) == [qids[0]] + qids[2:]
        for qid, q in zip(qids, queries):
            if qid == qids[1]:
                continue
            reg = engine._registered[qid]
            assert reg.matches == brute_force_matches(q, engine.graph)
            assert reg.by_vertex == rebuilt_index(reg.matches)
            assert all(reg.by_vertex.values())  # no empty buckets

    def test_match_on_both_endpoints_survives_non_query_edge_delete(self):
        # Path a-b-c embedded on a data triangle: deleting the image of
        # the non-edge a-c leaves every path embedding intact, though
        # each holds both endpoints of the deleted pair.
        b = GraphBuilder()
        b.add_vertices([0, 0, 0])
        b.add_edge(0, 1, 0)
        b.add_edge(1, 2, 0)
        b.add_edge(0, 2, 0)
        engine = StreamEngine(b.build())
        path = LabeledGraph([0, 0, 0], [(0, 1, 0), (1, 2, 0)])
        qid = engine.register(path)
        assert len(engine.matches(qid)) == 6
        report = engine.apply_batch(
            GraphDelta.for_graph(3).remove_edge(0, 2))
        destroyed = report.query_deltas[qid].destroyed
        # Only embeddings using 0-2 as a path edge die; (0, 1, 2) and
        # (2, 1, 0) map the query's non-edge a-c onto it and survive.
        assert destroyed == {(1, 0, 2), (2, 0, 1), (0, 2, 1), (1, 2, 0)}
        assert engine.matches(qid) == {(0, 1, 2), (2, 1, 0)}
        assert engine.matches(qid) == brute_force_matches(path,
                                                          engine.graph)


class TestPlanInvalidation:
    def test_shifted_labels_invalidate_cached_plans(self):
        graph = scale_free_graph(40, 3, 3, 3, seed=5)
        engine = StreamEngine(graph)
        q = random_walk_query(graph, 4, seed=2)
        engine.register(q)  # caches the plan for q's shape
        assert len(engine.plan_cache) == 1
        lab = int(next(iter(q.edges()))[2])
        # Insert an edge with one of q's labels: its frequency shifts.
        u, v = 0, graph.num_vertices - 1
        d = GraphDelta.for_graph(graph)
        if graph.has_edge(u, v):
            d.remove_edge(u, v)
        else:
            d.add_edge(u, v, lab)
        report = engine.apply_batch(d)
        assert report.plans_invalidated >= 1
        assert lab in report.labels_shifted or report.labels_shifted

    def test_untouched_labels_keep_plans(self):
        b = GraphBuilder()
        b.add_vertices([0, 0, 0, 1, 1])
        b.add_edge(0, 1, 0)
        b.add_edge(1, 2, 0)
        b.add_edge(3, 4, 5)
        graph = b.build()
        engine = StreamEngine(graph)
        q = LabeledGraph([0, 0], [(0, 1, 0)])  # only uses label 0
        engine.register(q)
        assert len(engine.plan_cache) == 1
        # Shift only label 5's frequency.
        report = engine.apply_batch(
            GraphDelta.for_graph(5).add_edge(2, 3, 5))
        assert report.labels_shifted == (5,)
        assert report.plans_invalidated == 0
        assert len(engine.plan_cache) == 1


class TestSharedBatchSeed:
    """The per-batch candidate seed (touched vertices, label-grouped
    inserted edges, dead pairs, seed signature rows) is computed once
    per batch and shared across registered queries — seeding
    transactions must not scale with the number of queries."""

    def seed_tx(self, num_queries, num_copies_of_each=1):
        graph = scale_free_graph(40, 3, 3, 3, seed=2)
        engine = StreamEngine(graph)
        for i in range(num_queries):
            for _ in range(num_copies_of_each):
                engine.register(random_walk_query(graph, 3, seed=i))
        for delta in random_update_stream(graph, 3, 10, seed=4):
            engine.apply_batch(delta)
        return engine.index.meter.labeled_gld("delta_seed")

    def test_seed_transactions_independent_of_query_count(self):
        one = self.seed_tx(1)
        four = self.seed_tx(4)
        assert one > 0
        # Before the fix each query re-read the seed rows, costing ~4x
        # here; the shared seed pins the cost to once per batch.
        assert four == one

    def test_seed_rows_cover_inserted_endpoints_only(self):
        graph = scale_free_graph(30, 3, 3, 3, seed=1)
        engine = StreamEngine(graph)
        u, v, lab = next(iter(graph.edges()))
        qid = engine.register(LabeledGraph(
            [graph.vertex_label(u), graph.vertex_label(v)], [(0, 1, lab)]))
        report = engine.apply_batch(
            GraphDelta.for_graph(graph).remove_edge(u, v))
        # Delete-only batch: nothing to seed, nothing to read.
        assert engine.index.meter.labeled_gld("delta_seed") == 0
        assert report.num_deleted == 1
        assert report.query_deltas[qid].created == set()
        # Re-inserting the edge reads its two endpoint rows, once.
        report = engine.apply_batch(
            GraphDelta.for_graph(engine.graph).add_edge(u, v, lab))
        assert engine.index.meter.labeled_gld("delta_seed") == \
            2 * engine.index.signatures.row_transactions()
        created = report.query_deltas[qid].created
        assert (u, v) in created and created <= {(u, v), (v, u)}

    def test_shared_seed_results_match_oracle(self):
        # Sharing must not change results: several queries with
        # overlapping labels over the same stream, checked per batch.
        graph = scale_free_graph(35, 3, 2, 2, seed=6)
        engine = StreamEngine(graph)
        queries = [random_walk_query(graph, k, seed=s)
                   for k, s in ((2, 0), (3, 0), (3, 1), (4, 2))]
        qids = [engine.register(q) for q in queries]
        for delta in random_update_stream(graph, 4, 12, seed=9):
            engine.apply_batch(delta)
            for qid, q in zip(qids, queries):
                assert engine.matches(qid) == \
                    brute_force_matches(q, engine.graph)

    def test_replaced_snapshots_free_without_the_cycle_collector(self):
        # Delta matching must build no reference cycle (such as a
        # recursive closure) that keeps a batch's snapshot alive after
        # the next batch replaces it.
        graph = scale_free_graph(40, 3, 2, 2, seed=6)
        engine = StreamEngine(graph)
        for s, k in enumerate((2, 3, 3, 4)):
            engine.register(random_walk_query(graph, k, seed=s))
        deltas = list(random_update_stream(graph, 5, 12, seed=4))
        engine.apply_batch(deltas[0])
        created = 0
        gc.disable()
        try:
            for delta in deltas[1:]:
                previous = weakref.ref(engine.graph)
                created += engine.apply_batch(delta).total_created
                assert previous() is None
        finally:
            gc.enable()
        assert created > 0


class TestIncrementalCommit:
    def test_commit_transactions_reported_and_small(self):
        graph = scale_free_graph(200, 4, 3, 3, seed=3)
        engine = StreamEngine(graph)
        report = engine.apply_batch(
            GraphDelta.for_graph(graph).add_edge(0, 199, 0))
        # One inserted edge touches two rows; the commit must cost a
        # handful of transactions, nowhere near the |E|-scale rebuild.
        assert 0 < report.commit_transactions < 20
        assert report.pcsr["total_ci_words"] > 0

    def test_empty_batch_commits_for_free(self):
        graph = scale_free_graph(30, 3, 3, 3, seed=3)
        engine = StreamEngine(graph)
        before = engine.graph
        report = engine.apply_batch(GraphDelta.for_graph(graph))
        assert report.commit_transactions == 0
        assert engine.graph is before  # snapshot reused, not rebuilt


class TestRejectedBatch:
    def test_rejected_batch_leaves_no_trace(self):
        graph = scale_free_graph(40, 3, 3, 3, seed=8)
        engine = StreamEngine(graph)
        query = random_walk_query(graph, 3, seed=1)
        qid = engine.register(query)
        before = engine.graph
        live = engine.matches(qid)
        u, v = next((a, b) for a in range(40) for b in range(a + 1, 40)
                    if not graph.has_edge(a, b))
        x, y = next((a, b) for a in range(40) for b in range(a + 1, 40)
                    if not graph.has_edge(a, b) and (a, b) != (u, v))
        # A valid insert followed by the delete of a missing edge: the
        # whole batch is rejected, including the insert before it.
        bad = GraphDelta.for_graph(graph).add_edge(u, v, 0).remove_edge(x, y)
        with pytest.raises(GraphError):
            engine.apply_batch(bad)
        assert engine.graph is before
        assert engine.matches(qid) == live
        assert engine.batches_applied == 0
        assert engine.dynamic.pending_ops == 0
        assert not engine.dynamic.has_edge(u, v)

        report = engine.apply_batch(GraphDelta.for_graph(graph))
        assert (report.num_inserted, report.num_deleted,
                report.num_new_vertices) == (0, 0, 0)
        assert report.total_created == report.total_destroyed == 0
        assert engine.graph is before
        assert engine.matches(qid) == brute_force_matches(query, before)
