"""Tests for the batch query service (BatchEngine / BatchReport)."""

from __future__ import annotations

import pytest

from repro.bench.runner import run_workload_batched
from repro.bench.workloads import Workload
from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.service import BatchEngine, SerialExecutor, make_executor


@pytest.fixture(scope="module")
def service_graph():
    return scale_free_graph(120, 3, 4, 3, seed=17)


@pytest.fixture(scope="module")
def service_queries(service_graph):
    return [random_walk_query(service_graph, 4, seed=s) for s in range(6)]


class TestEquivalence:
    def test_batch_equals_sequential(self, service_graph, service_queries):
        engine = GSIEngine(service_graph)
        service = BatchEngine(engine=engine)
        sequential = [engine.match(q) for q in service_queries]
        report = service.run_batch(service_queries)
        assert report.num_queries == len(service_queries)
        for seq, batched in zip(sequential, report.results):
            assert seq.match_set() == batched.match_set()
            assert seq.elapsed_ms == batched.elapsed_ms
            assert seq.counters == batched.counters

    def test_worker_count_does_not_change_results(self, service_graph,
                                                  service_queries):
        r1 = BatchEngine(service_graph).run_batch(service_queries)
        with make_executor("process", 2) as executor, \
                BatchEngine(service_graph, executor=executor) as service:
            r2 = service.run_batch(service_queries)
        for a, b in zip(r1.results, r2.results):
            assert a.match_set() == b.match_set()
            assert a.elapsed_ms == b.elapsed_ms
            assert a.counters == b.counters

    def test_order_preserved(self, service_graph, service_queries):
        service = BatchEngine(service_graph)
        report = service.run_batch(service_queries)
        assert [item.index for item in report.items] == \
            list(range(len(service_queries)))


class TestReport:
    def test_empty_batch(self, service_graph):
        report = BatchEngine(service_graph).run_batch([])
        assert report.num_queries == 0
        assert report.total_matches == 0
        assert report.p50_ms == 0.0
        assert report.throughput_qps >= 0.0
        assert report.summary_line()

    def test_percentiles_ordered(self, service_graph, service_queries):
        report = BatchEngine(service_graph).run_batch(service_queries)
        assert 0.0 < report.p50_ms <= report.p90_ms <= report.p99_ms

    def test_transaction_totals(self, service_graph, service_queries):
        report = BatchEngine(service_graph).run_batch(service_queries)
        assert report.total_gld == sum(
            r.counters.gld for r in report.results)
        assert report.total_gst == sum(
            r.counters.gst for r in report.results)
        assert report.total_kernel_launches > 0
        assert report.total_simulated_ms == pytest.approx(sum(
            r.elapsed_ms for r in report.results))

    def test_repeated_batch_hits_cache(self, service_graph):
        # Different vertex counts -> provably pairwise non-isomorphic
        # (random same-size walks can collide via the fingerprint!).
        queries = [random_walk_query(service_graph, k, seed=k)
                   for k in (3, 4, 5, 6)]
        service = BatchEngine(service_graph)
        first = service.run_batch(queries)
        second = service.run_batch(queries)
        assert first.cache.hits == 0
        assert first.cache.misses == len(queries)
        assert second.cache.hits == len(queries)
        assert second.cache.hit_rate == 1.0
        assert second.plan_cache_hits == len(queries)

    def test_summary_line_mentions_cache(self, service_graph,
                                         service_queries):
        service = BatchEngine(service_graph)
        service.run_batch(service_queries)
        report = service.run_batch(service_queries)
        assert "plan cache" in report.summary_line()


class TestErrorIsolation:
    def test_bad_query_does_not_abort_batch(self, service_graph,
                                            service_queries):
        from repro.graph.labeled_graph import LabeledGraph
        empty = LabeledGraph([], [])          # GraphError in prepare
        disconnected = LabeledGraph([0, 0], [])  # PlanError in planning
        batch = [service_queries[0], empty, disconnected,
                 service_queries[1]]
        report = BatchEngine(service_graph).run_batch(batch)
        assert report.num_queries == 4
        assert report.errors == 2
        assert report.items[1].error is not None
        assert "GraphError" in report.items[1].error
        assert report.items[2].error is not None
        # Healthy queries around the failures are unaffected.
        assert report.items[0].error is None
        assert report.items[3].error is None
        assert report.items[0].result.num_matches > 0
        assert "errors=2" in report.summary_line()

    def test_error_free_batch_reports_zero_errors(self, service_graph,
                                                  service_queries):
        report = BatchEngine(service_graph).run_batch(service_queries)
        assert report.errors == 0

    def test_percentiles_exclude_errored_items(self, service_graph,
                                               service_queries):
        """An injected failing query (empty result, ~0 ms) must not drag
        p50/p95 down; failures are reported via ``errors`` instead."""
        from repro.graph.labeled_graph import LabeledGraph
        service = BatchEngine(service_graph)
        healthy = service.run_batch(service_queries)
        failing = [LabeledGraph([], [])] * 3  # three ~0ms error items
        mixed = service.run_batch(list(service_queries) + failing)
        assert mixed.errors == 3
        assert mixed.p50_ms == pytest.approx(healthy.p50_ms)
        assert mixed.latency_percentile(95) == pytest.approx(
            healthy.latency_percentile(95))
        assert mixed.p50_ms > 0.0

    def test_all_errored_batch_reports_zero_percentiles(self,
                                                        service_graph):
        from repro.graph.labeled_graph import LabeledGraph
        report = BatchEngine(service_graph).run_batch(
            [LabeledGraph([], [])] * 2)
        assert report.errors == 2
        assert report.p50_ms == 0.0
        assert report.p99_ms == 0.0


class TestExecutorSelection:
    def test_explicit_executor_overrides_workers(self, service_graph,
                                                 service_queries):
        """A per-call executor overrides the service's worker pool for
        that batch only."""
        with make_executor("process", 2) as pool, \
                BatchEngine(service_graph, executor=pool) as service:
            report = service.run_batch(service_queries,
                                       executor=SerialExecutor())
            assert report.executor == "serial"
            assert service.run_batch(service_queries).executor == \
                "process"

    def test_run_batch_executor_argument(self, service_graph,
                                         service_queries):
        service = BatchEngine(service_graph)
        with make_executor("process", 2) as executor:
            report = service.run_batch(service_queries,
                                       executor=executor)
        service.close()
        assert report.executor == "process"
        base = service.run_batch(service_queries)
        assert base.executor == "serial"  # the service's own
        for a, b in zip(report.results, base.results):
            assert a.match_set() == b.match_set()
            assert a.elapsed_ms == b.elapsed_ms

    def test_single_worker_runs_serial(self, service_graph,
                                       service_queries):
        """A service given no executor runs on the one in-process
        worker of the serial executor."""
        service = BatchEngine(service_graph)
        assert service.executor.workers == 1
        assert service.run_batch(service_queries).executor == "serial"


class TestConstruction:
    def test_needs_graph_or_engine(self):
        with pytest.raises(ValueError):
            BatchEngine()

    def test_engine_takes_precedence(self, service_graph):
        engine = GSIEngine(service_graph, GSIConfig.gsi_opt())
        service = BatchEngine(engine=engine)
        assert service.graph is service_graph
        assert service.config is engine.config

    def test_single_query_match_uses_cache(self, service_graph,
                                           service_queries):
        service = BatchEngine(service_graph)
        service.match(service_queries[0])
        service.match(service_queries[0])
        assert service.plan_cache.stats.hits == 1


class TestRunnerIntegration:
    def test_run_workload_batched(self, service_graph):
        wl = Workload.for_graph("toy", service_graph, num_queries=4,
                                query_vertices=4, seed=3)
        summary, report = run_workload_batched(wl)
        assert summary.queries == 4
        assert summary.dataset == "toy"
        assert report.num_queries == 4
        assert summary.total_matches == report.total_matches
