"""Tests for the tracing core (``repro.obs.trace``).

Two layers: unit tests of span/tracer semantics (thread-local nesting,
explicit parents, the null fast path, ``shipped_spans``), and the
load-bearing integration claims — a traced batch over the
process-pool executor, sharded and unsharded, under both fork and
spawn start methods, yields ONE connected span tree whose worker
spans carry worker pids and re-parent under the coordinator's spans;
a traced stream batch nests each query's delta span directly under
the batch span, with no executor hop between them; and the engine and
stream spans carry the simulated cost charged inside them.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.dynamic import StreamEngine, random_update_stream
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.obs.export import validate_span_tree
from repro.obs.trace import (
    NullSpan,
    NullTracer,
    TraceContext,
    Tracer,
    current_trace_context,
    get_tracer,
    set_tracer,
    shipped_spans,
    tracing_active,
)
from repro.service import BatchEngine
from repro.service.executors import ProcessExecutor
from repro.shard import ShardedEngine, ShardedGraph


@pytest.fixture(autouse=True)
def _null_tracer_between_tests():
    """Every test starts and ends on the disabled (null) tracer."""
    set_tracer(None)
    yield
    set_tracer(None)


# ----------------------------------------------------------------------
# Span / tracer semantics
# ----------------------------------------------------------------------


class TestSpanSemantics:
    def test_with_nesting_parents_automatically(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        finished = tracer.finished()
        assert [s["name"] for s in finished] == ["inner", "outer"]
        assert finished[1]["parent_id"] is None

    def test_explicit_parent_beats_stack(self):
        tracer = Tracer()
        remote = TraceContext(tracer.trace_id, "feedbeefcafe0123")
        with tracer.span("active"):
            span = tracer.span("child", parent=remote)
            span.end()
        assert tracer.finished()[0]["parent_id"] == "feedbeefcafe0123"

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once")
        span.end()
        span.end()
        assert len(tracer.finished()) == 1

    def test_exception_is_recorded_as_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        record = tracer.finished()[0]
        assert record["attrs"]["error"] == "RuntimeError"

    def test_span_dict_shape(self):
        tracer = Tracer()
        with tracer.span("op", shard="3") as span:
            span.set_attribute("matches", 7)
        record = tracer.finished()[0]
        assert set(record) == {"name", "trace_id", "span_id",
                               "parent_id", "start_ms", "duration_ms",
                               "pid", "attrs"}
        assert record["attrs"] == {"shard": "3", "matches": 7}
        assert record["duration_ms"] >= 0.0

    def test_tracer_with_parent_roots_under_it(self):
        parent = TraceContext("aaaa", "bbbb")
        tracer = Tracer(parent=parent)
        assert tracer.trace_id == "aaaa"
        span = tracer.span("rooted")
        span.end()
        assert tracer.finished()[0]["parent_id"] == "bbbb"

    def test_absorb_merges_shipped_dicts(self):
        tracer = Tracer()
        tracer.absorb([{"name": "remote", "trace_id": tracer.trace_id,
                        "span_id": "x", "parent_id": None,
                        "start_ms": 0.0, "duration_ms": 1.0,
                        "pid": 1, "attrs": {}}])
        assert [s["name"] for s in tracer.finished()] == ["remote"]


class TestGlobalTracer:
    def test_default_is_null_and_free(self):
        assert isinstance(get_tracer(), NullTracer)
        assert not tracing_active()
        assert current_trace_context() is None
        span = get_tracer().span("ignored")
        assert isinstance(span, NullSpan)
        # The null span is shared and inert.
        assert get_tracer().span("also-ignored") is span
        with span:
            span.set_attribute("k", "v")
        assert get_tracer().finished() == []

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        assert isinstance(previous, NullTracer)
        assert tracing_active()
        assert set_tracer(None) is tracer
        assert not tracing_active()

    def test_current_trace_context_tracks_active_span(self):
        tracer = Tracer()
        set_tracer(tracer)
        with tracer.span("live") as span:
            ctx = current_trace_context()
            assert ctx == TraceContext(tracer.trace_id, span.span_id)
        assert current_trace_context() is None


class TestShippedSpans:
    def test_records_locally_when_disabled(self):
        ctx = TraceContext("t" * 16, "p" * 16)
        with shipped_spans(ctx) as out:
            with get_tracer().span("worker.op"):
                pass
        assert not tracing_active()
        assert [s["name"] for s in out] == ["worker.op"]
        assert out[0]["trace_id"] == ctx.trace_id
        assert out[0]["parent_id"] == ctx.span_id

    def test_noop_when_ctx_is_none(self):
        with shipped_spans(None) as out:
            get_tracer().span("dropped").end()
        assert out == []

    def test_noop_when_recording_tracer_active(self):
        tracer = Tracer()
        set_tracer(tracer)
        ctx = tracer.span("root").context()
        with shipped_spans(ctx) as out:
            with get_tracer().span("local"):
                pass
        assert out == []  # landed in the active tracer instead
        assert "local" in [s["name"] for s in tracer.finished()]


# ----------------------------------------------------------------------
# Cross-process propagation: one connected tree under fork AND spawn
# ----------------------------------------------------------------------


def _available_start_methods():
    wanted = ("fork", "spawn")
    have = multiprocessing.get_all_start_methods()
    return [m for m in wanted if m in have]


@pytest.fixture(scope="module")
def trace_graph():
    return scale_free_graph(80, 3, 4, 3, seed=11)


@pytest.fixture(scope="module")
def trace_queries(trace_graph):
    return [random_walk_query(trace_graph, 4, seed=s) for s in range(4)]


def _run_traced(run):
    """Run ``run()`` under a fresh recording tracer; return its spans."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with tracer.span("test.root"):
            run()
    finally:
        set_tracer(previous)
    return tracer.finished()


class TestCrossProcessPropagation:
    @pytest.mark.parametrize("start_method", _available_start_methods())
    def test_sharded_process_batch_is_one_tree(self, start_method,
                                               trace_graph,
                                               trace_queries):
        engine = ShardedEngine(ShardedGraph(trace_graph, 2, halo_hops=3),
                               GSIConfig.gsi_opt())
        executor = ProcessExecutor(max_workers=2,
                                   start_method=start_method)
        try:
            spans = _run_traced(
                lambda: engine.run_batch(trace_queries,
                                         executor=executor))
        finally:
            executor.shutdown()
            engine.close()
        tree = validate_span_tree(spans)
        assert tree["connected"], tree
        assert len(tree["roots"]) == 1
        names = {s["name"] for s in spans}
        assert {"test.root", "shard.run_batch", "shard.scatter",
                "shard.gather", "shard.execute",
                "gsi.execute"} <= names
        # Worker spans really came from other processes...
        pids = {s["pid"] for s in spans}
        assert len(pids) >= 2
        # ...and every shard execution re-parented under this trace.
        executes = [s for s in spans if s["name"] == "shard.execute"]
        assert len(executes) == 2 * len(trace_queries)  # 2 shards
        by_id = {s["span_id"]: s for s in spans}
        for span in executes:
            assert by_id[span["parent_id"]]["name"] == "gsi.prepare"

    @pytest.mark.parametrize("start_method", _available_start_methods())
    def test_unsharded_process_batch_is_one_tree(self, start_method,
                                                 trace_graph,
                                                 trace_queries):
        with ProcessExecutor(max_workers=2,
                             start_method=start_method) as executor, \
                BatchEngine(trace_graph, GSIConfig.gsi_opt(),
                            executor=executor) as engine:
            spans = _run_traced(
                lambda: engine.run_batch(trace_queries))
        tree = validate_span_tree(spans)
        assert tree["connected"], tree
        assert len(tree["roots"]) == 1
        names = {s["name"] for s in spans}
        assert {"test.root", "batch.run",
                "executor.map_tasks", "gsi.execute"} <= names
        assert len({s["pid"] for s in spans}) >= 2

    def test_disabled_tracing_ships_no_spans(self, trace_graph,
                                             trace_queries):
        with ProcessExecutor(max_workers=2,
                             start_method="fork") as executor, \
                BatchEngine(trace_graph, GSIConfig.gsi_opt(),
                            executor=executor) as engine:
            report = engine.run_batch(trace_queries)
        assert report.errors == 0
        assert get_tracer().finished() == []
        assert not tracing_active()


class TestStreamTrace:
    def test_query_deltas_nest_under_apply_batch(self):
        """Delta matching runs in process: every registered query gets
        one ``stream.query_delta`` span whose parent is its batch's
        ``stream.apply_batch`` span, and no ``executor.*`` span sits
        anywhere in the tree."""
        graph = scale_free_graph(40, 3, 3, 3, seed=6)
        engine = StreamEngine(graph)
        qids = [engine.register(random_walk_query(graph, k, seed=s))
                for s, k in enumerate((2, 3, 4))]
        deltas = list(random_update_stream(graph, 2, 8, seed=4))
        spans = _run_traced(
            lambda: [engine.apply_batch(delta) for delta in deltas])
        tree = validate_span_tree(spans)
        assert tree["connected"], tree
        assert not [s["name"] for s in spans
                    if s["name"].startswith("executor.")]
        batches = [s for s in spans if s["name"] == "stream.apply_batch"]
        assert len(batches) == len(deltas)
        query_deltas = [s for s in spans
                        if s["name"] == "stream.query_delta"]
        assert len(query_deltas) == len(deltas) * len(qids)
        for batch in batches:
            under = [s["attrs"]["query_id"] for s in query_deltas
                     if s["parent_id"] == batch["span_id"]]
            assert sorted(under) == qids

    def test_seed_counts_sum_to_the_batch_count(self):
        """A traced batch carries its surviving-seed count, and its
        query deltas carry their own counts, which add up to it."""
        graph = scale_free_graph(40, 3, 2, 2, seed=6)
        engine = StreamEngine(graph)
        for s, k in enumerate((2, 2, 3, 4)):
            engine.register(random_walk_query(graph, k, seed=s))
        deltas = list(random_update_stream(graph, 4, 12, seed=4))
        spans = _run_traced(
            lambda: [engine.apply_batch(delta) for delta in deltas])
        batches = [s for s in spans if s["name"] == "stream.apply_batch"]
        for batch in batches:
            under = [s["attrs"]["seeds"] for s in spans
                     if s["name"] == "stream.query_delta"
                     and s["parent_id"] == batch["span_id"]]
            assert len(under) == 4
            assert sum(under) == batch["attrs"]["seeds"]
        assert any(batch["attrs"]["seeds"] for batch in batches)


# ----------------------------------------------------------------------
# Spans carry the simulated cost charged inside them
# ----------------------------------------------------------------------


class TestSpanCost:
    def test_match_spans_sum_to_the_result(self, trace_graph,
                                           trace_queries):
        engine = GSIEngine(trace_graph, GSIConfig.gsi_opt())
        for query in trace_queries:
            results = []
            spans = _run_traced(
                lambda: results.append(engine.match(query)))
            result = results[0]
            prepare, = [s["attrs"] for s in spans
                        if s["name"] == "gsi.prepare"]
            execute, = [s["attrs"] for s in spans
                        if s["name"] == "gsi.execute"]
            assert prepare["gld"] + execute["gld"] == result.counters.gld
            assert execute["gst"] == result.counters.gst
            assert prepare["sim_ms"] + execute["sim_ms"] == \
                pytest.approx(result.elapsed_ms, rel=1e-12)
            assert prepare["sim_ms"] == result.phases.filter_ms
            assert execute["gld"] > 0

    def test_stream_batch_span_equals_its_report(self):
        graph = scale_free_graph(40, 3, 3, 3, seed=6)
        engine = StreamEngine(graph)
        engine.register(random_walk_query(graph, 3, seed=1))
        reports = []
        spans = _run_traced(lambda: reports.extend(
            engine.apply_batch(delta)
            for delta in random_update_stream(graph, 3, 8, seed=4)))
        batches = [s["attrs"] for s in spans
                   if s["name"] == "stream.apply_batch"]
        assert len(batches) == len(reports) == 3
        for attrs, report in zip(batches, reports):
            assert attrs["commit_tx"] == report.commit_transactions
            assert attrs["maintain_gld"] == report.maintenance.gld
            assert attrs["maintain_gst"] == report.maintenance.gst
        assert sum(a["maintain_gld"] for a in batches) > 0
