"""Tests for the pluggable executor layer (repro.service.executors).

The contract under test: executors change wall-clock only.  Serial and
process-pool execution of the same batch must produce identical match
sets, simulated measurements, transaction totals, and cache
statistics, in submission order — and a process worker must attach an
engine once per publication, not once per query, while one pool serves
every engine it is handed.
"""

from __future__ import annotations

import pytest

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.service import BatchEngine, make_executor
from repro.service.batch import _execute_batch_task
from repro.service.executors import (
    EXECUTOR_KINDS,
    EngineFanout,
    ProcessExecutor,
    SerialExecutor,
)

from oracle import brute_force_matches


@pytest.fixture(scope="module")
def exec_graph():
    return scale_free_graph(120, 3, 4, 3, seed=17)


@pytest.fixture(scope="module")
def exec_queries(exec_graph):
    return [random_walk_query(exec_graph, 4, seed=s) for s in range(6)]


@pytest.fixture(scope="module")
def process_executor():
    """One process pool shared by this module (spawning is expensive)."""
    executor = ProcessExecutor(max_workers=2)
    yield executor
    executor.shutdown()


def _payload(x, y):  # module-level: picklable for the process pool
    return (x, y * y)


def _kill_worker(_shared, _payload):  # simulates an OOM-killed worker
    import os

    os._exit(1)


def _worker_engines(_shared, _payload):
    """(pid, {cache key: engine id}) of a worker's shared engine cache."""
    import os

    from repro.service import executors

    return os.getpid(), {key: id(engine) for key, engine
                         in executors._WORKER_ENGINES.items()}


class TestFactory:
    def test_make_executor_kinds(self):
        for kind in EXECUTOR_KINDS:
            executor = make_executor(kind, max_workers=2)
            assert executor.name == kind
            executor.shutdown()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_rejects_unknown_kind(self):
        # "thread" named a removed thread-pool executor.
        for kind in ("gpu", "thread"):
            with pytest.raises(ValueError,
                               match="unknown executor kind"):
                make_executor(kind)

    @pytest.mark.parametrize("workers", [0, -1, -100])
    def test_rejects_non_positive_workers(self, workers):
        for kind in EXECUTOR_KINDS:
            with pytest.raises(ValueError, match="max_workers"):
                make_executor(kind, max_workers=workers)
        # Direct construction raises the same error, never clamps.
        with pytest.raises(ValueError, match="max_workers"):
            ProcessExecutor(max_workers=workers)

    def test_context_manager_shuts_down(self, exec_graph, exec_queries):
        with make_executor("process", 2) as executor, \
                BatchEngine(exec_graph, executor=executor) as service:
            report = service.run_batch(exec_queries[:2])
            assert report.num_queries == 2
            assert executor._pool is not None
        assert executor._pool is None


class TestMapTasks:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_order_and_shared_context(self, kind):
        with make_executor(kind, 2) as executor:
            out = executor.map_tasks(_payload, list(range(20)),
                                     shared=7)
        assert out == [(7, y * y) for y in range(20)]

    def test_empty_payloads(self, process_executor):
        assert process_executor.map_tasks(_payload, []) == []


class TestExecutorEquivalence:
    """One batch, both executors, identical outcomes."""

    def _run(self, graph, queries, executor):
        with BatchEngine(graph, GSIConfig(), executor=executor) as service:
            # Two batches: the second exercises plan + shape cache hits.
            first = service.run_batch(queries)
            second = service.run_batch(queries)
        return first, second

    def test_all_executors_identical(self, exec_graph, exec_queries,
                                     process_executor):
        reference = None
        for executor in (SerialExecutor(), process_executor):
            first, second = self._run(exec_graph, exec_queries, executor)
            key = (
                [item.result.match_set() for item in first.items],
                [item.result.elapsed_ms for item in first.items],
                [item.result.counters for item in first.items],
                [item.index for item in first.items],
                (first.cache, second.cache),
                [item.result.match_set() for item in second.items],
            )
            if reference is None:
                reference = key
            else:
                assert key == reference, (
                    f"{executor.name} executor diverged")

    def test_process_results_equal_oracle(self, exec_graph, exec_queries,
                                          process_executor):
        with BatchEngine(exec_graph, executor=process_executor) as service:
            report = service.run_batch(exec_queries)
        for query, result in zip(exec_queries, report.results):
            assert result.match_set() == \
                brute_force_matches(query, exec_graph)


class TestProcessBootstrap:
    def test_engine_built_once_per_worker(self, exec_graph, exec_queries,
                                          process_executor):
        """Workers attach the engine into the shared worker cache on
        first use and reuse it for every later task and batch."""
        with BatchEngine(exec_graph, executor=process_executor) as service:
            service.run_batch(exec_queries)
            first = process_executor.map_tasks(_worker_engines,
                                               list(range(16)))
            service.run_batch(exec_queries)
            second = process_executor.map_tasks(_worker_engines,
                                                list(range(16)))
            key = (service._fanout.epoch, 0)
        seen = {}
        for pid, engines in first + second:
            if key in engines:
                # Attaching a new epoch evicted every older one.
                assert set(engines) == {key}, engines
                seen.setdefault(pid, set()).add(engines[key])
        assert seen, "no worker ever attached the engine"
        for pid, ids in seen.items():
            assert len(ids) == 1, (
                f"worker {pid} rebuilt its engine across batches: {ids}")

    def test_pool_survives_repeated_batches(self, exec_graph,
                                            exec_queries):
        with ProcessExecutor(max_workers=2) as executor, \
                BatchEngine(exec_graph, executor=executor) as service:
            service.run_batch(exec_queries[:2])
            pool = executor._pool
            service.run_batch(exec_queries[2:4])
            assert executor._pool is pool, (
                "same engine must reuse the worker pool")

    def test_broken_pool_recovers_on_next_call(self):
        """A dead worker must not permanently break the executor: the
        broken pool is discarded and later calls run on a fresh one."""
        from concurrent.futures.process import BrokenProcessPool

        with ProcessExecutor(max_workers=1) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.map_tasks(_kill_worker, [0])
            assert executor._pool is None  # dead pool not kept around
            assert executor.map_tasks(_payload, [1, 2], shared=3) == \
                [(3, 1), (3, 4)]

    def test_one_pool_serves_two_engines(self, exec_graph):
        """One executor serves two batch services alternately on one
        pool: engines travel with each batch, not with the pool."""
        other_graph = scale_free_graph(60, 3, 3, 3, seed=23)
        cases = [(graph, random_walk_query(graph, 3, seed=1))
                 for graph in (exec_graph, other_graph)]
        with ProcessExecutor(max_workers=1) as executor, \
                BatchEngine(exec_graph, executor=executor) as first, \
                BatchEngine(other_graph, executor=executor) as second:
            first.run_batch([cases[0][1]])
            pool = executor._pool
            for _ in range(2):
                for service, (graph, query) in zip((first, second),
                                                   cases):
                    report = service.run_batch([query])
                    assert executor._pool is pool, (
                        "a different engine must not respawn the pool")
                    assert report.results[0].match_set() == \
                        brute_force_matches(query, graph)


class TestErrorIsolation:
    def test_prepare_error_reported_per_item(self, exec_graph,
                                             exec_queries,
                                             process_executor):
        empty = LabeledGraph([], [])  # GraphError in prepare
        batch = [exec_queries[0], empty, exec_queries[1]]
        with BatchEngine(exec_graph, executor=process_executor) as service:
            report = service.run_batch(batch)
        assert report.errors == 1
        assert "GraphError" in report.items[1].error
        assert report.items[0].error is None
        assert report.items[2].error is None
        assert report.items[0].result.num_matches > 0

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_execute_error_reported_per_item(self, exec_graph,
                                             exec_queries, kind,
                                             process_executor):
        """A failure inside the joining phase (worker side for the
        process pool) surfaces as a per-item error, not a crash."""
        engine = GSIEngine(exec_graph)
        executor = (process_executor if kind == "process"
                    else make_executor(kind, 2))
        fanout = EngineFanout([engine], engine.config)
        good = engine.prepare(exec_queries[0])
        poison = engine.prepare(exec_queries[1])
        poison.candidates = {}  # plan survives, join must blow up
        try:
            executed = executor.map_tasks(
                _execute_batch_task, [(0, good), (1, poison)],
                shared=fanout.context(executor))
        finally:
            fanout.close()
        assert executed[0].error is None
        assert executed[0].result.num_matches > 0
        assert executed[1].error is not None
        assert executed[1].result.num_matches == 0
        assert executed[1].result.engine == BatchEngine.name
