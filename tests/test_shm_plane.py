"""Tests for the zero-copy shared-memory data plane (repro.storage.shm).

The contract under test: process workers attach engine artifacts from
named shared-memory segments instead of unpickling a full graph per
batch, answers stay byte-identical to the serial path, and segment
lifecycle is leak-free — every segment an owner publishes is unlinked
on shutdown, on engine close, and after a worker crash, under both the
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.dynamic import DynamicGraph, GraphDelta, StreamEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.service import BatchEngine, make_executor
from repro.service.executors import START_METHOD_ENV, ProcessExecutor
from repro.shard import ShardedEngine, ShardedGraph
from repro.storage import shm
from repro.storage.shm import StaleHandleError


@pytest.fixture()
def segment_baseline():
    """Owned-segment snapshot; the test must return to it (no leaks)."""
    before = set(shm.owned_segment_names())
    yield before
    leaked = set(shm.owned_segment_names()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _kill_worker(_shared, _payload):  # simulates an OOM-killed worker
    os._exit(1)


# ----------------------------------------------------------------------
# Block-layer round trips
# ----------------------------------------------------------------------

class TestGraphRoundTrip:
    def test_attach_reproduces_csr(self, segment_baseline):
        graph = scale_free_graph(80, 3, 4, 3, seed=2)
        handle, lease = shm.publish_graph(graph, chunk=16)
        try:
            attached = shm.attach_graph(handle)
            assert np.array_equal(attached._vlabels, graph._vlabels)
            assert np.array_equal(attached._offsets, graph._offsets)
            assert np.array_equal(attached._nbr, graph._nbr)
            assert np.array_equal(attached._elab, graph._elab)
            assert attached._edge_map == graph._edge_map
            assert attached._edge_label_freq == graph._edge_label_freq
        finally:
            lease.release()

    def test_attached_arrays_read_only(self, segment_baseline):
        graph = scale_free_graph(40, 3, 4, 3, seed=3)
        handle, lease = shm.publish_graph(graph)
        try:
            attached = shm.attach_graph(handle)
            with pytest.raises(ValueError):
                attached._nbr[0] = 99
        finally:
            lease.release()

    def test_stale_attach_raises(self, segment_baseline):
        graph = scale_free_graph(30, 3, 4, 3, seed=4)
        handle, lease = shm.publish_graph(graph)
        lease.release()
        shm._ATTACH_CACHE.clear()  # drop any memoized attachment
        with pytest.raises(StaleHandleError):
            shm.attach_graph(handle)

    def test_lease_release_idempotent(self, segment_baseline):
        graph = scale_free_graph(20, 3, 4, 3, seed=5)
        _, lease = shm.publish_graph(graph)
        lease.release()
        lease.release()  # second release is a no-op, not a crash


class TestPatchPublication:
    def test_patch_shares_untouched_chunks(self, segment_baseline):
        graph = scale_free_graph(64, 3, 4, 3, seed=6)
        h1, l1 = shm.publish_graph(graph, chunk=16)
        try:
            dyn = DynamicGraph(graph)
            delta = GraphDelta.for_graph(graph)
            delta.add_edge(0, graph.num_vertices - 1, 1)
            dyn.apply(delta)
            commit = dyn.commit()
            h2, l2 = shm.publish_graph_patch(
                h1, commit.snapshot, commit.touched_vertices, chunk=16)
            try:
                shared = set(h1.names) & set(h2.names)
                assert shared, "patch publication reused no chunks"
                # The shared chunks survive the previous lease.
                l1.release()
                attached = shm.attach_graph(h2)
                assert np.array_equal(attached._nbr,
                                      commit.snapshot._nbr)
                assert np.array_equal(attached._offsets,
                                      commit.snapshot._offsets)
            finally:
                l2.release()
        finally:
            l1.release()


class TestEngineRoundTrip:
    def test_attached_engine_matches_identically(self, segment_baseline):
        graph = scale_free_graph(100, 3, 4, 3, seed=7)
        config = GSIConfig.gsi_opt()
        engine = GSIEngine(graph, config)
        queries = [random_walk_query(graph, 4, seed=s)
                   for s in range(3)]
        handle, lease = shm.publish_engine(engine, epoch=1)
        try:
            attached = shm.attach_engine(handle, config)
            for query in queries:
                mine = attached.match(query)
                ref = engine.match(query)
                assert mine.match_set() == ref.match_set()
                assert mine.elapsed_ms == ref.elapsed_ms
                assert (mine.counters.transactions
                        == ref.counters.transactions)
        finally:
            lease.release()

    def test_handle_size_independent_of_graph(self, segment_baseline):
        """The acceptance measurement at unit scale: the pickled handle
        and config that cross the pipe must not grow with |G|."""
        config = GSIConfig.gsi_opt()
        sizes = {}
        for n in (100, 400):
            engine = GSIEngine(scale_free_graph(n, 3, 4, 3, seed=8),
                               config)
            handle, lease = shm.publish_engine(engine, epoch=n)
            try:
                sizes[n] = len(pickle.dumps((handle, config)))
                legacy = len(pickle.dumps((engine.graph, config)))
                assert sizes[n] < legacy / 4
            finally:
                lease.release()
        assert abs(sizes[400] - sizes[100]) < 512, sizes


# ----------------------------------------------------------------------
# Executor attach paths: fork and spawn, crash recovery, no leaks
# ----------------------------------------------------------------------

def _available_start_methods():
    wanted = ("fork", "spawn")
    have = multiprocessing.get_all_start_methods()
    return [m for m in wanted if m in have]


class TestExecutorAttachPaths:
    @pytest.mark.parametrize("start_method", _available_start_methods())
    def test_batch_identical_under_start_method(self, start_method,
                                                segment_baseline):
        graph = scale_free_graph(120, 3, 4, 3, seed=17)
        config = GSIConfig.gsi_opt()
        queries = [random_walk_query(graph, 4, seed=s)
                   for s in range(4)]
        serial = BatchEngine(graph, config).run_batch(queries)
        with ProcessExecutor(max_workers=2,
                             start_method=start_method) as executor, \
                BatchEngine(graph, config, executor=executor) as service:
            report = service.run_batch(queries)
        assert [r.match_set() for r in report.results] == \
            [r.match_set() for r in serial.results]
        assert [r.elapsed_ms for r in report.results] == \
            [r.elapsed_ms for r in serial.results]
        assert [r.counters for r in report.results] == \
            [r.counters for r in serial.results]
        # Handles crossed the pipe, not the graph.
        full = len(pickle.dumps((graph, config)))
        assert executor.last_shipment["context_bytes"] < full / 4

    def test_start_method_env_var(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert ProcessExecutor(max_workers=1).start_method == "spawn"
        monkeypatch.delenv(START_METHOD_ENV)
        assert ProcessExecutor(max_workers=1).start_method is None

    def test_shutdown_unlinks_segments(self, segment_baseline):
        """The service that published the engine unlinks it on close;
        stopping the pool leaves the publication alone."""
        graph = scale_free_graph(60, 3, 4, 3, seed=18)
        config = GSIConfig.gsi_opt()
        queries = [random_walk_query(graph, 3, seed=s)
                   for s in range(2)]
        with ProcessExecutor(max_workers=2) as executor:
            service = BatchEngine(graph, config, executor=executor)
            service.run_batch(queries)
            published = set(shm.owned_segment_names()) - segment_baseline
            assert published, "shm plane published no segments"
            executor.shutdown()
            assert set(shm.owned_segment_names()) - segment_baseline \
                == published
            service.close()
        assert not (set(shm.owned_segment_names()) - segment_baseline)

    def test_worker_crash_unlinks_segments(self, segment_baseline):
        """A worker dying mid-batch (OOM-killer style) must not leak
        segments: recovery replaces only the pool, the next batch
        reuses the live publication, and close unlinks everything."""
        graph = scale_free_graph(60, 3, 4, 3, seed=19)
        config = GSIConfig.gsi_opt()
        queries = [random_walk_query(graph, 3, seed=s)
                   for s in range(2)]
        with ProcessExecutor(max_workers=2) as executor, \
                BatchEngine(graph, config, executor=executor) as service:
            first = service.run_batch(queries)
            published = set(shm.owned_segment_names()) - segment_baseline
            with pytest.raises(Exception):
                executor.map_tasks(_kill_worker, [0])
            # Next batch recovers on a fresh pool, same publication.
            again = service.run_batch(queries)
            assert [r.match_set() for r in again.results] == \
                [r.match_set() for r in first.results]
            assert set(shm.owned_segment_names()) - segment_baseline \
                == published
        assert not (set(shm.owned_segment_names()) - segment_baseline)

    def test_close_unlinks_and_republishes(self, segment_baseline):
        """BatchEngine.close unlinks its segments, is idempotent, and
        the next process batch publishes afresh."""
        graph = scale_free_graph(60, 3, 4, 3, seed=20)
        config = GSIConfig.gsi_opt()
        queries = [random_walk_query(graph, 3, seed=s)
                   for s in range(2)]
        serial = BatchEngine(graph, config).run_batch(queries)
        with ProcessExecutor(max_workers=2) as executor:
            service = BatchEngine(graph, config, executor=executor)
            service.run_batch(queries)
            published = set(shm.owned_segment_names()) - segment_baseline
            assert published
            service.close()
            assert not (set(shm.owned_segment_names())
                        - segment_baseline)
            service.close()  # idempotent
            again = service.run_batch(queries)
            republished = (set(shm.owned_segment_names())
                           - segment_baseline)
            assert republished and not (republished & published)
            assert [r.match_set() for r in again.results] == \
                [r.match_set() for r in serial.results]
            service.close()
        assert not (set(shm.owned_segment_names()) - segment_baseline)


# ----------------------------------------------------------------------
# Shard epochs: rebuild invalidates worker-side handles
# ----------------------------------------------------------------------

class TestShardEpochs:
    def test_rebuild_invalidates_stale_handles(self, segment_baseline):
        graph = scale_free_graph(90, 3, 4, 3, seed=21)
        queries = [random_walk_query(graph, 3, seed=s)
                   for s in range(3)]
        sharded = ShardedGraph(graph, 2, halo_hops=2)
        reference = ShardedEngine(sharded).run_batch(queries)
        ref_sets = [item.result.match_set()
                    for item in reference.items]

        executor = make_executor("process", 2)
        engine = ShardedEngine(sharded)
        try:
            report = engine.run_batch(queries, executor=executor)
            assert [item.result.match_set()
                    for item in report.items] == ref_sets
            ctx = engine._fanout.context(executor)
            stale_handle, old_epoch = ctx.handles[0], ctx.epoch

            engine.rebuild()
            # The old publication is unlinked: a worker still holding
            # the superseded handle re-attaches and fails loudly
            # instead of silently serving retired arrays.
            shm._ATTACH_CACHE.clear()
            with pytest.raises(StaleHandleError):
                shm.attach_engine(stale_handle, ctx.config)

            after = engine.run_batch(queries, executor=executor)
            assert [item.result.match_set()
                    for item in after.items] == ref_sets
            assert engine._fanout.context(executor).epoch > old_epoch
        finally:
            engine.close()
            executor.shutdown()


# ----------------------------------------------------------------------
# Stream plane: patched snapshots, byte-identical deltas, O(handle) ship
# ----------------------------------------------------------------------

def _drive_stream(graph, queries, executor, plane_chunk=None):
    engine = StreamEngine(graph, executor=executor)
    if plane_chunk is not None:
        engine.plane_chunk = plane_chunk
    try:
        qids = [engine.register(q) for q in queries]
        deltas = []
        shipped = []
        n0 = graph.num_vertices
        live = {(u, v) for u, v, _ in graph.edges()}
        for step in range(3):
            delta = GraphDelta.for_graph(engine.graph)
            added = 0  # two fresh edges per batch, scanned deterministically
            for u in range(n0):
                for v in range(u + 1, n0):
                    if (u, v) not in live:
                        delta.add_edge(u, v, 1)
                        live.add((u, v))
                        added += 1
                        break
                if added == step + 1:
                    break
            if step == 1:
                u, v = min(live)
                delta.remove_edge(u, v)
                live.discard((u, v))
            if step == 2:
                vid = delta.add_vertex(0)
                delta.add_edge(0, vid, 1)
            report = engine.apply_batch(delta)
            deltas.append((report.total_created,
                           report.total_destroyed))
            shipment = getattr(executor, "last_shipment", None) \
                if executor is not None else None
            shipped.append(None if shipment is None
                           else shipment["context_bytes"])
        final = [frozenset(engine.matches(qid)) for qid in qids]
        return deltas, final, shipped
    finally:
        engine.close()


class TestStreamPlane:
    def test_planes_byte_identical_and_handle_sized(self,
                                                    segment_baseline):
        """Deltas read in place (serial) and through shared memory
        (process pool) are byte-identical; the pool ships handles."""
        graph = scale_free_graph(150, 3, 4, 3, seed=23)
        queries = [random_walk_query(graph, 3, seed=s)
                   for s in range(3)]
        serial = _drive_stream(graph, queries, None)

        executor = make_executor("process", 2)
        try:
            # A tiny chunk forces multi-chunk publications and patch
            # reuse on every batch.
            over_shm = _drive_stream(graph, queries, executor,
                                     plane_chunk=16)
        finally:
            executor.shutdown()

        assert over_shm[0] == serial[0] and over_shm[1] == serial[1]
        # Steady-state shipped context: handles, not the graph.
        full_graph = len(pickle.dumps(graph))
        assert all(s < full_graph / 3 for s in over_shm[2]), (
            over_shm[2], full_graph)

    def test_close_releases_snapshots(self, segment_baseline):
        graph = scale_free_graph(60, 3, 4, 3, seed=24)
        executor = make_executor("process", 2)
        try:
            engine = StreamEngine(graph, executor=executor)
            engine.register(random_walk_query(graph, 3, seed=0))
            delta = GraphDelta.for_graph(graph)
            delta.add_edge(0, graph.num_vertices - 1, 1)
            engine.apply_batch(delta)
            assert engine._plane is not None
            engine.close()
            assert engine._plane is None
            engine.close()  # idempotent
        finally:
            executor.shutdown()
