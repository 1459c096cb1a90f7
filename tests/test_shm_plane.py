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
from repro.dynamic.index import DynamicPCSRStorage
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.obs.metrics import get_registry
from repro.service import BatchEngine, make_executor
from repro.service.executors import START_METHOD_ENV, ProcessExecutor
from repro.shard import ShardedEngine, ShardedGraph
from repro.storage import shm
from repro.storage.pcsr import PCSRStorage
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
        handle, lease = shm.publish_graph(graph)
        try:
            attached = shm.attach_graph(handle)
            assert np.array_equal(attached._vlabels, graph._vlabels)
            assert np.array_equal(attached._offsets, graph._offsets)
            assert np.array_equal(attached._nbr, graph._nbr)
            assert np.array_equal(attached._elab, graph._elab)
            # Attach reorders the edges: compare the maps as dicts.
            assert ({(u, v): lab for u, v, lab in attached.edges()}
                    == {(u, v): lab for u, v, lab in graph.edges()})
            assert attached.num_edges == graph.num_edges
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
        with pytest.raises(StaleHandleError):
            shm.attach_graph(handle)

    def test_lease_release_idempotent(self, segment_baseline):
        graph = scale_free_graph(20, 3, 4, 3, seed=5)
        _, lease = shm.publish_graph(graph)
        lease.release()
        lease.release()  # second release is a no-op, not a crash


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

    def test_attach_is_zero_copy_above_old_chunk_size(self,
                                                      segment_baseline):
        """Each array is one segment attached as a read-only view, also
        past the 4096 rows at which the plane used to split arrays into
        chunks and concatenate them into private copies."""
        graph = scale_free_graph(4500, 2, 4, 3, seed=9)
        config = GSIConfig.gsi_opt()
        engine = GSIEngine(graph, config)
        handle, lease = shm.publish_engine(engine, epoch=1)
        try:
            attached = shm.attach_engine(handle, config)
            pairs = [(attached.graph._nbr, graph._nbr),
                     (attached.graph._elab, graph._elab),
                     (attached.graph._vlabels, graph._vlabels),
                     (attached.signature_table.table,
                      engine.signature_table.table)]
            for mine, ref in pairs:
                assert np.array_equal(mine, ref)
                assert not mine.flags.writeable
                assert not mine.flags.owndata
        finally:
            lease.release()
        assert not set(handle.names) & set(shm.owned_segment_names())
        with pytest.raises(StaleHandleError):
            shm.attach_engine(handle, config)

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


def _worker_engine_keys(_shared, _payload):
    """The ``(epoch, ordinal)`` keys of a worker's attached engines."""
    from repro.service import executors

    return sorted(executors._WORKER_ENGINES)


class TestRepublication:
    def test_republication_takes_a_fresh_epoch(self, segment_baseline):
        """After ``close()`` the next process batch republishes under a
        new epoch: the worker misses its cache, attaches the live
        segments and evicts the retired engine, and the first
        publication's handles are stale."""
        graph = scale_free_graph(60, 3, 4, 3, seed=20)
        config = GSIConfig.gsi_opt()
        queries = [random_walk_query(graph, 3, seed=s)
                   for s in range(2)]
        serial = BatchEngine(graph, config).run_batch(queries)
        with ProcessExecutor(max_workers=1) as executor, \
                BatchEngine(graph, config, executor=executor) as service:
            service.run_batch(queries)
            first = service._fanout.context(executor)
            assert executor.map_tasks(_worker_engine_keys, [0]) \
                == [[(first.epoch, 0)]]
            service.close()
            again = service.run_batch(queries)
            second = service._fanout.context(executor)
            assert second.epoch > first.epoch
            assert executor.map_tasks(_worker_engine_keys, [0]) \
                == [[(second.epoch, 0)]]
            with pytest.raises(StaleHandleError):
                shm.attach_engine(first.handles[0], first.config)
            assert [r.match_set() for r in again.results] == \
                [r.match_set() for r in serial.results]
            assert [r.elapsed_ms for r in again.results] == \
                [r.elapsed_ms for r in serial.results]


# ----------------------------------------------------------------------
# A dynamic store publishes its live rows only
# ----------------------------------------------------------------------

class TestDynamicStorePublication:
    def test_in_place_rebuild_ships_only_live_rows(self, segment_baseline):
        """After an in-place rebuild the group layer has headroom; a
        publication ships only the live rows, as many bytes as the
        exact-size store attached from it, and that store gathers and
        reports health exactly like the original."""
        graph = scale_free_graph(200, 3, 4, 3, seed=22)
        store = DynamicPCSRStorage(graph)
        # New keys just past the occupancy bound rebuild label 0; the
        # layer keeps its headroom past the live rows.
        part, n = store.partition(0), graph.num_vertices
        key, fresh = next(part.items())[0], part.num_groups // 2 + 1
        inserted = [(key, n + i, 0) for i in range(fresh)]
        graph, _ = graph.apply_changes(inserted, (), [0] * fresh)
        store.apply_batch(graph, inserted, ())
        stack = store._stack
        assert store.rebuilds == 1
        assert len(stack._buffers[0]) > len(stack.groups)
        live_bytes = (stack.groups.nbytes + stack.region_start.nbytes
                      + stack.region_cap.nbytes
                      + sum(p.ci.nbytes for p in store._parts.values()))

        def published(target):
            counter = get_registry().counter(
                "gsi_shm_published_bytes_total")
            before = counter.value()
            handle = shm._publish_pcsr_blocks(target)
            return handle, counter.value() - before

        handle, shipped = published(store)
        with shm.BlockLease(handle.names):
            attached = shm.attach_pcsr(handle)
            twin, twin_bytes = published(attached)
            shm.BlockLease(twin.names).release()
            assert shipped == twin_bytes == live_bytes
            assert all(len(buf) == len(attached._stack.groups)
                       for buf in attached._stack._buffers)
            assert attached.stats() == dict(PCSRStorage.stats(store),
                                            kind="pcsr")
            everyone = np.arange(graph.num_vertices)
            for lab in graph.distinct_edge_labels():
                mine, ref = attached.gather(everyone, lab), \
                    store.gather(everyone, lab)
                for field in ref._fields:
                    assert np.array_equal(getattr(mine, field),
                                          getattr(ref, field)), field


# ----------------------------------------------------------------------
# Shard epochs: new shard engines invalidate worker-side handles
# ----------------------------------------------------------------------

class TestShardEpochs:
    def test_rebuild_invalidates_stale_handles(self, segment_baseline):
        """Closing a sharded engine and building a new one on the same
        :class:`ShardedGraph` retires the old publication: its handle
        raises on attach, and the new engine serves under a higher
        epoch."""
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

            engine.close()
            engine = ShardedEngine(sharded)
            # The old publication is unlinked: a worker still holding
            # the superseded handle re-attaches and fails loudly
            # instead of silently serving retired arrays.
            with pytest.raises(StaleHandleError):
                shm.attach_engine(stale_handle, ctx.config)

            after = engine.run_batch(queries, executor=executor)
            assert [item.result.match_set()
                    for item in after.items] == ref_sets
            assert engine._fanout.context(executor).epoch > old_epoch
        finally:
            engine.close()
            executor.shutdown()
