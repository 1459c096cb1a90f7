"""Tests for the plan cache and the canonical query fingerprint."""

from __future__ import annotations

import threading

import pytest

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.core.plan import plan_join_order
from repro.core.signature import encode_vertex
from repro.gpusim.constants import CLOCK_GHZ
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph, path_query, triangle_query
from repro.service import BatchEngine
from repro.service.fingerprint import query_fingerprint, wl_colors
from repro.service.plan_cache import PlanCache, remap_plan

from oracle import brute_force_matches, paper_query


def renumber(graph: LabeledGraph, perm) -> LabeledGraph:
    """Isomorphic copy with vertex ``v`` renamed to ``perm[v]``."""
    vlabels = [0] * graph.num_vertices
    for v in range(graph.num_vertices):
        vlabels[perm[v]] = graph.vertex_label(v)
    edges = [(perm[u], perm[v], lab) for u, v, lab in graph.edges()]
    return LabeledGraph(vlabels, edges)


class TestFingerprint:
    def test_deterministic(self):
        q = paper_query()
        assert query_fingerprint(q).digest == query_fingerprint(q).digest

    def test_isomorphic_queries_share_digest(self):
        q = random_walk_query(scale_free_graph(80, 3, 3, 3, seed=1),
                              5, seed=2)
        for perm in ([4, 3, 2, 1, 0], [1, 2, 3, 4, 0], [2, 0, 4, 1, 3]):
            iso = renumber(q, perm)
            assert query_fingerprint(iso).digest == \
                query_fingerprint(q).digest

    def test_label_change_changes_digest(self):
        a = triangle_query((0, 0, 0), (0, 0, 0))
        b = triangle_query((0, 0, 1), (0, 0, 0))
        c = triangle_query((0, 0, 0), (0, 0, 1))
        digests = {query_fingerprint(x).digest for x in (a, b, c)}
        assert len(digests) == 3

    def test_structure_change_changes_digest(self):
        tri = triangle_query()
        path = path_query([0, 0, 0])
        assert query_fingerprint(tri).digest != \
            query_fingerprint(path).digest

    def test_mapping_is_bijective(self):
        q = paper_query()
        fp = query_fingerprint(q)
        assert sorted(fp.mapping) == list(range(q.num_vertices))
        inv = fp.inverse()
        assert all(inv[fp.mapping[v]] == v
                   for v in range(q.num_vertices))

    def test_budget_exhaustion_returns_none(self):
        # A 3x3 rook's-graph-like single-label query has many
        # automorphisms; a tiny budget must bail out, not mis-hash.
        q = triangle_query()
        assert query_fingerprint(q, node_budget=2) is None

    def test_wl_colors_invariant_under_renumbering(self):
        q = random_walk_query(scale_free_graph(60, 3, 3, 3, seed=4),
                              5, seed=1)
        perm = [3, 0, 4, 2, 1]
        iso = renumber(q, perm)
        colors, iso_colors = wl_colors(q), wl_colors(iso)
        assert sorted(colors) == sorted(iso_colors)
        assert all(colors[v] == iso_colors[perm[v]]
                   for v in range(q.num_vertices))


class TestRemapPlan:
    def test_roundtrip_identity(self):
        g = scale_free_graph(80, 3, 3, 3, seed=3)
        q = random_walk_query(g, 5, seed=7)
        sizes = {u: 10 + u for u in range(5)}
        plan = plan_join_order(q, g, sizes)
        fp = query_fingerprint(q)
        assert remap_plan(remap_plan(plan, fp.mapping),
                          fp.inverse()) == plan


class TestPlanCacheAccounting:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        g = scale_free_graph(80, 3, 3, 3, seed=5)
        q = random_walk_query(g, 4, seed=0)
        plan, fp = cache.lookup(q)
        assert plan is None and fp is not None
        assert cache.stats.misses == 1
        cache.store(fp, plan_join_order(q, g, {u: 1 for u in range(4)}))
        hit, _ = cache.lookup(q)
        assert hit is not None
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_isomorphic_query_hits(self):
        cache = PlanCache()
        g = scale_free_graph(80, 3, 3, 3, seed=5)
        q = random_walk_query(g, 5, seed=3)
        _, fp = cache.lookup(q)
        sizes = {u: 5 for u in range(5)}
        cache.store(fp, plan_join_order(q, g, sizes))
        iso = renumber(q, [4, 0, 3, 1, 2])
        plan, _ = cache.lookup(iso)
        assert plan is not None, "isomorphic query should hit"
        # The remapped plan must be *valid for iso*: starts somewhere,
        # covers all vertices, every step links into the prefix.
        assert sorted(plan.order) == list(range(5))
        joined = {plan.start_vertex}
        for step in plan.steps:
            assert step.linking_edges
            for w, lab in step.linking_edges:
                assert w in joined
                assert iso.edge_label(step.vertex, w) == lab
            joined.add(step.vertex)

    def test_eviction_at_capacity_is_lru(self):
        cache = PlanCache(capacity=2)
        g = scale_free_graph(100, 3, 4, 4, seed=6)
        queries = [random_walk_query(g, k, seed=1) for k in (3, 4, 5)]
        fps = []
        for q in queries:
            _, fp = cache.lookup(q)
            cache.store(fp, plan_join_order(
                q, g, {u: 1 for u in range(q.num_vertices)}))
            fps.append(fp)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # queries[0] was least recently used -> evicted.
        plan0, _ = cache.lookup(queries[0])
        assert plan0 is None
        plan2, _ = cache.lookup(queries[2])
        assert plan2 is not None

    def test_uncacheable_counted_not_stored(self):
        cache = PlanCache(node_budget=2)
        q = triangle_query()
        plan, fp = cache.lookup(q)
        assert plan is None and fp is None
        assert cache.stats.uncacheable == 1
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_clear_keeps_stats(self):
        cache = PlanCache()
        g = scale_free_graph(60, 3, 3, 3, seed=2)
        q = random_walk_query(g, 4, seed=2)
        _, fp = cache.lookup(q)
        cache.store(fp, plan_join_order(q, g, {u: 1 for u in range(4)}))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1


class TestLabelInvalidation:
    def _cache_plan(self, cache, query, graph):
        fp = query_fingerprint(query)
        sizes = {u: graph.num_vertices
                 for u in range(query.num_vertices)}
        plan = plan_join_order(query, graph, sizes)
        cache.store(fp, plan,
                    edge_labels=query.distinct_edge_labels())
        return fp

    def test_invalidate_drops_dependent_plans_only(self):
        graph = scale_free_graph(60, 3, 3, 3, seed=4)
        q_a = path_query([0, 0, 0], [0, 0])   # uses edge label 0
        q_b = path_query([0, 0, 0], [1, 1])   # uses edge label 1
        cache = PlanCache()
        self._cache_plan(cache, q_a, graph)
        self._cache_plan(cache, q_b, graph)
        assert len(cache) == 2
        dropped = cache.invalidate_labels([1])
        assert dropped == 1
        assert len(cache) == 1
        assert cache.stats.invalidations == 1
        # q_a survives and still hits.
        plan, _ = cache.lookup(q_a)
        assert plan is not None
        plan, _ = cache.lookup(q_b)
        assert plan is None

    def test_invalidate_without_labels_is_noop(self):
        graph = scale_free_graph(40, 3, 2, 2, seed=4)
        cache = PlanCache()
        self._cache_plan(cache, path_query([0, 0], [0]), graph)
        assert cache.invalidate_labels([]) == 0
        assert len(cache) == 1

    def test_plans_stored_without_labels_drop_conservatively(self):
        graph = scale_free_graph(40, 3, 2, 2, seed=4)
        q = path_query([0, 0], [0])
        cache = PlanCache()
        fp = query_fingerprint(q)
        sizes = {u: 10 for u in range(q.num_vertices)}
        cache.store(fp, plan_join_order(q, graph, sizes))  # no labels
        assert cache.invalidate_labels([99]) == 1
        assert len(cache) == 0


class TestConcurrency:
    """Regression tests for the LRU mutation race: ``move_to_end`` /
    eviction on the shared ``OrderedDict`` must be lock-protected when
    many worker threads drive the cache at tiny capacity."""

    def test_hammer_lookup_store_tiny_capacity(self):
        graph = scale_free_graph(100, 3, 4, 4, seed=6)
        # More distinct shapes than capacity -> constant eviction churn.
        queries = [random_walk_query(graph, k, seed=1)
                   for k in (3, 4, 5, 6, 7, 8)]
        plans = {k: plan_join_order(
            q, graph, {u: 1 for u in range(q.num_vertices)})
            for k, q in enumerate(queries)}
        cache = PlanCache(capacity=2)
        rounds = 60
        failures = []

        def worker(offset: int) -> None:
            try:
                for i in range(rounds):
                    k = (i + offset) % len(queries)
                    plan, fp = cache.lookup(queries[k])
                    if plan is None and fp is not None:
                        cache.store(fp, plans[k])
                    assert len(cache) <= cache.capacity
            except Exception as exc:  # noqa: BLE001 - surface in main
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        stats = cache.stats_snapshot()
        assert stats.lookups == 8 * rounds
        assert stats.hits + stats.misses == stats.lookups
        assert len(cache) <= 2

    def test_hammer_service_single_query_path(self, small_graph,
                                              small_queries):
        """Concurrent ``BatchEngine.match`` calls (the request-at-a-time
        serving path) share one tiny cache; results must stay correct
        and the cache within capacity."""
        service = BatchEngine(small_graph, cache_capacity=2)
        expected = [brute_force_matches(q, small_graph)
                    for q in small_queries]
        failures = []

        def worker(offset: int) -> None:
            try:
                for i in range(10):
                    k = (i + offset) % len(small_queries)
                    result = service.match(small_queries[k])
                    assert result.match_set() == expected[k]
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        assert len(service.plan_cache) <= 2

    def test_run_batch_tiny_capacity_still_correct(self, small_graph):
        queries = [random_walk_query(small_graph, k, seed=2)
                   for k in (3, 4, 5, 6)] * 4
        service = BatchEngine(small_graph, cache_capacity=2)
        report = service.run_batch(queries)
        assert report.errors == 0
        for query, result in zip(queries, report.results):
            assert result.match_set() == \
                brute_force_matches(query, small_graph)
        assert len(service.plan_cache) <= 2
        assert report.cache.evictions > 0


class TestCandidateShapeMemo:
    """The plan cache's candidate-shape memo: repeated query labels skip
    the host-side signature-table scan with bit-identical results."""

    def test_shape_hits_on_repeated_shapes(self, small_graph,
                                           small_queries):
        engine = GSIEngine(small_graph)
        cache = PlanCache()
        for q in small_queries:
            engine.prepare(q, plan_cache=cache)
        first = cache.stats_snapshot()
        assert first.shape_misses > 0
        for q in small_queries:
            engine.prepare(q, plan_cache=cache)
        second = cache.stats_snapshot().diff(first)
        # Second pass scans nothing: every query vertex is a memo hit.
        assert second.shape_misses == 0
        assert second.shape_hits == sum(
            q.num_vertices for q in small_queries)

    def test_memoized_results_bit_identical(self, small_graph,
                                            small_queries):
        cached_engine = GSIEngine(small_graph)
        plain_engine = GSIEngine(small_graph)
        cache = PlanCache()
        for _ in range(2):  # second pass runs fully out of the memo
            for q in small_queries:
                hit = cached_engine.execute(
                    cached_engine.prepare(q, plan_cache=cache))
                cold = plain_engine.execute(plain_engine.prepare(q))
                assert hit.match_set() == cold.match_set()
                assert hit.elapsed_ms == cold.elapsed_ms
                assert hit.counters == cold.counters
                assert hit.candidate_sizes == cold.candidate_sizes

    def test_shape_capacity_evicts(self, small_graph, small_queries):
        cache = PlanCache(shape_capacity=1)
        engine = GSIEngine(small_graph)
        for q in small_queries:
            engine.prepare(q, plan_cache=cache)
        assert len(cache.shapes) <= 1

    def test_clear_drops_shapes(self, small_graph, small_queries):
        cache = PlanCache()
        engine = GSIEngine(small_graph)
        engine.prepare(small_queries[0], plan_cache=cache)
        assert len(cache.shapes) > 0
        cache.clear()
        assert len(cache.shapes) == 0

    def test_budget_abort_leaves_no_shape(self, small_graph):
        """A query whose budget runs out inside a filter kernel comes
        back timed out; the scan it aborted stores no memo entry, while
        the scan that completed before it keeps its entry."""
        q = random_walk_query(small_graph, 4, seed=1)
        sigs = [encode_vertex(q, u, GSIConfig().signature_bits).tobytes()
                for u in range(2)]
        assert sigs[0] != sigs[1]
        kernels = GSIEngine(small_graph).prepare(q).device.kernels
        # a budget that ends halfway through the second filter kernel
        budget_cycles = (kernels[0].elapsed_cycles
                         + kernels[1].elapsed_cycles / 2)
        engine = GSIEngine(small_graph, GSIConfig(
            budget_ms=budget_cycles / (CLOCK_GHZ * 1e6)))
        cache = PlanCache()

        result = engine.execute(engine.prepare(q, plan_cache=cache))

        assert result.timed_out
        assert len(cache.shapes) == 1
        owner = engine.signature_table
        assert cache.shapes.lookup(sigs[0], owner=owner) is not None
        assert cache.shapes.lookup(sigs[1], owner=owner) is None

    def test_shape_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(shape_capacity=0)

    def test_owner_guard_rejects_stale_binding(self):
        """Simulates a mid-scan rebind by a concurrent engine: lookups
        and stores carrying the old owner must miss / be dropped, never
        serve or pollute the other table's entries."""
        import numpy as np

        class FakeTable:  # weakref-able stand-in
            pass

        cache = PlanCache()
        table_a, table_b = FakeTable(), FakeTable()
        cand = np.array([1, 2, 3])
        cache.shapes.bind(table_a)
        cache.shapes.store(b"sig", "cost-a", cand, owner=table_a)
        assert cache.shapes.lookup(b"sig", owner=table_a) is not None
        cache.shapes.bind(table_b)  # concurrent engine rebinds (clears)
        assert len(cache.shapes) == 0
        # The first engine's in-flight scan now misses and cannot store.
        assert cache.shapes.lookup(b"sig", owner=table_a) is None
        cache.shapes.store(b"sig", "cost-a", cand, owner=table_a)
        assert cache.shapes.lookup(b"sig", owner=table_b) is None
        assert len(cache.shapes) == 0

    def test_shared_cache_across_graphs_stays_correct(self):
        """Sharing one PlanCache between engines over *different* data
        graphs is safe for plans (valid on any graph) — the shape memo
        must not leak one graph's candidate ids to the other."""
        graph_a = scale_free_graph(60, 3, 3, 3, seed=1)
        graph_b = scale_free_graph(90, 3, 3, 3, seed=2)
        cache = PlanCache()
        engine_a = GSIEngine(graph_a)
        engine_b = GSIEngine(graph_b)
        for _ in range(2):  # alternate engines through the shared cache
            for graph, engine in ((graph_a, engine_a),
                                  (graph_b, engine_b)):
                q = random_walk_query(graph, 4, seed=3)
                result = engine.execute(
                    engine.prepare(q, plan_cache=cache))
                assert result.match_set() == \
                    brute_force_matches(q, graph)


class TestCachedPlanEquivalence:
    def test_cached_result_byte_identical(self, small_graph, small_queries):
        """A cache-hit run must reproduce the cold run exactly: same
        matches, same simulated time, same counters, same phases."""
        engine = GSIEngine(small_graph)
        cache = PlanCache()
        for q in small_queries:
            cold_prepared = engine.prepare(q, plan_cache=cache)
            assert not cold_prepared.plan_cached
            cold = engine.execute(cold_prepared)

            hit_prepared = engine.prepare(q, plan_cache=cache)
            if cold_prepared.plan is not None:
                assert hit_prepared.plan_cached
                assert hit_prepared.plan == cold_prepared.plan
            hit = engine.execute(hit_prepared)

            assert hit.matches == cold.matches
            assert hit.elapsed_ms == cold.elapsed_ms
            assert hit.counters == cold.counters
            assert hit.phases == cold.phases
            assert hit.candidate_sizes == cold.candidate_sizes
            assert hit.join_order == cold.join_order

    def test_cached_plan_correct_for_isomorphic_query(self):
        g = scale_free_graph(70, 3, 3, 3, seed=9)
        q = random_walk_query(g, 5, seed=5)
        engine = GSIEngine(g)
        cache = PlanCache()
        engine.execute(engine.prepare(q, plan_cache=cache))
        iso = renumber(q, [2, 4, 0, 1, 3])
        prepared = engine.prepare(iso, plan_cache=cache)
        if prepared.plan is not None:
            assert prepared.plan_cached
        result = engine.execute(prepared)
        assert result.match_set() == brute_force_matches(iso, g)
