"""Tests for the vertex-oriented join (Algorithms 3-4)."""

import numpy as np
import pytest

from repro.core import join, kernels
from repro.core.config import GSIConfig
from repro.core.join import JoinContext, execute_join_step, run_join_phase
from repro.core.plan import JoinStep, plan_join_order
from repro.core.set_ops import CandidateSet
from repro.errors import BudgetExceeded
from repro.gpusim.device import Device
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.storage.factory import build_storage

from oracle import brute_force_matches


def make_ctx(graph, config=None):
    config = config or GSIConfig()
    store = build_storage(config.storage_kind, graph)
    return JoinContext(graph=graph, store=store, device=Device(),
                       config=config)


@pytest.fixture(scope="module")
def graph():
    return scale_free_graph(150, 3, 4, 3, seed=5)


class TestJoinStep:
    def test_empty_rows_early_exit(self, graph):
        ctx = make_ctx(graph)
        step = JoinStep(vertex=1, linking_edges=((0, 0),))
        out = execute_join_step(ctx, np.empty((0, 1), dtype=np.int64), [0],
                                step,
                                CandidateSet(np.array([1], dtype=np.int64)))
        assert out.shape == (0, 2) and out.dtype == np.int64
        assert ctx.device.meter.snapshot().transactions == 0

    def test_empty_candidates_early_exit(self, graph):
        ctx = make_ctx(graph)
        step = JoinStep(vertex=1, linking_edges=((0, 0),))
        out = execute_join_step(ctx, np.array([[0]], dtype=np.int64), [0],
                                step,
                                CandidateSet(np.empty(0, dtype=np.int64)))
        assert out.shape == (0, 2) and out.dtype == np.int64
        assert ctx.device.meter.snapshot().transactions == 0

    def test_row_cap_enforced(self, graph):
        from dataclasses import replace
        cfg = replace(GSIConfig(), max_intermediate_rows=2)
        ctx = make_ctx(graph, cfg)
        step = JoinStep(vertex=1, linking_edges=((0, 0),))
        rows = np.arange(5, dtype=np.int64).reshape(-1, 1)
        with pytest.raises(BudgetExceeded):
            execute_join_step(ctx, rows, [0], step,
                              CandidateSet(np.array([1], dtype=np.int64)))

    def test_injectivity_enforced(self, graph):
        """No produced row may repeat a data vertex."""
        q = random_walk_query(graph, 5, seed=2)
        cfg = GSIConfig()
        ctx = make_ctx(graph, cfg)
        sizes = {u: 10 for u in range(5)}
        plan = plan_join_order(q, graph, sizes)
        candidates = {
            u: np.array(
                [v for v in range(graph.num_vertices)
                 if graph.vertex_label(v) == q.vertex_label(u)],
                dtype=np.int64)
            for u in range(5)
        }
        rows = run_join_phase(ctx, plan, candidates)
        for row in rows:
            assert len(set(row)) == len(row)

    @pytest.mark.parametrize("lane", ["rows", "vector"])
    def test_emptied_table_keeps_every_column(self, graph, lane):
        """A step that empties the table still yields an ``(0, k)``
        table, in join order, and later steps charge nothing."""
        from dataclasses import replace
        q = random_walk_query(graph, 4, seed=1)
        ctx = make_ctx(graph, replace(GSIConfig(), join_kernel=lane))
        plan = plan_join_order(q, graph, {u: 5 for u in range(4)})
        candidates = {
            u: np.array(
                [v for v in range(graph.num_vertices)
                 if graph.vertex_label(v) == q.vertex_label(u)],
                dtype=np.int64)
            for u in range(4)
        }
        candidates[plan.steps[0].vertex] = np.empty(0, dtype=np.int64)
        rows = run_join_phase(ctx, plan, candidates)
        assert rows.shape == (0, 4) and rows.dtype == np.int64
        # only the initial copy of C(u_start) ran
        assert [k.name for k in ctx.device.kernels] == ["init_m"]

    def test_rows_satisfy_all_linking_edges(self, graph):
        q = random_walk_query(graph, 4, seed=1)
        ctx = make_ctx(graph)
        plan = plan_join_order(q, graph, {u: 5 for u in range(4)})
        candidates = {
            u: np.array(
                [v for v in range(graph.num_vertices)
                 if graph.vertex_label(v) == q.vertex_label(u)],
                dtype=np.int64)
            for u in range(4)
        }
        rows = run_join_phase(ctx, plan, candidates)
        order = plan.order
        for row in rows:
            assign = {order[i]: row[i] for i in range(len(order))}
            for u, v, lab in q.edges():
                assert graph.has_edge(assign[u], assign[v])
                assert graph.edge_label(assign[u], assign[v]) == lab


class TestSchemeEquivalence:
    """Prealloc-Combine and two-step must produce identical matches."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pc_equals_two_step(self, graph, seed):
        q = random_walk_query(graph, 4, seed=seed)
        ref = brute_force_matches(q, graph)
        results = {}
        for pc in (True, False):
            from dataclasses import replace
            cfg = replace(GSIConfig(), use_prealloc_combine=pc)
            ctx = make_ctx(graph, cfg)
            plan = plan_join_order(q, graph, {u: 5 for u in range(4)})
            candidates = {
                u: np.array(
                    [v for v in range(graph.num_vertices)
                     if graph.vertex_label(v) == q.vertex_label(u)],
                    dtype=np.int64)
                for u in range(4)
            }
            rows = run_join_phase(ctx, plan, candidates)
            perm = np.argsort(np.asarray(plan.order))
            results[pc] = {tuple(int(r[j]) for j in perm) for r in rows}
        assert results[True] == results[False] == ref

    def test_two_step_doubles_join_reads(self, graph):
        """The defining cost property: two-step re-reads everything."""
        q = random_walk_query(graph, 4, seed=0)
        glds = {}
        for pc in (True, False):
            from dataclasses import replace
            cfg = replace(GSIConfig(), use_prealloc_combine=pc)
            ctx = make_ctx(graph, cfg)
            plan = plan_join_order(q, graph, {u: 5 for u in range(4)})
            candidates = {
                u: np.array(
                    [v for v in range(graph.num_vertices)
                     if graph.vertex_label(v) == q.vertex_label(u)],
                    dtype=np.int64)
                for u in range(4)
            }
            run_join_phase(ctx, plan, candidates)
            glds[pc] = ctx.device.meter.snapshot().join_gld
        assert glds[False] > glds[True]


class TestDuplicateRemoval:
    def test_dr_preserves_results_and_cuts_gld(self, graph):
        q = random_walk_query(graph, 4, seed=3)
        outcomes = {}
        for dr in (False, True):
            from dataclasses import replace
            cfg = replace(GSIConfig(), use_duplicate_removal=dr)
            ctx = make_ctx(graph, cfg)
            plan = plan_join_order(q, graph, {u: 5 for u in range(4)})
            candidates = {
                u: np.array(
                    [v for v in range(graph.num_vertices)
                     if graph.vertex_label(v) == q.vertex_label(u)],
                    dtype=np.int64)
                for u in range(4)
            }
            rows = run_join_phase(ctx, plan, candidates)
            outcomes[dr] = (set(map(tuple, rows)),
                            ctx.device.meter.snapshot().join_gld)
        assert outcomes[False][0] == outcomes[True][0]
        assert outcomes[True][1] <= outcomes[False][1]


class TestNeighborCache:
    """There is no per-query neighbor memo: a join step fetches each
    linking edge's lists itself, and exactly once."""

    @pytest.mark.parametrize("lane", ["rows", "vector"])
    def test_prealloc_step_fetches_lists_once(self, graph, lane,
                                              monkeypatch):
        """Each linking edge's lists are fetched once per step: one
        fetch serves Prealloc-Combine's capacity bounds and edge 0, and
        the two-step scheme's count and write passes, for one-edge and
        two-edge steps alike."""
        calls = []

        def counting(ctx, vcol, label):
            calls.append(label)
            return real(ctx, vcol, label)

        real = kernels._distinct_neighbors
        monkeypatch.setattr(kernels, "_distinct_neighbors", counting)
        monkeypatch.setattr(join, "_distinct_neighbors", counting)
        everything = CandidateSet(np.arange(graph.num_vertices,
                                            dtype=np.int64))
        for prealloc in (True, False):
            for labels in ((0,), (0, 1)):
                ctx = make_ctx(graph, GSIConfig(
                    join_kernel=lane, use_prealloc_combine=prealloc))
                table = np.arange(10, dtype=np.int64).reshape(-1, 1)
                columns = [0]
                if len(labels) == 2:
                    table = execute_join_step(
                        ctx, table, columns,
                        JoinStep(vertex=1, linking_edges=((0, labels[1]),)),
                        everything)
                    columns = [0, 1]
                    assert len(table) > 0
                calls.clear()
                step = JoinStep(vertex=2, linking_edges=tuple(
                    (u, lab) for u, lab in zip(columns, labels)))
                out = execute_join_step(ctx, table, columns, step,
                                        everything)
                assert len(out) > 0, (prealloc, labels)
                assert sorted(calls) == sorted(labels), (prealloc, labels)
