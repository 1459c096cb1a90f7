"""Tests for the GSIEngine facade."""

import pytest

from repro import GSIConfig, GSIEngine, random_walk_query
from repro.errors import GraphError
from repro.graph.labeled_graph import LabeledGraph

from oracle import brute_force_matches, paper_query, tiny_paper_graph


class TestMatch:
    def test_agrees_with_brute_force(self, small_graph, small_queries):
        engine = GSIEngine(small_graph)
        for q in small_queries:
            assert engine.match(q).match_set() \
                == brute_force_matches(q, small_graph)

    def test_paper_figure1_example(self):
        g = tiny_paper_graph()
        q = paper_query()
        result = GSIEngine(g).match(q)
        assert result.match_set() == brute_force_matches(q, g)
        assert result.num_matches >= 1

    def test_match_tuple_indexed_by_query_vertex(self, small_graph):
        q = random_walk_query(small_graph, 4, seed=1)
        result = GSIEngine(small_graph).match(q)
        for m in result.matches:
            for u, v in enumerate(m):
                assert small_graph.vertex_label(v) == q.vertex_label(u)

    def test_no_match_when_label_absent(self, small_graph):
        q = LabeledGraph([999], [])
        result = GSIEngine(small_graph).match(q)
        assert result.num_matches == 0
        assert not result.timed_out
        assert result.elapsed_ms > 0

    def test_single_vertex_query(self, small_graph):
        lab = small_graph.vertex_label(0)
        q = LabeledGraph([lab], [])
        result = GSIEngine(small_graph).match(q)
        expect = sum(1 for v in range(small_graph.num_vertices)
                     if small_graph.vertex_label(v) == lab)
        assert result.num_matches == expect

    def test_empty_query_rejected(self, small_graph):
        with pytest.raises(GraphError):
            GSIEngine(small_graph).match(LabeledGraph([], []))

    def test_repeated_calls_independent(self, small_graph):
        engine = GSIEngine(small_graph)
        q = random_walk_query(small_graph, 4, seed=2)
        r1 = engine.match(q)
        r2 = engine.match(q)
        assert r1.match_set() == r2.match_set()
        assert r1.elapsed_ms == pytest.approx(r2.elapsed_ms)
        assert r1.counters.gld == r2.counters.gld


class TestResultMetadata:
    def test_phases_sum_to_total(self, small_graph):
        q = random_walk_query(small_graph, 4, seed=3)
        r = GSIEngine(small_graph).match(q)
        assert r.phases.total_ms == pytest.approx(r.elapsed_ms)
        assert r.phases.filter_ms > 0
        assert r.phases.join_ms > 0

    def test_candidate_sizes_recorded(self, small_graph):
        q = random_walk_query(small_graph, 4, seed=3)
        r = GSIEngine(small_graph).match(q)
        assert set(r.candidate_sizes) == set(range(4))
        assert r.min_candidate_size == min(r.candidate_sizes.values())

    def test_join_order_is_permutation(self, small_graph):
        q = random_walk_query(small_graph, 5, seed=1)
        r = GSIEngine(small_graph).match(q)
        assert sorted(r.join_order) == list(range(5))

    def test_engine_name(self, small_graph):
        q = random_walk_query(small_graph, 3, seed=1)
        assert GSIEngine(small_graph).match(q).engine == "GSI"


class TestBudget:
    def test_tiny_budget_times_out(self, small_graph):
        q = random_walk_query(small_graph, 5, seed=1)
        cfg = GSIConfig(budget_ms=0.0001)
        r = GSIEngine(small_graph, cfg).match(q)
        assert r.timed_out
        assert r.matches == []

    def test_row_cap_times_out(self, small_graph):
        q = random_walk_query(small_graph, 5, seed=1)
        from dataclasses import replace
        cfg = replace(GSIConfig(), max_intermediate_rows=1)
        r = GSIEngine(small_graph, cfg).match(q)
        assert r.timed_out


class TestPhasesOnEveryBranch:
    """``phases.total_ms == elapsed_ms`` however execution ends."""

    @staticmethod
    def _check(engine, q):
        prepared = engine.prepare(q)
        r = engine.execute(prepared)
        assert r.phases.total_ms == pytest.approx(r.elapsed_ms, rel=1e-12)
        assert r.elapsed_ms > 0
        return prepared, r

    def test_row_cap_abort_keeps_filter_ms(self, small_graph):
        from dataclasses import replace
        q = random_walk_query(small_graph, 5, seed=1)
        engine = GSIEngine(small_graph,
                           replace(GSIConfig(), max_intermediate_rows=5))
        prepared, r = self._check(engine, q)
        assert r.timed_out
        assert r.phases.filter_ms == prepared.filter_ms > 0
        assert r.phases.join_ms > 0

    def test_budget_abort_in_join_keeps_filter_ms(self, small_graph):
        q = random_walk_query(small_graph, 5, seed=1)
        full = GSIEngine(small_graph).match(q)
        budget = (full.phases.filter_ms + full.elapsed_ms) / 2
        engine = GSIEngine(small_graph, GSIConfig(budget_ms=budget))
        prepared, r = self._check(engine, q)
        assert r.timed_out and not prepared.timed_out
        assert r.phases.filter_ms == prepared.filter_ms > 0
        assert r.phases.join_ms > 0

    def test_filter_abort_is_all_filter_time(self, small_graph):
        q = random_walk_query(small_graph, 5, seed=1)
        engine = GSIEngine(small_graph, GSIConfig(budget_ms=0.0001))
        prepared, r = self._check(engine, q)
        assert r.timed_out and prepared.timed_out
        assert r.phases.filter_ms == r.elapsed_ms
        assert r.phases.join_ms == 0

    def test_empty_candidates_is_all_filter_time(self, small_graph):
        _, r = self._check(GSIEngine(small_graph), LabeledGraph([999], []))
        assert not r.timed_out
        assert r.phases.join_ms == 0


class TestFilterOnly:
    def test_filter_only_result(self, small_graph):
        q = random_walk_query(small_graph, 4, seed=2)
        engine = GSIEngine(small_graph)
        r = engine.filter_only(q)
        assert r.candidate_sizes
        assert r.phases.join_ms == 0
        assert r.elapsed_ms > 0

    def test_candidate_sets_helper(self, small_graph):
        q = random_walk_query(small_graph, 4, seed=2)
        cands = GSIEngine(small_graph).prepare(q).candidates
        assert set(cands) == set(range(4))


class TestConfigurations:
    @pytest.mark.parametrize("preset", ["baseline", "with_ds", "with_pc",
                                        "gsi", "with_lb", "gsi_opt"])
    def test_all_presets_correct(self, small_graph, preset):
        q = random_walk_query(small_graph, 4, seed=4)
        ref = brute_force_matches(q, small_graph)
        cfg = getattr(GSIConfig, preset)()
        assert GSIEngine(small_graph, cfg).match(q).match_set() == ref

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_signature_sizes_correct(self, small_graph, bits):
        q = random_walk_query(small_graph, 4, seed=4)
        ref = brute_force_matches(q, small_graph)
        cfg = GSIConfig(signature_bits=bits)
        assert GSIEngine(small_graph, cfg).match(q).match_set() == ref

    def test_row_first_layout_same_results_higher_cost(self, small_graph):
        q = random_walk_query(small_graph, 4, seed=4)
        col = GSIEngine(small_graph,
                        GSIConfig(column_first_signatures=True)).match(q)
        row = GSIEngine(small_graph,
                        GSIConfig(column_first_signatures=False)).match(q)
        assert col.match_set() == row.match_set()
        assert col.counters.labeled_gld["filter"] \
            < row.counters.labeled_gld["filter"]
