"""Differential tests: every engine agrees with the brute-force oracle.

Seeded random graphs and queries run through the GSI engine, the batch
service, and two CPU baselines (VF2, Ullmann); each result set is
asserted equal to :func:`oracle.brute_force_matches`.  A hypothesis
property does the same over arbitrary small labeled graphs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import UllmannEngine, VF2Engine
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.service import BatchEngine

from oracle import brute_force_matches


def all_engine_results(graph, query):
    """(name, match set) for every engine under differential test."""
    out = [
        ("gsi", GSIEngine(graph).match(query).match_set()),
        ("batch", BatchEngine(graph).match(query).match_set()),
        ("vf2", VF2Engine(graph).match(query).match_set()),
        ("ullmann", UllmannEngine(graph).match(query).match_set()),
    ]
    return out


class TestSeededSweep:
    @pytest.mark.parametrize("graph_seed,query_seed", [
        (1, 0), (1, 3), (2, 1), (3, 4), (5, 2), (8, 7),
    ])
    def test_engines_equal_oracle(self, graph_seed, query_seed):
        graph = scale_free_graph(60, 3, 3, 3, seed=graph_seed)
        query = random_walk_query(graph, 4, seed=query_seed)
        expected = brute_force_matches(query, graph)
        for name, got in all_engine_results(graph, query):
            assert got == expected, f"{name} disagrees with the oracle"

    @pytest.mark.parametrize("extra_edges", [0, 1, 2])
    def test_cyclic_queries(self, extra_edges):
        graph = scale_free_graph(50, 3, 2, 2, seed=13)
        query = random_walk_query(graph, 5, seed=1,
                                  extra_edges=extra_edges)
        expected = brute_force_matches(query, graph)
        for name, got in all_engine_results(graph, query):
            assert got == expected, f"{name} disagrees with the oracle"

    def test_batch_engine_whole_workload(self):
        """One BatchEngine over many queries: every result oracle-equal,
        including plan-cache-hit repeats."""
        graph = scale_free_graph(60, 3, 3, 3, seed=21)
        queries = [random_walk_query(graph, 4, seed=s) for s in range(4)]
        queries = queries * 2  # second half hits the plan cache
        service = BatchEngine(graph)
        report = service.run_batch(queries)
        assert report.cache.hits > 0
        for query, result in zip(queries, report.results):
            assert result.match_set() == brute_force_matches(query, graph)


class TestExecutorDeterminism:
    """The same batch under the serial and process executors yields
    identical match sets, transaction totals, and cache stats — and
    both equal the brute-force oracle."""

    def test_identical_across_executors(self):
        from repro.service import make_executor

        graph = scale_free_graph(60, 3, 3, 3, seed=21)
        queries = [random_walk_query(graph, 4, seed=s)
                   for s in range(4)]
        queries = queries * 2  # repeats exercise plan + shape caches
        expected = [brute_force_matches(q, graph) for q in queries]

        reference = None
        for kind in ("serial", "process"):
            with make_executor(kind, 2) as executor, \
                    BatchEngine(graph, executor=executor) as service:
                report = service.run_batch(queries)
            for want, result in zip(expected, report.results):
                assert result.match_set() == want, (
                    f"{kind} executor disagrees with the oracle")
            key = (
                [r.match_set() for r in report.results],
                [r.elapsed_ms for r in report.results],
                report.total_gld, report.total_gst,
                report.total_kernel_launches,
                report.cache,
            )
            if reference is None:
                reference = key
            else:
                assert key == reference, (
                    f"{kind} executor is not deterministic vs serial")


def _dedup_edges(edge_list):
    seen = {}
    for u, v, lab in edge_list:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen[key] = (u, v, lab)
    return list(seen.values())


@settings(max_examples=25, deadline=None)
@given(
    vlabels=st.lists(st.integers(0, 2), min_size=4, max_size=14),
    edge_list=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13),
                  st.integers(0, 1)),
        min_size=3, max_size=30),
    qlabels=st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 2)),
    qelabels=st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_property_engines_equal_oracle(vlabels, edge_list, qlabels,
                                       qelabels):
    n = len(vlabels)
    edges = [(u, v, lab) for u, v, lab in _dedup_edges(edge_list)
             if u < n and v < n]
    graph = LabeledGraph(vlabels, edges)
    # 3-vertex path query with arbitrary labels (always connected).
    query = LabeledGraph(list(qlabels),
                         [(0, 1, qelabels[0]), (1, 2, qelabels[1])])
    expected = brute_force_matches(query, graph)
    for name, got in all_engine_results(graph, query):
        assert got == expected, f"{name} disagrees with the oracle"
