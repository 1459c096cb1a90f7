"""Tests for MatchResult and PhaseBreakdown."""

import pickle

import numpy as np

from repro.core.result import MatchResult, PhaseBreakdown
from repro.gpusim.meter import MeterSnapshot


class TestMatchResult:
    def test_defaults(self):
        r = MatchResult()
        assert r.num_matches == 0
        assert r.min_candidate_size is None
        assert not r.timed_out
        assert r.match_set() == set()

    def test_num_matches(self):
        r = MatchResult(matches=[(1, 2), (3, 4)])
        assert r.num_matches == 2
        assert r.match_set() == {(1, 2), (3, 4)}

    def test_min_candidate_size(self):
        r = MatchResult(candidate_sizes={0: 5, 1: 2, 2: 9})
        assert r.min_candidate_size == 2

    def test_counters_default_snapshot(self):
        assert isinstance(MatchResult().counters, MeterSnapshot)


def _tuples_built(result: MatchResult) -> bool:
    return vars(result)["_tuples"] is not None


class TestMatchViews:
    """``rows`` (one int64 array) and ``matches`` (tuples), one store.

    ``tests/test_join_golden.py`` checks a GSI result's views: its
    match order against the tuple build the column permutation
    replaced, and its match set against the oracle.
    """

    def test_matches_keyword_and_assignment(self):
        r = MatchResult(matches=[(1, 2), (3, 4)], engine="VF2")
        assert r.rows.dtype == np.int64
        assert r.rows.tolist() == [[1, 2], [3, 4]]
        r.matches = [(5, 6, 7)]
        assert r.num_matches == 1
        assert r.rows.tolist() == [[5, 6, 7]]
        assert r.match_set() == {(5, 6, 7)}
        r.rows = np.array([[8, 9]], dtype=np.int64)
        assert r.matches == [(8, 9)]

    def test_assigned_list_is_kept(self):
        kept = [(1, 2)]
        r = MatchResult()
        r.matches = kept
        assert r.matches is kept

    def test_num_matches_builds_no_tuples(self):
        r = MatchResult(rows=np.arange(12, dtype=np.int64).reshape(4, 3))
        assert r.num_matches == 4
        assert not _tuples_built(r)
        assert r.matches[1] == (3, 4, 5)
        assert all(type(x) is int for x in r.matches[1])
        assert _tuples_built(r)

    def test_empty_results(self):
        for r in (MatchResult(),
                  MatchResult(rows=np.empty((0, 3), dtype=np.int64))):
            assert r.num_matches == 0
            assert r.matches == []
            assert r.match_set() == set()
            assert r.rows.shape[0] == 0
            back = pickle.loads(pickle.dumps(r))
            assert back.num_matches == 0 and back.matches == []

    def test_pickle_ships_the_array_only(self):
        rows = np.random.default_rng(3).integers(
            0, 4000, size=(20_000, 5), dtype=np.int64)
        r = MatchResult(rows=rows, elapsed_ms=1.5, engine="GSI",
                        candidate_sizes={0: 7}, join_order=[1, 0])
        tuples = r.matches  # build the tuple cache before pickling
        blob = pickle.dumps(r)
        assert rows.nbytes < len(blob) < rows.nbytes + 1024
        back = pickle.loads(blob)
        assert not _tuples_built(back)
        assert np.array_equal(back.rows, rows)
        assert back.matches == tuples
        assert (back.elapsed_ms, back.engine, back.candidate_sizes,
                back.join_order) == (1.5, "GSI", {0: 7}, [1, 0])
        assert _tuples_built(r)  # pickling leaves the original alone

    def test_tuple_built_result_pickles_as_array(self):
        r = MatchResult(matches=[(1, 2), (3, 4)])
        back = pickle.loads(pickle.dumps(r))
        assert not _tuples_built(back)
        assert back.matches == [(1, 2), (3, 4)]


class TestPhaseBreakdown:
    def test_total(self):
        p = PhaseBreakdown(filter_ms=1.5, join_ms=2.5)
        assert p.total_ms == 4.0

    def test_zero(self):
        assert PhaseBreakdown().total_ms == 0.0
