"""Differential tests for the two join lanes (repro.core.kernels).

The contract is byte-identity: for every config preset, every executor
and every workload, ``join_kernel="vector"`` must reproduce the per-row
lane's match sets, meter totals, simulated latency and cache accounting
exactly.  The lanes share the neighbor fetch, the cost model, prealloc,
link and the two-step write, and differ only in the function that
computes the per-row buffers, which ``test_buffer_functions_agree`` pins
directly; ``test_join_golden.py`` pins both lanes to costs recorded from
the per-row join.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.core.kernels import (
    DistinctNeighbors,
    _rows_buffers,
    _segment_membership,
    _shared_hit_mask,
    _vector_buffers,
)
from repro.core.set_ops import CandidateSet
from repro.errors import ConfigError
from repro.gpusim.constants import WARPS_PER_BLOCK
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.service.batch import BatchEngine
from repro.service.executors import make_executor

sys.path.insert(0, "tests")
from dataclasses import replace  # noqa: E402
from fuzz.fuzz_harness import run_fuzz  # noqa: E402

from oracle import sharing_assignment  # noqa: E402

PRESETS = {
    "baseline": GSIConfig.baseline,
    "with_ds": GSIConfig.with_ds,
    "with_pc": GSIConfig.with_pc,
    "with_so": GSIConfig.with_so,
    "gsi": GSIConfig.gsi,
    "with_lb": GSIConfig.with_lb,
    "gsi_opt": GSIConfig.gsi_opt,
}

LANES = ["vector"]


@pytest.fixture(scope="module")
def graph():
    return scale_free_graph(num_vertices=120, edges_per_vertex=4,
                            num_vertex_labels=3, num_edge_labels=2,
                            seed=11)


@pytest.fixture(scope="module")
def queries(graph):
    # extra_edges > 0 forces multi-linking-edge steps (refine path).
    return [random_walk_query(graph, num_vertices=k, seed=s,
                              extra_edges=e)
            for k in (3, 4, 5) for s in (0, 1) for e in (0, 2)]


def _identical(a, b):
    assert a.matches == b.matches
    assert a.counters == b.counters
    assert a.elapsed_ms == b.elapsed_ms
    assert a.timed_out == b.timed_out


class TestConfigKnob:
    def test_default_is_rows(self):
        assert GSIConfig().join_kernel in ("rows", "vector")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("GSI_JOIN_KERNEL", "vector")
        assert GSIConfig().join_kernel == "vector"
        monkeypatch.delenv("GSI_JOIN_KERNEL")
        assert GSIConfig().join_kernel == "rows"

    def test_invalid_rejected(self):
        # "numba" named a removed JIT lane.
        for lane in ("cuda", "numba"):
            with pytest.raises(ConfigError):
                GSIConfig(join_kernel=lane)

    def test_presets_accept_override(self):
        cfg = replace(GSIConfig.gsi_opt(), join_kernel="vector")
        assert cfg.join_kernel == "vector"


class TestHelpers:
    def test_shared_hit_mask_matches_sharing_assignment(self):
        rng = np.random.default_rng(5)
        vcol = rng.integers(0, 9, size=3 * WARPS_PER_BLOCK + 7)
        expect = np.zeros(len(vcol), dtype=bool)
        for start in range(0, len(vcol), WARPS_PER_BLOCK):
            block = [int(x) for x in vcol[start:start + WARPS_PER_BLOCK]]
            addr = sharing_assignment(block)
            for off, a in enumerate(addr):
                expect[start + off] = a != off
        assert np.array_equal(_shared_hit_mask(vcol), expect)

    def test_segment_membership_matches_intersect1d(self):
        rng = np.random.default_rng(6)
        segments = [np.unique(rng.integers(0, 40, size=n))
                    for n in (0, 3, 10, 25)]
        lens = np.array([len(s) for s in segments], dtype=np.int64)
        starts = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum(lens, out=starts[1:])
        concat = np.concatenate(segments)
        bufs = [np.unique(rng.integers(0, 40, size=8)) for _ in range(12)]
        seg_of_row = rng.integers(0, len(segments), size=len(bufs))
        values = np.concatenate(bufs)
        seg_of = np.repeat(seg_of_row,
                           [len(b) for b in bufs]).astype(np.int64)
        got = _segment_membership(values, seg_of, starts, lens, concat)
        pos = 0
        for b, s in zip(bufs, seg_of_row):
            expect = np.intersect1d(b, segments[s], assume_unique=True)
            assert np.array_equal(b[got[pos:pos + len(b)]], expect)
            pos += len(b)


def _distinct_lists(adjacency, vcol):
    """``vcol``'s distinct vertices' lists, as ``_distinct_neighbors``
    returns them, where ``adjacency[v]`` is ``N(v, l)``; unit charges."""
    uniq, inv = np.unique(vcol, return_inverse=True)
    lists = [sorted(adjacency[v]) for v in uniq.tolist()]
    lens = np.array([len(nbrs) for nbrs in lists], dtype=np.int64)
    ones = np.ones(len(uniq), dtype=np.int64)
    concat = np.array([v for nbrs in lists for v in nbrs], dtype=np.int64)
    return DistinctNeighbors(inv, concat, np.cumsum(lens) - lens, lens,
                             ones, ones, lens)


_IDS = st.integers(0, 19)


@pytest.mark.parametrize("first", [True, False], ids=["edge0", "refine"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_buffer_functions_agree(first, data):
    """The rows and vector buffer functions return identical
    ``(flat, counts, len_keep)`` for any table, ``C(u)``, neighbor lists
    and incoming (sorted-unique) buffers."""
    num_rows = data.draw(st.integers(1, 24), label="rows")
    width = data.draw(st.integers(1, 4), label="width")
    table = np.array(
        data.draw(st.lists(st.lists(_IDS, min_size=width, max_size=width),
                           min_size=num_rows, max_size=num_rows),
                  label="table"), dtype=np.int64)
    adjacency = data.draw(st.lists(st.sets(_IDS, max_size=12),
                                   min_size=20, max_size=20),
                          label="adjacency")
    col = data.draw(st.integers(0, width - 1), label="bound column")
    nbrs = _distinct_lists(adjacency, table[:, col])
    cand = CandidateSet(np.array(sorted(data.draw(st.sets(_IDS),
                                                  label="C(u)")),
                                 dtype=np.int64))
    bufs = data.draw(st.lists(st.sets(_IDS, max_size=10),
                              min_size=num_rows, max_size=num_rows),
                     label="incoming buffers")
    flat = np.array([v for b in bufs for v in sorted(b)], dtype=np.int64)
    counts = np.array([len(b) for b in bufs], dtype=np.int64)
    got_rows = _rows_buffers(table, nbrs, cand, flat, counts, first)
    got_vec = _vector_buffers(table, nbrs, cand, flat, counts, first)
    for a, b in zip(got_rows, got_vec):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


class TestLaneDifferential:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("lane", LANES)
    def test_presets_byte_identical(self, graph, queries, preset, lane):
        rows_cfg = replace(PRESETS[preset](), join_kernel="rows")
        lane_cfg = replace(PRESETS[preset](), join_kernel=lane)
        e_rows = GSIEngine(graph, rows_cfg)
        e_lane = GSIEngine(graph, lane_cfg)
        for q in queries:
            _identical(e_rows.match(q), e_lane.match(q))

    def test_budget_abort_identical(self, graph, queries):
        for budget in (0.001, 0.01):
            base = replace(GSIConfig.gsi_opt(), budget_ms=budget)
            e_rows = GSIEngine(graph, replace(base, join_kernel="rows"))
            e_vec = GSIEngine(graph, replace(base, join_kernel="vector"))
            timed_out = 0
            for q in queries:
                a, b = e_rows.match(q), e_vec.match(q)
                _identical(a, b)
                timed_out += a.timed_out
            if budget == 0.001:
                assert timed_out  # the abort path was actually exercised

    def test_row_limit_abort_identical(self, graph, queries):
        base = replace(GSIConfig.gsi(), max_intermediate_rows=20)
        e_rows = GSIEngine(graph, replace(base, join_kernel="rows"))
        e_vec = GSIEngine(graph, replace(base, join_kernel="vector"))
        for q in queries:
            _identical(e_rows.match(q), e_vec.match(q))

    def test_kernel_records_identical(self, graph, queries):
        # Same kernel names in the same order — scheduling is shared.
        cfg = GSIConfig.gsi_opt()
        ra = GSIEngine(graph, replace(cfg, join_kernel="rows")).match(
            queries[-1])
        rb = GSIEngine(graph, replace(cfg, join_kernel="vector")).match(
            queries[-1])
        assert ra.counters.kernel_launches == rb.counters.kernel_launches

    def test_multi_linking_edge_cycle_queries(self, graph):
        # Explicit cyclic shapes: every late join step carries >= 2
        # linking edges, the refine-heavy regime.
        labels = [graph.vertex_labels[v] for v in range(4)]
        triangle = LabeledGraph(labels[:3],
                                [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        diamond = LabeledGraph(labels,
                               [(0, 1, 0), (1, 2, 0), (2, 3, 0),
                                (0, 3, 0), (0, 2, 0)])
        cfg = GSIConfig.gsi_opt()
        for q in (triangle, diamond):
            _identical(
                GSIEngine(graph, replace(cfg, join_kernel="rows")).match(q),
                GSIEngine(graph, replace(cfg, join_kernel="vector")).match(q))


class TestFuzzSliceUnderVector:
    @pytest.mark.parametrize("profile", ["uniform", "churn"])
    def test_fuzz_profiles_pass_and_agree(self, profile, monkeypatch):
        # run_fuzz self-checks every batch against a brute-force oracle;
        # running it under the vector lane validates the lane end to end
        # (StreamEngine default-constructs GSIConfig, so the env var is
        # the selection mechanism — same as the CI leg).
        monkeypatch.delenv("GSI_JOIN_KERNEL", raising=False)
        rows_report = run_fuzz(9, profile, num_batches=3, batch_size=8)
        monkeypatch.setenv("GSI_JOIN_KERNEL", "vector")
        vec_report = run_fuzz(9, profile, num_batches=3, batch_size=8)
        assert rows_report == vec_report


class TestBatchServiceDifferential:
    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_executors_byte_identical(self, graph, queries, kind):
        # Repeat a query so plan-cache hits are part of the comparison.
        workload = queries[:4] + queries[:2]
        reports = {}
        for lane in ("rows", "vector"):
            cfg = replace(GSIConfig.gsi_opt(), join_kernel=lane)
            with make_executor(kind, 2) as executor, \
                    BatchEngine(graph, cfg, executor=executor) as engine:
                reports[lane] = engine.run_batch(workload)
        a, b = reports["rows"], reports["vector"]
        assert a.cache == b.cache
        for ia, ib in zip(a.items, b.items):
            assert ia.result.matches == ib.result.matches
            assert ia.result.counters == ib.result.counters
            assert ia.result.elapsed_ms == ib.result.elapsed_ms
            assert ia.plan_cached == ib.plan_cached

