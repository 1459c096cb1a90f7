"""Streaming updates: incremental maintenance vs. rebuild-and-rerun.

Not a paper table — this measures the dynamic subsystem.  Two arms
serve the same continuous queries over the same update stream:

* **incremental**: one :class:`StreamEngine` maintains the signature
  table and PCSR partitions in place and emits per-batch delta matches.
* **rebuild**: after every batch, a cold :class:`GSIEngine` is built
  over the committed snapshot (full signature table + full PCSR) and
  every registered query re-runs from scratch.

Both arms are differentially checked against each other at the end of
every stream, then compared on host wall-clock and simulated memory
transactions, across update-batch sizes.  The paper's PCSR hash-group
layout was chosen *because* it admits in-place insertion; this is where
that claim becomes a measurement.

**Commit-heavy mode** (``python benchmarks/bench_stream_updates.py
--commit-heavy``, or the ``commit_heavy``-prefixed pytest cases)
isolates the snapshot-commit path itself: an O(changes) CSR splice
(:meth:`LabeledGraph.apply_changes`) versus the old full CSR rebuild,
on a ~100k-edge graph, proving commit transactions scale with the
change set, not with ``|E|``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench.reporting import render_table
from repro.core.engine import GSIEngine
from repro.dynamic import (
    DynamicGraph,
    StreamEngine,
    full_commit_transactions,
    full_rebuild_transactions,
    random_update_stream,
)
from repro.gpusim.meter import MemoryMeter
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph

from bench_common import record_report, write_bench_json

NUM_BATCHES = int(os.environ.get("GSI_BENCH_STREAM_BATCHES", "4"))
BATCH_SIZES = [1, 8, 32]
GRAPH_VERTICES = int(os.environ.get("GSI_BENCH_STREAM_VERTICES", "1200"))
NUM_QUERIES = 3

COMMIT_EDGES = int(os.environ.get("GSI_BENCH_COMMIT_EDGES", "100000"))
COMMIT_BATCHES = int(os.environ.get("GSI_BENCH_COMMIT_BATCHES", "4"))
COMMIT_BATCH_SIZES = [1, 4, 16]


@pytest.fixture(scope="module")
def stream_comparison():
    graph = scale_free_graph(GRAPH_VERTICES, 4, 5, 6, seed=9)
    queries = [random_walk_query(graph, 4, seed=s)
               for s in range(NUM_QUERIES)]

    rows = []
    outcomes = {}
    for batch_size in BATCH_SIZES:
        stream = random_update_stream(
            graph, num_batches=NUM_BATCHES, batch_size=batch_size,
            seed=batch_size)

        # --- incremental arm -----------------------------------------
        engine = StreamEngine(graph)
        qids = [engine.register(q) for q in queries]
        t0 = time.perf_counter()
        inc_tx = 0
        for delta in stream:
            report = engine.apply_batch(delta)
            inc_tx += (report.maintenance.gld + report.maintenance.gst
                       + report.commit_transactions)
        inc_ms = (time.perf_counter() - t0) * 1000.0
        inc_sets = [engine.matches(qid) for qid in qids]

        # --- rebuild-and-rerun arm -----------------------------------
        shadow = DynamicGraph(graph)
        t0 = time.perf_counter()
        reb_tx = 0
        reb_sets = None
        for delta in stream:
            shadow.apply(delta)
            snapshot = shadow.commit().snapshot
            cold = GSIEngine(snapshot)
            reb_tx += (full_rebuild_transactions(snapshot)
                       + full_commit_transactions(snapshot))
            reb_sets = [cold.match(q).match_set() for q in queries]
        reb_ms = (time.perf_counter() - t0) * 1000.0

        assert reb_sets is not None
        for a, b in zip(inc_sets, reb_sets):
            assert a == b, "incremental and rebuild arms disagree"

        outcomes[batch_size] = {
            "inc_ms": inc_ms, "reb_ms": reb_ms,
            "inc_tx": inc_tx, "reb_tx": reb_tx,
        }
        rows.append([
            batch_size,
            f"{inc_ms:.0f}", f"{reb_ms:.0f}",
            f"{reb_ms / inc_ms:.1f}x",
            inc_tx, reb_tx,
            f"{reb_tx / max(1, inc_tx):.1f}x",
        ])

    table = render_table(
        f"incremental vs rebuild over {NUM_BATCHES}-batch streams "
        f"(|V|={GRAPH_VERTICES}, {NUM_QUERIES} continuous queries)",
        ["batch size", "inc ms", "rebuild ms", "wall win",
         "inc tx", "rebuild tx", "tx win"],
        rows,
        note="tx = simulated maintenance transactions (gld+gst); the "
             "rebuild arm pays a full signature-table + PCSR "
             "construction per batch")
    record_report("stream_updates", table)
    return outcomes


def test_incremental_beats_rebuild_on_small_batches(stream_comparison):
    small = stream_comparison[BATCH_SIZES[0]]
    assert small["inc_tx"] < small["reb_tx"], (
        "incremental maintenance must cost fewer simulated transactions "
        "than a per-batch full rebuild for single-update batches")
    assert small["inc_ms"] < small["reb_ms"], (
        "incremental maintenance + delta matching must beat "
        "rebuild-and-rerun wall-clock for single-update batches")


def test_incremental_transaction_win_shrinks_with_batch_size(
        stream_comparison):
    # Larger batches amortize the rebuild, so the per-stream tx ratio
    # must be monotonically less favorable to the incremental arm.
    ratios = [stream_comparison[b]["reb_tx"]
              / max(1, stream_comparison[b]["inc_tx"])
              for b in BATCH_SIZES]
    assert ratios[0] > ratios[-1]


def test_both_arms_agree(stream_comparison):
    # The fixture already differentially compared the match sets; this
    # test exists so a disagreement fails attributably even when the
    # perf assertions would pass.
    assert set(stream_comparison) == set(BATCH_SIZES)


# ----------------------------------------------------------------------
# Commit-heavy mode: the snapshot-commit path in isolation
# ----------------------------------------------------------------------

def _commit_graph(num_edges: int) -> LabeledGraph:
    epv = 4
    return scale_free_graph(max(8, num_edges // epv), epv, 6, 6, seed=17)


def _measure_commits(graph: LabeledGraph, batch_size: int,
                     num_batches: int) -> dict:
    """Drive the same stream through the patch-commit path and the old
    full-rebuild path; return transactions + wall-clock for both."""
    stream = random_update_stream(graph, num_batches=num_batches,
                                  batch_size=batch_size,
                                  seed=batch_size)

    meter = MemoryMeter()
    dyn = DynamicGraph(graph, meter=meter)
    t0 = time.perf_counter()
    patch_tx = 0
    last = None
    for delta in stream:
        dyn.apply(delta)
        commit = dyn.commit()
        patch_tx += commit.commit_transactions
        last = commit.snapshot
    patch_ms = (time.perf_counter() - t0) * 1000.0

    shadow = DynamicGraph(graph)
    t0 = time.perf_counter()
    rebuild_tx = 0
    rebuilt = None
    for delta in stream:
        shadow.apply(delta)
        snapshot = shadow.commit().snapshot
        # Replicate the pre-patch commit: a from-scratch CSR build.
        rebuilt = LabeledGraph(snapshot.vertex_labels,
                               list(snapshot.edges()))
        rebuild_tx += full_commit_transactions(snapshot)
    rebuild_ms = (time.perf_counter() - t0) * 1000.0

    assert last is not None and rebuilt is not None
    assert np.array_equal(last._offsets, rebuilt._offsets)
    assert np.array_equal(last._nbr, rebuilt._nbr)
    assert np.array_equal(last._elab, rebuilt._elab)
    return {"patch_tx": patch_tx, "rebuild_tx": rebuild_tx,
            "patch_ms": patch_ms, "rebuild_ms": rebuild_ms,
            "edges": graph.num_edges}


def run_commit_heavy(num_edges: int = COMMIT_EDGES,
                     num_batches: int = COMMIT_BATCHES):
    """Commit-heavy comparison across batch sizes and two graph scales.

    Returns ``(outcomes, table)`` where outcomes maps batch size to the
    100%-scale measurements plus a ``quarter`` entry at |E|/4 used for
    the sublinearity check.
    """
    graph = _commit_graph(num_edges)
    quarter = _commit_graph(num_edges // 4)
    outcomes = {}
    rows = []
    for batch_size in COMMIT_BATCH_SIZES:
        full = _measure_commits(graph, batch_size, num_batches)
        small = _measure_commits(quarter, batch_size, num_batches)
        full["quarter"] = small
        outcomes[batch_size] = full
        rows.append([
            batch_size,
            full["patch_tx"], full["rebuild_tx"],
            f"{full['rebuild_tx'] / max(1, full['patch_tx']):.0f}x",
            f"{full['patch_tx'] / max(1, small['patch_tx']):.1f}x",
            f"{full['rebuild_tx'] / max(1, small['rebuild_tx']):.1f}x",
            f"{full['patch_ms'] / small['patch_ms']:.1f}x",
            f"{full['patch_ms']:.0f}", f"{full['rebuild_ms']:.0f}",
        ])
    table = render_table(
        f"commit-heavy: O(changes) CSR splice vs full rebuild "
        f"(|E|={graph.num_edges}, {num_batches} commits per stream)",
        ["batch size", "patch tx", "rebuild tx", "tx win",
         "patch 4x|E| growth", "rebuild 4x|E| growth",
         "patch ms 4x|E| growth", "patch ms", "rebuild ms"],
        rows,
        note="'4x|E| growth' compares the same stream on a graph 4x "
             "larger: patch commits barely move (O(changes)); rebuild "
             "commits scale with |E|.  'patch ms 4x|E| growth' is the "
             "same ratio of host wall time (reported, not asserted; "
             "the first batch size's runs include warm-up)")
    return outcomes, table


@pytest.fixture(scope="module")
def commit_heavy_comparison():
    outcomes, table = run_commit_heavy()
    record_report("stream_commit_heavy", table)
    return outcomes


def test_commit_heavy_patch_beats_rebuild_5x(commit_heavy_comparison):
    # Acceptance: >= 5x fewer commit transactions than the rebuild path
    # for batches of <= 16 updates on a ~100k-edge graph.
    for batch_size, out in commit_heavy_comparison.items():
        assert batch_size <= 16
        assert out["rebuild_tx"] >= 5 * out["patch_tx"], (
            f"batch={batch_size}: patch commit must be >=5x cheaper "
            f"({out['patch_tx']} vs {out['rebuild_tx']} tx)")


def test_commit_tx_scale_with_changes_not_graph(commit_heavy_comparison):
    # Growing |E| 4x leaves patch-commit transactions nearly flat while
    # rebuild-commit transactions grow ~4x: commits are O(changes).
    for out in commit_heavy_comparison.values():
        patch_growth = out["patch_tx"] / max(1, out["quarter"]["patch_tx"])
        rebuild_growth = (out["rebuild_tx"]
                          / max(1, out["quarter"]["rebuild_tx"]))
        assert patch_growth < 2.0, patch_growth
        assert rebuild_growth > 3.0, rebuild_growth


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="streaming-update benchmarks")
    parser.add_argument("--commit-heavy", action="store_true",
                        help="run the commit-path comparison "
                             "(O(changes) splice vs full rebuild)")
    parser.add_argument("--edges", type=int, default=COMMIT_EDGES)
    parser.add_argument("--batches", type=int, default=COMMIT_BATCHES)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the mode's BENCH_*.json here "
                             "(a directory, or an exact .json path)")
    cli_args = parser.parse_args()
    if cli_args.commit_heavy:
        _, report_table = run_commit_heavy(cli_args.edges,
                                           cli_args.batches)
        print(report_table)
        if cli_args.json is not None:
            written = write_bench_json(
                "stream_commit_heavy",
                {"bench": "stream_commit_heavy",
                 "params": {"edges": cli_args.edges,
                            "batches": cli_args.batches},
                 "table": report_table},
                cli_args.json)
            print(f"wrote {written}")
    else:
        parser.error("pass --commit-heavy (the stream comparison runs "
                     "under pytest: python -m pytest "
                     "benchmarks/bench_stream_updates.py)")
