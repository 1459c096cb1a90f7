"""Per-row vs vectorized join lanes on a dense-candidate workload.

Not a paper table — this measures the host-side execution strategy of
the *same* simulated GPU algorithm.  Both lanes run one step function
(:func:`repro.core.join.execute_join_step`) and one edge pass
(:func:`repro.core.kernels._edge_pass`) over an ``(n, w)`` int64
intermediate table: the same neighbor fetch, the same cost model, the
same prealloc, link and two-step array code, and so identical memory
transactions on the meter.  They differ only in the function that
computes the per-row buffers:

* **rows**: one ``np.isin`` / ``np.intersect1d`` per intermediate row
  (``repro.core.kernels._rows_buffers``).
* **vector**: one gather and membership pass per edge over the whole
  intermediate table (``repro.core.kernels._vector_buffers``).

The workload is built to stress the regime the vector lane exists for:
a small dense graph with few labels (so candidate sets are fat) and
cyclic queries (so late steps carry multiple linking edges and large
intermediate tables that the closing edges then prune).  Every query is
differentially checked — match sets byte-identical, the whole
``MeterSnapshot`` (per-label GLD and kernel launches included) and
simulated latency identical — so the wall-clock column is a pure
host-efficiency comparison of the two buffer functions, never a
correctness trade.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.bench.reporting import render_table
from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import LabeledGraph

from bench_common import record_report, write_bench_json

GRAPH_VERTICES = int(os.environ.get("GSI_BENCH_JOIN_VERTICES", "150"))
EDGES_PER_VERTEX = int(os.environ.get("GSI_BENCH_JOIN_EPV", "8"))

LANES: Tuple[str, ...] = ("rows", "vector")


def _dense_workload(num_vertices: int = GRAPH_VERTICES,
                    quick: bool = False
                    ) -> Tuple[LabeledGraph, List[LabeledGraph],
                               List[str]]:
    """A few-label dense graph plus cyclic queries over it.

    Query labels are sampled from real graph vertices so every shape
    has matches; cycles and chordal cycles keep the *final* match sets
    moderate while the path-shaped prefixes blow up the intermediate
    tables — exactly where per-row dispatch overhead concentrates.
    """
    graph = scale_free_graph(num_vertices, EDGES_PER_VERTEX,
                             num_vertex_labels=3, num_edge_labels=1,
                             seed=7)
    labels = graph.vertex_labels

    def cycle(vs: Sequence[int]) -> LabeledGraph:
        n = len(vs)
        return LabeledGraph([labels[v] for v in vs],
                            [(i, (i + 1) % n, 0) for i in range(n)])

    def chordal(vs: Sequence[int]) -> LabeledGraph:
        n = len(vs)
        return LabeledGraph([labels[v] for v in vs],
                            [(i, (i + 1) % n, 0) for i in range(n)]
                            + [(0, 2, 0)])

    shapes = [("4-cycle", cycle([0, 1, 2, 3])),
              ("chordal-4", chordal([0, 1, 2, 3])),
              ("5-cycle", cycle([2, 3, 4, 5, 6])),
              ("chordal-5", chordal([3, 4, 5, 6, 7])),
              ("6-cycle", cycle([1, 2, 3, 4, 5, 6]))]
    if quick:
        shapes = shapes[:3]
    return graph, [q for _, q in shapes], [name for name, _ in shapes]


def run_join_kernels(num_vertices: int = GRAPH_VERTICES,
                     quick: bool = False) -> Tuple[Dict, str]:
    """Run the workload once per lane; differentially compare.

    Returns ``(outcomes, table)``.  ``outcomes`` maps lane name to
    per-query wall-clock, match sets, meter snapshots,
    simulated-transaction totals and simulated latency; the rows/vector
    entries must agree on everything except wall-clock.
    """
    graph, queries, names = _dense_workload(num_vertices, quick=quick)
    outcomes: Dict[str, Dict[str, list]] = {}
    for lane in LANES:
        cfg = replace(GSIConfig.gsi_opt(), join_kernel=lane)
        engine = GSIEngine(graph, cfg)
        wall_ms, matches, tx, sim_ms, counters = [], [], [], [], []
        for query in queries:
            t0 = time.perf_counter()
            result = engine.match(query)
            wall_ms.append((time.perf_counter() - t0) * 1000.0)
            matches.append(frozenset(result.matches))
            c = result.counters
            counters.append(c)
            tx.append(c.gld + c.gst + c.shared)
            sim_ms.append(result.elapsed_ms)
        outcomes[lane] = {"wall_ms": wall_ms, "matches": matches,
                          "counters": counters, "tx": tx,
                          "sim_ms": sim_ms}

    rows_arm = outcomes["rows"]
    for lane in LANES[1:]:
        arm = outcomes[lane]
        assert arm["matches"] == rows_arm["matches"], (
            f"{lane} lane changed a match set")
        assert arm["counters"] == rows_arm["counters"], (
            f"{lane} lane changed a meter snapshot")
        assert arm["sim_ms"] == rows_arm["sim_ms"], (
            f"{lane} lane changed the simulated latency")

    table_rows = []
    for i, name in enumerate(names):
        r_ms = rows_arm["wall_ms"][i]
        v_ms = outcomes["vector"]["wall_ms"][i]
        table_rows.append([
            name, len(rows_arm["matches"][i]),
            f"{r_ms:.0f}", f"{v_ms:.0f}",
            f"{r_ms / max(v_ms, 1e-9):.1f}x",
            rows_arm["tx"][i],
            "yes",
        ])
    total_rows = sum(rows_arm["wall_ms"])
    total_vec = sum(outcomes["vector"]["wall_ms"])
    table_rows.append([
        "TOTAL", sum(len(m) for m in rows_arm["matches"]),
        f"{total_rows:.0f}", f"{total_vec:.0f}",
        f"{total_rows / max(total_vec, 1e-9):.1f}x",
        sum(rows_arm["tx"]), "yes",
    ])
    table = render_table(
        f"join lanes on dense-candidate cyclic queries "
        f"(|V|={graph.num_vertices}, |E|={graph.num_edges}, "
        f"3 vertex labels, lanes: {', '.join(LANES)})",
        ["query", "matches", "rows ms", "vector ms", "wall win",
         "sim tx", "identical"],
        table_rows,
        note="wall ms is host time; the match sets and whole meter "
             "snapshots ('sim tx' = gld+gst+shared) are asserted "
             "byte-identical across lanes — the lanes differ only in "
             "the host buffer function")
    return outcomes, table


@pytest.fixture(scope="module")
def join_kernel_comparison():
    outcomes, table = run_join_kernels(quick=True)
    record_report("join_kernels", table)
    return outcomes


def test_lanes_byte_identical(join_kernel_comparison):
    rows_arm = join_kernel_comparison["rows"]
    vec_arm = join_kernel_comparison["vector"]
    assert vec_arm["matches"] == rows_arm["matches"]
    assert vec_arm["counters"] == rows_arm["counters"]
    assert vec_arm["sim_ms"] == rows_arm["sim_ms"]


def test_vector_beats_rows_wall_clock(join_kernel_comparison):
    # Acceptance: on the dense-candidate workload the bulk lane must
    # win host wall-clock in aggregate (per-query jitter is allowed).
    rows_ms = sum(join_kernel_comparison["rows"]["wall_ms"])
    vec_ms = sum(join_kernel_comparison["vector"]["wall_ms"])
    assert vec_ms < rows_ms, (
        f"vector lane must beat the per-row lane on host wall-clock "
        f"({vec_ms:.0f}ms vs {rows_ms:.0f}ms)")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="per-row vs vectorized join-lane benchmark")
    parser.add_argument("--vertices", type=int, default=GRAPH_VERTICES)
    parser.add_argument("--quick", action="store_true",
                        help="run the 3-query subset")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write BENCH_bench_join_kernels.json here "
                             "(a directory, or an exact .json path)")
    cli_args = parser.parse_args()
    bench_outcomes, report_table = run_join_kernels(
        cli_args.vertices, quick=cli_args.quick)
    print(report_table)
    rows_total = sum(bench_outcomes["rows"]["wall_ms"])
    vec_total = sum(bench_outcomes["vector"]["wall_ms"])
    assert vec_total < rows_total, (
        f"vector lane lost on wall-clock: {vec_total:.0f}ms vs "
        f"{rows_total:.0f}ms")
    print(f"OK: match sets and meter snapshots identical; "
          f"vector lane {rows_total / vec_total:.1f}x faster on host "
          f"wall-clock")
    if cli_args.json is not None:
        payload = {
            "bench": "bench_join_kernels",
            "params": {"vertices": cli_args.vertices,
                       "quick": cli_args.quick,
                       "lanes": list(LANES)},
            "lanes": {
                lane: {"wall_ms": arm["wall_ms"],
                       "sim_tx": arm["tx"],
                       "matches": [len(m) for m in arm["matches"]]}
                for lane, arm in bench_outcomes.items()
            },
            "identical": True,
        }
        written = write_bench_json("bench_join_kernels", payload,
                                   cli_args.json)
        print(f"wrote {written}")
