"""Batch service throughput: batched vs. sequential query serving.

Not a paper table — this measures the repo's scaling subsystem.  The
"sequential" arm serves each query the way the seed examples did: a
fresh :class:`GSIEngine` per request, paying signature-table and storage
construction every time.  The "batched" arm serves the same queries from
one :class:`BatchEngine` (artifacts built once, plan cache).  Simulated
per-query measurements are identical in both arms by construction; the
win is host wall-clock.

**Executor comparison** (``python benchmarks/bench_batch_throughput.py
--executor process`` or ``--executor compare``, also the
``executor_comparison``-fixture pytest cases): the same batch runs under
the serial and process-pool executors.  Match sets, simulated
measurements, and cache statistics must be byte-identical — executors
change wall-clock only.  On a multi-core host the process pool is where
Python-heavy joins finally overlap; the table reports each executor's
wall-clock and speedup over serial.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time

import pytest

from repro.bench.reporting import render_table
from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.obs.trace import Tracer, set_tracer
from repro.service import EXECUTOR_KINDS, BatchEngine, make_executor

from bench_common import record_report, write_bench_json

NUM_DISTINCT = 32
NUM_SHAPES_REPEATED = 8
REPEAT_FACTOR = 4

EXEC_QUERIES = int(os.environ.get("GSI_BENCH_EXEC_QUERIES", "24"))
EXEC_VERTICES = int(os.environ.get("GSI_BENCH_EXEC_VERTICES", "400"))
EXEC_WORKERS = int(os.environ.get("GSI_BENCH_EXEC_WORKERS", "4"))

#: ``--quick`` workload: small enough for a CI smoke leg, big enough
#: that a batch is not pure dispatch overhead
QUICK_QUERIES = 8
QUICK_VERTICES = 150
QUICK_WORKERS = 2


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_executor_comparison(num_queries: int = EXEC_QUERIES,
                            vertices: int = EXEC_VERTICES,
                            workers: int = EXEC_WORKERS,
                            executors=EXECUTOR_KINDS,
                            seed: int = 9):
    """Serve one identical batch under each executor; compare wall-clock.

    Each arm gets a fresh :class:`BatchEngine` (so plan/shape caches
    start cold and account identically) and a small untimed warm-up
    batch first, so the process arm's one-time pool spawn, engine
    publication and worker attach are amortized the way a long-lived
    service would amortize them.  Returns ``(outcomes, table)``;
    outcomes map executor name to wall ms, the report, and the
    per-query match sets.
    """
    graph = scale_free_graph(vertices, 4, 6, 6, seed=seed)
    config = GSIConfig.gsi_opt()
    queries = [random_walk_query(graph, 4 + (s % 3), seed=s)
               for s in range(num_queries)]
    warmup = [random_walk_query(graph, 3, seed=1000 + s)
              for s in range(2)]

    outcomes = {}
    rows = []
    for kind in executors:
        with make_executor(kind, workers) as executor, \
                BatchEngine(graph, config, executor=executor) as service:
            service.run_batch(warmup)  # untimed: pool + publish + attach
            t0 = time.perf_counter()
            report = service.run_batch(queries)
            wall_ms = (time.perf_counter() - t0) * 1000.0
        outcomes[kind] = {
            "wall_ms": wall_ms,
            "report": report,
            "match_sets": [r.match_set() for r in report.results],
            "total_tx": report.total_gld + report.total_gst,
            "shipment": getattr(executor, "last_shipment", None),
        }
    baseline = executors[0]  # first arm anchors the speedup column
    baseline_ms = outcomes[baseline]["wall_ms"]
    for kind in executors:
        out = outcomes[kind]
        rows.append([kind, f"{out['wall_ms']:.0f}",
                     f"{num_queries / (out['wall_ms'] / 1000.0):.1f}",
                     f"{baseline_ms / out['wall_ms']:.2f}x",
                     out["report"].total_matches, out["total_tx"]])
    table = render_table(
        f"executor comparison ({num_queries} queries, |V|={vertices}, "
        f"{workers} workers, {_usable_cores()} usable cores)",
        ["executor", "wall ms", "q/s", f"speedup vs {baseline}",
         "matches", "sim tx"],
        rows,
        note="matches and simulated transactions must be identical "
             "across executors — executors change wall-clock only; "
             "process-pool speedup needs multiple usable cores")
    return outcomes, table


def measure_shipped_bytes(vertices: int = EXEC_VERTICES,
                          num_queries: int = 8,
                          workers: int = 2, seed: int = 9):
    """Per-batch serialized context bytes against pickling the graph.

    Runs a warm batch through a process executor and reads
    ``executor.last_shipment``: the batch ships a compact
    shared-memory handle whose size is independent of ``|G|``.  The
    denominator is what shipping the engine by pickle would cost — the
    pickled ``(graph, config)`` pair.  Returns a JSON-ready dict with
    both sizes and their ratio.
    """
    graph = scale_free_graph(vertices, 4, 6, 6, seed=seed)
    config = GSIConfig.gsi_opt()
    queries = [random_walk_query(graph, 4, seed=s)
               for s in range(num_queries)]
    with make_executor("process", workers) as executor, \
            BatchEngine(graph, config, executor=executor) as service:
        service.run_batch(queries)  # cold: pool spawn + first publish
        service.run_batch(queries)  # warm: steady-state shipment
        shipment = dict(executor.last_shipment)
    pickled = len(pickle.dumps((graph, config)))
    return {"vertices": vertices, "edges": graph.num_edges,
            "shipment": shipment, "pickled_graph_bytes": pickled,
            "shm_over_pickle": shipment["context_bytes"] / pickled}


def run_trace_overhead(num_queries: int = QUICK_QUERIES,
                       vertices: int = QUICK_VERTICES,
                       repeats: int = 9, seed: int = 9):
    """Wall-clock of identical batches, tracing disabled vs enabled.

    The instrumentation is compiled into every hot path, so the
    "untraced baseline" arm is the shipped default — the no-op
    :class:`~repro.obs.trace.NullTracer`, whose ``span()`` is one
    virtual call returning a shared inert object — and the traced arm
    installs a recording :class:`~repro.obs.trace.Tracer` for the same
    batch.  Repeats of the two arms are interleaved so thermal/load
    drift hits both equally, and medians resist outliers.  Returns a
    JSON-ready dict with both medians and their ratio.
    """
    graph = scale_free_graph(vertices, 4, 6, 6, seed=seed)
    config = GSIConfig.gsi_opt()
    queries = [random_walk_query(graph, 4 + (s % 3), seed=s)
               for s in range(num_queries)]
    executor = make_executor("serial", 1)
    spans_per_batch = 0
    try:
        service = BatchEngine(graph, config, executor=executor)
        service.run_batch(queries)  # warm: artifacts + plan cache
        untraced_ms, traced_ms = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            service.run_batch(queries)
            untraced_ms.append((time.perf_counter() - t0) * 1000.0)
            tracer = Tracer()
            previous = set_tracer(tracer)
            try:
                t0 = time.perf_counter()
                service.run_batch(queries)
                traced_ms.append((time.perf_counter() - t0) * 1000.0)
            finally:
                set_tracer(previous)
            spans_per_batch = len(tracer.finished())
    finally:
        executor.shutdown()
    untraced = statistics.median(untraced_ms)
    traced = statistics.median(traced_ms)
    return {"queries": num_queries, "vertices": vertices,
            "repeats": repeats,
            "untraced_ms": untraced, "traced_ms": traced,
            "overhead": traced / untraced,
            "spans_per_batch": spans_per_batch}


@pytest.fixture(scope="module")
def throughput():
    graph = scale_free_graph(400, 4, 6, 6, seed=9)
    config = GSIConfig.gsi_opt()
    distinct = [random_walk_query(graph, 4 + (s % 3), seed=s)
                for s in range(NUM_DISTINCT)]

    # --- sequential: one cold engine per request (seed serving style) ---
    t0 = time.perf_counter()
    sequential = [GSIEngine(graph, config).match(q) for q in distinct]
    sequential_ms = (time.perf_counter() - t0) * 1000.0

    # --- sequential over a shared warm engine (informational) ---
    warm_engine = GSIEngine(graph, config)
    t0 = time.perf_counter()
    warm = [warm_engine.match(q) for q in distinct]
    warm_ms = (time.perf_counter() - t0) * 1000.0

    # --- batched: shared artifacts + plan cache ---
    service = BatchEngine(graph, config)
    t0 = time.perf_counter()
    report = service.run_batch(distinct)
    batched_ms = (time.perf_counter() - t0) * 1000.0

    # --- repeated-query batch: 8 shapes x 4 users through a fresh
    #     service, exercising the plan cache within one batch ---
    shapes = [random_walk_query(graph, 4 + (s % 3), seed=100 + s)
              for s in range(NUM_SHAPES_REPEATED)]
    repeated_service = BatchEngine(graph, config)
    repeated_report = repeated_service.run_batch(shapes * REPEAT_FACTOR)

    rows = [
        ["sequential (cold engine/query)", f"{sequential_ms:.0f}",
         f"{NUM_DISTINCT / (sequential_ms / 1000):.1f}", "1.0x"],
        ["sequential (warm shared engine)", f"{warm_ms:.0f}",
         f"{NUM_DISTINCT / (warm_ms / 1000):.1f}",
         f"{sequential_ms / warm_ms:.1f}x"],
        ["batch service (serial)", f"{batched_ms:.0f}",
         f"{NUM_DISTINCT / (batched_ms / 1000):.1f}",
         f"{sequential_ms / batched_ms:.1f}x"],
    ]
    table = render_table(
        f"batch service throughput ({NUM_DISTINCT} distinct queries)",
        ["serving mode", "wall ms", "q/s", "speedup"],
        rows,
        note=f"repeated batch ({NUM_SHAPES_REPEATED} shapes x "
             f"{REPEAT_FACTOR}): {repeated_report.summary_line()}")
    record_report("batch_throughput", table)
    return {
        "sequential": sequential, "sequential_ms": sequential_ms,
        "warm": warm, "warm_ms": warm_ms,
        "report": report, "batched_ms": batched_ms,
        "repeated_report": repeated_report,
    }


def test_batched_beats_sequential_wall_clock(throughput):
    assert throughput["batched_ms"] < throughput["sequential_ms"], (
        "the batch service must complete the batch faster than "
        "one-engine-per-query sequential serving")


def test_batching_does_not_change_answers(throughput):
    for seq, batched in zip(throughput["sequential"],
                            throughput["report"].results):
        assert seq.match_set() == batched.match_set()
        assert seq.elapsed_ms == batched.elapsed_ms


def test_repeated_batch_reports_cache_hits(throughput):
    report = throughput["repeated_report"]
    assert report.cache.hit_rate > 0.0
    assert report.cache.hits >= (REPEAT_FACTOR - 1) * 1
    assert report.plan_cache_hits == report.cache.hits


def test_distinct_batch_reports_percentiles(throughput):
    report = throughput["report"]
    assert report.num_queries == NUM_DISTINCT
    assert 0.0 < report.p50_ms <= report.p99_ms
    assert report.throughput_qps > 0.0


# ----------------------------------------------------------------------
# Executor comparison: serial vs process pool
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def executor_comparison():
    outcomes, table = run_executor_comparison()
    record_report("batch_executors", table)
    return outcomes


def test_executors_byte_identical_results(executor_comparison):
    serial = executor_comparison["serial"]
    out = executor_comparison["process"]
    assert out["match_sets"] == serial["match_sets"], (
        "process executor changed the match sets")
    assert out["total_tx"] == serial["total_tx"], (
        "process executor changed simulated transaction totals")
    assert [r.elapsed_ms for r in out["report"].results] == \
        [r.elapsed_ms for r in serial["report"].results]


def test_executors_identical_cache_stats(executor_comparison):
    # Preparation is serial in the parent under every executor, so
    # plan-cache and shape-memo accounting is deterministic.
    serial = executor_comparison["serial"]["report"].cache
    assert executor_comparison["process"]["report"].cache == serial


def test_process_pool_speedup_on_multicore(executor_comparison):
    """The acceptance measurement: on a multi-core host, process-pool
    joins must beat serial joins.  Skipped on boxes without enough
    usable cores, and on quick-mode (shrunken) workloads where fixed
    pickling/dispatch overhead rivals the join work — wall-clock
    assertions on tiny workloads on shared CI runners are noise, not
    signal.  The correctness assertions above
    always run; ``--min-speedup`` in script mode makes the hard check
    explicit for dedicated perf runs."""
    if _usable_cores() < 4:
        pytest.skip(f"needs >= 4 usable cores for a meaningful "
                    f"process-vs-serial comparison "
                    f"(have {_usable_cores()})")
    if EXEC_QUERIES < 24 or EXEC_VERTICES < 400:
        pytest.skip(f"quick-mode workload ({EXEC_QUERIES} queries, "
                    f"|V|={EXEC_VERTICES}) is too small for a stable "
                    f"wall-clock comparison")
    serial_ms = executor_comparison["serial"]["wall_ms"]
    process_ms = executor_comparison["process"]["wall_ms"]
    assert process_ms * 1.2 <= serial_ms, (
        f"process pool ({process_ms:.0f} ms) should beat serial "
        f"({serial_ms:.0f} ms) by >= 1.2x at {EXEC_WORKERS} "
        f"workers on {_usable_cores()} cores")


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="batch-service executor benchmarks (the "
                    "batched-vs-sequential comparison runs under "
                    "pytest: python -m pytest benchmarks/"
                    "bench_batch_throughput.py)")
    parser.add_argument("--executor", default="compare",
                        choices=list(EXECUTOR_KINDS) + ["compare"],
                        help="run one executor (smoke), or 'compare' "
                             "(default) for the serial/process table")
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help=f"CI-smoke workload defaults "
                             f"({QUICK_QUERIES} queries, "
                             f"|V|={QUICK_VERTICES}, "
                             f"{QUICK_WORKERS} workers)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write BENCH_batch_throughput.json here "
                             "(a directory, or an exact .json path)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="with 'compare': exit nonzero unless "
                             "process beats serial by this factor")
    parser.add_argument("--assert-shm-ratio", type=float, default=None,
                        metavar="R",
                        help="measure warm per-batch shipped bytes "
                             "and exit nonzero unless they are < R x "
                             "the pickled graph + config")
    parser.add_argument("--assert-trace-overhead", type=float,
                        default=None, const=1.05, nargs="?",
                        metavar="R",
                        help="interleave untraced (null-tracer) and "
                             "traced batches and exit nonzero unless "
                             "traced/untraced median wall-clock < R "
                             "(default 1.05 = <5%% overhead)")
    cli_args = parser.parse_args()

    defaults = ((QUICK_QUERIES, QUICK_VERTICES, QUICK_WORKERS)
                if cli_args.quick
                else (EXEC_QUERIES, EXEC_VERTICES, EXEC_WORKERS))
    num_queries = (cli_args.queries if cli_args.queries is not None
                   else defaults[0])
    num_vertices = (cli_args.vertices if cli_args.vertices is not None
                    else defaults[1])
    num_workers = (cli_args.workers if cli_args.workers is not None
                   else defaults[2])

    kinds = (EXECUTOR_KINDS if cli_args.executor == "compare"
             else tuple(dict.fromkeys(("serial", cli_args.executor))))
    outcomes, report_table = run_executor_comparison(
        num_queries=num_queries, vertices=num_vertices,
        workers=num_workers, executors=kinds)
    print(report_table)
    serial = outcomes["serial"]
    for kind, out in outcomes.items():
        assert out["match_sets"] == serial["match_sets"], (
            f"{kind} executor changed the match sets")
        assert out["total_tx"] == serial["total_tx"], (
            f"{kind} executor changed transaction totals")
    print("OK: match sets and transaction totals identical across "
          f"executors: {', '.join(outcomes)}")

    payload = {
        "bench": "batch_throughput",
        "params": {"queries": num_queries,
                   "vertices": num_vertices,
                   "workers": num_workers,
                   "quick": cli_args.quick,
                   "usable_cores": _usable_cores()},
        "executors": {
            kind: {"wall_ms": out["wall_ms"],
                   "total_tx": out["total_tx"],
                   "matches": out["report"].total_matches,
                   "shipment": out["shipment"]}
            for kind, out in outcomes.items()
        },
    }
    failed = False
    if cli_args.assert_trace_overhead is not None:
        overhead = run_trace_overhead(num_queries=num_queries,
                                      vertices=num_vertices)
        payload["trace_overhead"] = overhead
        print(f"trace overhead: untraced {overhead['untraced_ms']:.1f} "
              f"ms vs traced {overhead['traced_ms']:.1f} ms per batch "
              f"({overhead['spans_per_batch']} spans) -> "
              f"{overhead['overhead']:.4f}x (required "
              f"< {cli_args.assert_trace_overhead:.4f}x)")
        if overhead["overhead"] >= cli_args.assert_trace_overhead:
            print("FAIL: tracing instrumentation costs too much "
                  "wall-clock")
            failed = True
    if cli_args.assert_shm_ratio is not None:
        shipped = measure_shipped_bytes(vertices=num_vertices,
                                        workers=num_workers)
        payload["shipped_bytes"] = shipped
        print(f"warm per-batch context: "
              f"shm {shipped['shipment']['context_bytes']} B vs "
              f"pickled graph + config "
              f"{shipped['pickled_graph_bytes']} B "
              f"(ratio {shipped['shm_over_pickle']:.4f}, required "
              f"< {cli_args.assert_shm_ratio:.4f})")
        if shipped["shm_over_pickle"] >= cli_args.assert_shm_ratio:
            print("FAIL: shm plane shipped too many bytes per batch")
            failed = True
    if cli_args.min_speedup is not None and "process" in outcomes:
        ratio = (outcomes["serial"]["wall_ms"]
                 / outcomes["process"]["wall_ms"])
        payload["process_vs_serial_speedup"] = ratio
        print(f"process-vs-serial speedup: {ratio:.2f}x "
              f"(required {cli_args.min_speedup:.2f}x)")
        if ratio < cli_args.min_speedup:
            failed = True
    if cli_args.json is not None:
        written = write_bench_json("batch_throughput", payload,
                                   cli_args.json)
        print(f"wrote {written}")
    if failed:
        sys.exit(1)
