"""Serving-subsystem traffic benchmark: open/closed loops over GSIServer.

Not a paper table — this measures the repo's always-on serving front
end (:mod:`repro.serve`) under the traffic shape it was built for:
many small, repetitive, concurrent requests.  The workload is a
Zipf-skewed rotation over a fixed pool of query shapes (a hot head the
plan cache and in-flight dedup feed on, plus a cold tail), issued by
mixed tenants, with a fraction of requests submitted as *renumbered*
isomorphic copies so the dedup fan-out's result translation is on the
measured path.

Two arrival models run against the same server configuration:

* **closed-loop** — ``concurrency`` clients submit back-to-back
  (offered load self-throttles to capacity; measures throughput);
* **open-loop** — requests fire at Poisson arrival times regardless of
  completions (measures latency under a fixed offered rate, queueing
  delay included).

Correctness is asserted, not assumed: every response's match set must
equal a serial, no-server replay of the exact submitted query through a
fresh engine, and the skewed workload must show in-flight dedup > 0 and
plan-cache hits > 0.  ``--json`` persists ``BENCH_bench_serving.json``.

Run::

    python benchmarks/bench_serving.py --quick --json benchmarks/results
    python -m pytest benchmarks/bench_serving.py   # smoke-sized arms
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.bench.reporting import render_table
from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.serve import GSIServer, ServeOutcome
from repro.service import BatchEngine, make_executor

from bench_common import (
    poisson_arrival_times,
    record_report,
    run_closed_loop,
    run_open_loop,
    write_bench_json,
    zipf_indices,
)

SERVE_VERTICES = int(os.environ.get("GSI_BENCH_SERVE_VERTICES", "400"))
SERVE_REQUESTS = int(os.environ.get("GSI_BENCH_SERVE_REQUESTS", "96"))
SERVE_SHAPES = int(os.environ.get("GSI_BENCH_SERVE_SHAPES", "12"))
SERVE_TENANTS = int(os.environ.get("GSI_BENCH_SERVE_TENANTS", "4"))
RELABEL_FRACTION = 0.25  # isomorphic-renumbered submissions


def relabel_query(query: LabeledGraph, seed: int) -> LabeledGraph:
    """An isomorphic copy of ``query`` under a random vertex renaming.

    Same labeled graph up to renumbering — the canonical fingerprint is
    identical, so the server dedups it against the original and must
    translate the shared result back onto this numbering.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(query.num_vertices)  # perm[old] = new id
    labels = [0] * query.num_vertices
    for old, new in enumerate(perm):
        labels[new] = query.vertex_label(old)
    edges = [(int(perm[u]), int(perm[v]), lab)
             for u, v, lab in query.edges()]
    return LabeledGraph(labels, edges)


def build_workload(vertices: int, num_shapes: int, num_requests: int,
                   num_tenants: int, seed: int = 9
                   ) -> Tuple[LabeledGraph,
                              List[Tuple[LabeledGraph, str]]]:
    """The skewed mixed-tenant request stream over one data graph."""
    graph = scale_free_graph(vertices, 4, 6, 6, seed=seed)
    shapes = [random_walk_query(graph, 4 + (s % 3), seed=100 + s)
              for s in range(num_shapes)]
    picks = zipf_indices(num_shapes, num_requests, seed=seed)
    rng = np.random.default_rng(seed + 1)
    requests: List[Tuple[LabeledGraph, str]] = []
    for i, pick in enumerate(picks):
        query = shapes[pick]
        if rng.random() < RELABEL_FRACTION:
            query = relabel_query(query, seed=1000 + i)
        requests.append((query, f"tenant{i % num_tenants}"))
    return graph, requests


async def _drive(server: GSIServer,
                 requests: Sequence[Tuple[LabeledGraph, str]],
                 mode: str, concurrency: int, rate_qps: float,
                 seed: int) -> Tuple[List[ServeOutcome], float]:
    """Run one arrival-model arm; returns (outcomes, wall_ms)."""

    async def submit(item: Tuple[LabeledGraph, str]) -> ServeOutcome:
        query, tenant = item
        return await server.submit(query, tenant=tenant)

    t0 = time.perf_counter()
    if mode == "closed":
        outcomes = await run_closed_loop(submit, requests, concurrency)
    else:
        arrivals = poisson_arrival_times(rate_qps, len(requests),
                                         seed=seed)
        outcomes = await run_open_loop(submit, requests, arrivals)
    return outcomes, (time.perf_counter() - t0) * 1000.0


def run_serving_arm(graph: LabeledGraph,
                    requests: Sequence[Tuple[LabeledGraph, str]],
                    mode: str,
                    max_batch: int = 8,
                    max_delay_ms: float = 2.0,
                    concurrency: int = 16,
                    rate_qps: float = 400.0,
                    executor_kind: str = "serial",
                    workers: int = 2,
                    seed: int = 9) -> Dict:
    """Serve ``requests`` through a fresh server; return measurements."""

    async def _run() -> Dict:
        with make_executor(executor_kind, workers) as executor, \
                BatchEngine(graph, GSIConfig.gsi_opt(),
                            executor=executor) as engine:
            async with GSIServer(engine, max_batch=max_batch,
                                 max_delay_ms=max_delay_ms) as server:
                outcomes, wall_ms = await _drive(
                    server, requests, mode, concurrency, rate_qps,
                    seed)
            stats = server.stats()["metrics"]
        return {"outcomes": outcomes, "wall_ms": wall_ms,
                "stats": stats}

    arm = asyncio.run(_run())
    outcomes: List[ServeOutcome] = arm["outcomes"]
    bad = [o.status for o in outcomes if o.status != "ok"]
    if bad:
        raise AssertionError(
            f"{len(bad)} requests failed in the {mode} arm: "
            f"{bad[:5]}")
    stats = arm["stats"]
    arm["summary"] = {
        "mode": mode,
        "requests": len(outcomes),
        "wall_ms": arm["wall_ms"],
        "qps": len(outcomes) / (arm["wall_ms"] / 1000.0),
        "latency_ms": stats["latency_ms"],
        "deduped": stats["requests"]["deduped"],
        "dedup_rate": (stats["requests"]["deduped"]
                       / max(1, stats["requests"]["admitted"])),
        "plan_cache": stats["cache"],
        "batches": stats["batches"]["executed"],
        "mean_batch": stats["batches"]["mean_size"],
        "shed": stats["requests"]["shed"],
        "quota_rejected": stats["requests"]["quota_rejected"],
    }
    return arm


def serial_replay(graph: LabeledGraph,
                  requests: Sequence[Tuple[LabeledGraph, str]]
                  ) -> List[set]:
    """The no-server ground truth: each query through a fresh engine
    path, serially, no batching, no dedup, no cache sharing."""
    engine = GSIEngine(graph, GSIConfig.gsi_opt())
    return [engine.match(query).match_set() for query, _ in requests]


def assert_match_sets_equal(outcomes: Sequence[ServeOutcome],
                            expected: Sequence[set]) -> None:
    for i, (outcome, want) in enumerate(zip(outcomes, expected)):
        got = outcome.result.match_set()
        if got != want:
            raise AssertionError(
                f"request {i}: served match set diverged from the "
                f"serial replay ({len(got)} vs {len(want)} matches)")


def run_bench(vertices: int = SERVE_VERTICES,
              num_requests: int = SERVE_REQUESTS,
              num_shapes: int = SERVE_SHAPES,
              num_tenants: int = SERVE_TENANTS,
              max_batch: int = 8, max_delay_ms: float = 2.0,
              concurrency: int = 16, rate_qps: float = 400.0,
              executor_kind: str = "serial", workers: int = 2,
              seed: int = 9) -> Dict:
    """Both arrival-model arms + the serial-replay differential check."""
    graph, requests = build_workload(vertices, num_shapes,
                                     num_requests, num_tenants,
                                     seed=seed)
    expected = serial_replay(graph, requests)

    arms = {}
    rows = []
    for mode in ("closed", "open"):
        arm = run_serving_arm(graph, requests, mode,
                              max_batch=max_batch,
                              max_delay_ms=max_delay_ms,
                              concurrency=concurrency,
                              rate_qps=rate_qps,
                              executor_kind=executor_kind,
                              workers=workers, seed=seed)
        assert_match_sets_equal(arm["outcomes"], expected)
        arms[mode] = arm
        s = arm["summary"]
        rows.append([
            mode, s["requests"], f"{s['wall_ms']:.0f}",
            f"{s['qps']:.0f}",
            f"{s['latency_ms']['p50']:.1f}/"
            f"{s['latency_ms']['p95']:.1f}/"
            f"{s['latency_ms']['p99']:.1f}",
            s["deduped"], f"{100.0 * s['dedup_rate']:.0f}%",
            f"{100.0 * s['plan_cache']['hit_rate']:.0f}%",
            f"{s['mean_batch']:.1f}",
        ])

    table = render_table(
        f"serving traffic ({num_requests} requests, {num_shapes} "
        f"shapes, {num_tenants} tenants, zipf-skewed, "
        f"{100 * RELABEL_FRACTION:.0f}% renumbered; max_batch="
        f"{max_batch}, max_delay={max_delay_ms}ms; closed: "
        f"{concurrency} clients, open: poisson {rate_qps:.0f} q/s)",
        ["arrivals", "reqs", "wall ms", "q/s", "p50/p95/p99 ms",
         "dedup", "dedup %", "plan hit %", "mean batch"],
        rows,
        note="every arm's match sets asserted identical to a serial "
             "no-server replay; dedup and plan-cache hits must both "
             "be > 0 on this skewed workload")
    return {"arms": arms, "table": table, "requests": requests,
            "expected": expected}


# ----------------------------------------------------------------------
# pytest mode (smoke-sized by env knobs; CI bench-smoke runs this)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serving_outcome():
    outcome = run_bench()
    record_report("serving", outcome["table"])
    return outcome


def test_serving_matches_serial_replay(serving_outcome):
    # run_bench asserts per-arm already; re-assert explicitly so a
    # regression fails with a named test.
    for arm in serving_outcome["arms"].values():
        assert_match_sets_equal(arm["outcomes"],
                                serving_outcome["expected"])


def test_skewed_workload_dedups_and_caches(serving_outcome):
    for mode, arm in serving_outcome["arms"].items():
        s = arm["summary"]
        assert s["deduped"] > 0, f"{mode}: no in-flight dedup"
        assert s["plan_cache"]["hit_rate"] > 0.0, \
            f"{mode}: no plan-cache hits"


def test_microbatching_actually_batches(serving_outcome):
    closed = serving_outcome["arms"]["closed"]["summary"]
    assert closed["mean_batch"] > 1.0, (
        "closed-loop concurrency should fill micro-batches beyond "
        "size 1")


def test_per_tenant_latency_reported(serving_outcome):
    stats = serving_outcome["arms"]["closed"]["stats"]
    assert len(stats["tenants"]) == SERVE_TENANTS
    for series in stats["tenants"].values():
        assert series["completed"] > 0
        assert series["latency_ms"]["p50"] > 0.0
        assert (series["latency_ms"]["p50"]
                <= series["latency_ms"]["p95"]
                <= series["latency_ms"]["p99"])


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="serving-subsystem traffic benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized workload (CI)")
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--shapes", type=int, default=None)
    parser.add_argument("--tenants", type=int, default=SERVE_TENANTS)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-delay-ms", type=float, default=2.0)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--rate-qps", type=float, default=400.0)
    parser.add_argument("--executor", default="serial",
                        choices=["serial", "process"])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write BENCH_bench_serving.json here (a "
                             "directory, or an exact .json path)")
    cli_args = parser.parse_args()

    if cli_args.quick:
        defaults = {"vertices": 250, "requests": 48, "shapes": 8}
    else:
        defaults = {"vertices": SERVE_VERTICES,
                    "requests": SERVE_REQUESTS,
                    "shapes": SERVE_SHAPES}
    vertices = cli_args.vertices or defaults["vertices"]
    num_requests = cli_args.requests or defaults["requests"]
    num_shapes = cli_args.shapes or defaults["shapes"]

    outcome = run_bench(vertices=vertices, num_requests=num_requests,
                        num_shapes=num_shapes,
                        num_tenants=cli_args.tenants,
                        max_batch=cli_args.max_batch,
                        max_delay_ms=cli_args.max_delay_ms,
                        concurrency=cli_args.concurrency,
                        rate_qps=cli_args.rate_qps,
                        executor_kind=cli_args.executor,
                        workers=cli_args.workers,
                        seed=cli_args.seed)
    print(outcome["table"])

    failed = False
    for mode, arm in outcome["arms"].items():
        s = arm["summary"]
        if s["deduped"] <= 0:
            print(f"FAIL: {mode} arm saw no in-flight dedup")
            failed = True
        if s["plan_cache"]["hit_rate"] <= 0.0:
            print(f"FAIL: {mode} arm saw no plan-cache hits")
            failed = True
    print("OK: match sets identical to the serial no-server replay "
          "in both arms" if not failed else
          "(correctness held; dedup/cache assertions failed)")

    payload = {
        "bench": "serving",
        "params": {"vertices": vertices, "requests": num_requests,
                   "shapes": num_shapes, "tenants": cli_args.tenants,
                   "max_batch": cli_args.max_batch,
                   "max_delay_ms": cli_args.max_delay_ms,
                   "concurrency": cli_args.concurrency,
                   "rate_qps": cli_args.rate_qps,
                   "executor": cli_args.executor,
                   "relabel_fraction": RELABEL_FRACTION},
        "arms": {mode: arm["summary"]
                 for mode, arm in outcome["arms"].items()},
    }
    if cli_args.json is not None:
        written = write_bench_json("bench_serving", payload,
                                   cli_args.json)
        print(f"wrote {written}")
    if failed:
        sys.exit(1)
