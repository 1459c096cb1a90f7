"""``stream_churn``: update batches with interleaved ad-hoc reads.

A ``StreamEngine`` with shipped defaults (bulk PCSR updates,
compaction, serial executor, ``GSIConfig()``) and 8 registered
continuous queries applies a seeded ``random_update_stream`` of 200
batches of 64 ops (about 65% inserts, 30% deletes, 5% new vertices).
After each batch comes one ad-hoc ``StreamEngine.match`` read, a
different query each time.  An op is one update batch.  A pass
replays the whole stream on a fresh engine; passes repeat until the
time budget is spent, at least two, and every pass must charge
bit-identical simulated totals.  At the end of each pass every
registered query's live match set must equal a fresh match on the
final snapshot.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import harness
import layers

BATCHES = 200
BATCH_OPS = 64
DELETE_FRACTION = 0.3
NEW_VERTEX_FRACTION = 0.05
REGISTERED = 8
READS = 200
#: the heaviest eligible reads, in every seed's set; more than 5% of
#: the reads, so read_latency_p95_ms always lands among them
HEAVY_READS = 12
SIZES = (4, 5, 6)
#: registered and read queries stay small enough that no single
#: query's live set dominates delta matching
MAX_MATCHES = 5000
SETUPS = 5


def _inputs(pool, seed: int):
    import numpy as np
    rng = np.random.default_rng(seed)
    eligible = [e for e in pool
                if e["k"] in SIZES and e["matches"] <= MAX_MATCHES]
    registered = harness.stratified_pick(eligible, REGISTERED, rng)
    taken = {e["id"] for e in registered}
    reads = harness.stratified_pick(
        [e for e in eligible if e["id"] not in taken], READS, rng,
        fixed_top=HEAVY_READS)
    # every seed puts its cost rank r read after the same batch, so the
    # heavy reads always meet the graph at the same point of its growth
    slots = np.random.default_rng(0).permutation(len(reads))
    reads = [reads[int(i)] for i in slots]
    return ([harness.query_from_entry(e) for e in registered],
            [harness.query_from_entry(e) for e in reads])


def _setup(registered):
    """Graph build, index build (signature table + PCSR) and
    registrations."""
    from repro.dynamic import StreamEngine
    engine = StreamEngine(harness.build_graph())
    return engine, [engine.register(q) for q in registered]


def _pass(registered, reads, stream, out: harness.Outcome,
          clock: harness.HostClock, check: bool, traced: bool,
          acc: Dict[str, Any]):
    """One replay of the stream; returns setup seconds and sim totals."""
    from repro.core.engine import GSIEngine
    from repro.obs.trace import Tracer, set_tracer
    setup_s, (engine, ids) = clock.timed(lambda: _setup(registered))
    meter_before = engine.index.meter.snapshot()
    cache_before = engine.plan_cache.stats_snapshot()
    read_snaps = []
    read_sim_ms = 0.0
    for index, delta in enumerate(stream):
        query = reads[index % len(reads)]
        tracer = Tracer() if traced else None
        if tracer is not None:
            set_tracer(tracer)
            with tracer.span("bench.stream_churn.update"):
                update_at = time.perf_counter()
                report = engine.apply_batch(delta)
                update_s = time.perf_counter() - update_at
            read_tracer = Tracer()
            set_tracer(read_tracer)
            with read_tracer.span("bench.stream_churn.read"):
                read_at = time.perf_counter()
                result = engine.match(query)
                read_s = time.perf_counter() - read_at
            set_tracer(None)
        else:
            update_at = time.perf_counter()
            report = engine.apply_batch(delta)
            update_s = time.perf_counter() - update_at
            read_at = time.perf_counter()
            result = engine.match(query)
            read_s = time.perf_counter() - read_at
        # -- outside the timed window --
        clock.sample()
        acc["updates"].add(index, update_at, update_s)
        acc["reads"].add(index, read_at, read_s)
        out.attempted += 1
        read_snaps.append(result.counters)
        read_sim_ms += result.elapsed_ms
        if tracer is not None:
            for recorded in (tracer, read_tracer):
                spans = recorded.finished()
                problem = layers.check_op_tree(spans)
                if problem:
                    out.problem(f"batch {index}: {problem}")
                acc["spans"].extend(spans)
            acc["reports"].append(_report_summary(report))
            acc["tally"].add(result)
        if report.executor_fallback:
            out.op_failed(f"batch {index}: executor fell back to serial")
        elif result.timed_out or (check and harness.verify_sample(
                query, engine.graph, result.matches, limit=64)):
            out.op_failed(f"batch {index}: ad-hoc read returned an "
                          f"invalid embedding")
        else:
            acc["ok"] += 1
    # the correctness gate: live sets equal a fresh match
    fresh = GSIEngine(engine.graph, engine.config)
    for qid, query in zip(ids, registered):
        if engine.matches(qid) != set(fresh.match(query).matches):
            out.op_failed(f"registered query {qid}: live match set "
                          f"differs from a fresh match on the final "
                          f"snapshot")
    if traced:
        acc["cache"].append(
            engine.plan_cache.stats_snapshot().diff(cache_before))
    totals = harness.sim_totals(
        [engine.index.meter.snapshot().diff(meter_before)] + read_snaps)
    totals["read_sim_ms"] = read_sim_ms
    engine.close()
    return setup_s, totals


def _report_summary(report) -> Dict[str, float]:
    return {
        "edges": report.num_inserted + report.num_deleted,
        "commit_tx": report.commit_transactions,
        "maintain_tx": report.maintenance.gld + report.maintenance.gst,
        "rebuilds": report.rebuilds,
        "compactions": report.compactions,
        "dead_ratio": float(report.pcsr.get("dead_ratio", 0.0)),
        "occupancy": float(report.pcsr.get("max_occupancy", 0.0)),
        "changes": report.total_created + report.total_destroyed,
        "invalidated": report.plans_invalidated,
    }


def _stream_metrics(reports: List[Dict[str, float]]) -> Dict[str, float]:
    edges = sum(r["edges"] for r in reports)
    per_edge = 1.0 / edges if edges else 0.0

    def avg(key: str) -> float:
        return harness.mean([r[key] for r in reports])

    return {
        "stream.commit_tx_per_edge":
            sum(r["commit_tx"] for r in reports) * per_edge,
        "stream.maintain_tx_per_edge":
            sum(r["maintain_tx"] for r in reports) * per_edge,
        "stream.rebuilds_per_kedge":
            sum(r["rebuilds"] for r in reports) * 1000.0 * per_edge,
        "stream.compactions_per_kedge":
            sum(r["compactions"] for r in reports) * 1000.0 * per_edge,
        "stream.pcsr_dead_ratio": avg("dead_ratio"),
        "stream.pcsr_occupancy": avg("occupancy"),
        "stream.delta_changes_per_batch": avg("changes"),
        "stream.plans_invalidated_per_batch": avg("invalidated"),
    }


def _timed_s(arm: Dict[str, Any], clock: harness.HostClock) -> float:
    """Timed wall time of one arm: every update and its read."""
    return arm["updates"].total_s(clock) + arm["reads"].total_s(clock)


def _arm() -> Dict[str, Any]:
    return {"ok": 0, "updates": harness.OpTimes(),
            "reads": harness.OpTimes(),
            "spans": [], "reports": [], "tally": layers.CandidateTally(),
            "cache": []}


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from repro.dynamic.delta import random_update_stream
    out = harness.Outcome()
    clock = harness.HostClock()
    graph = harness.build_graph()
    registered, reads = _inputs(harness.load_pool(graph), seed)
    stream = random_update_stream(
        graph, BATCHES, BATCH_OPS, seed=seed,
        delete_fraction=DELETE_FRACTION,
        new_vertex_fraction=NEW_VERTEX_FRACTION)

    arms = {role: _arm() for role in harness.PASS_ROLES}
    setups: List[float] = []
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while (len(passes) < harness.min_passes(trace, 2)
           or time.perf_counter() - start < seconds):
        role = harness.pass_role(trace, len(passes))
        setup_s, totals = _pass(registered, reads, stream, out, clock,
                                check=not passes,
                                traced=role == "traced", acc=arms[role])
        setups.append(setup_s)
        passes.append(totals)
    while len(setups) < SETUPS:
        setup_s, (engine, _) = clock.timed(lambda: _setup(registered))
        engine.close()
        setups.append(setup_s)
    out.check_sim_exact(passes)

    plain = arms["plain"]
    first = passes[0]
    plain_ops = plain["ok"] / _timed_s(plain, clock)
    lat = plain["updates"].latencies_ms(clock)
    read = plain["reads"].latencies_ms(clock)
    if not trace:
        out.metrics = {
            "setup_s": harness.pct(setups, 50),
            "ops_per_s": plain_ops,
            "latency_p50_ms": harness.pct(lat, 50),
            "latency_p95_ms": harness.pct(lat, 95),
            "read_latency_p50_ms": harness.pct(read, 50),
            "read_latency_p95_ms": harness.pct(read, 95),
            "peak_rss_mb": harness.peak_rss_mb(),
            "sim_ms": first["read_sim_ms"],
            "sim_tx": float(first["gld"] + first["gst"]),
        }
    else:
        traced_arm = arms["traced"]
        metrics = layers.span_metrics(traced_arm["spans"])
        metrics.update(_stream_metrics(traced_arm["reports"]))
        metrics.update(traced_arm["tally"].metrics(graph.num_vertices))
        metrics.update(layers.cache_metrics(
            harness.merge_cache(traced_arm["cache"])))
        metrics.update(harness.sim_layer_metrics(first))
        metrics["latency_samples"] = float(len(traced_arm["updates"]))
        metrics["error_share"] = out.failed / max(1, out.attempted)
        metrics["obs.trace_overhead"] = (
            traced_arm["ok"] / _timed_s(traced_arm, clock) / plain_ops)
        out.metrics = metrics
    out.info = {"passes": len(passes), "batches_per_pass": len(stream),
                "batch_ops": BATCH_OPS, "registered": len(registered),
                "latency_samples": len(lat), "host_speed": clock.factor(),
                "executor": "serial", "config": "default"}
    return out
