"""``query_cold``: cold one-shot queries through the batch service.

One ``BatchEngine`` over one ``GSIEngine`` with the shipped default
config (``GSIConfig.gsi_opt()``) and the serial executor.  Each seed
draws 200 distinct queries of 4-7 vertices from the vetted pool (one
per cost stratum, plus the same 24 join-heavy queries every time) and
submits them one per closed-loop ``run_batch`` call.  A pass runs the
whole list through a fresh ``BatchEngine``, so every query misses the
plan cache; passes repeat until the time budget is spent, at least
two, and every pass must charge bit-identical simulated totals.  A
query's latency is the fastest of its passes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import harness
import layers

QUERIES = 200
SIZES = (4, 5, 6, 7)
#: keeps one pass short enough for two passes per run
MAX_MATCHES = 20_000
#: the heaviest eligible queries, included in every seed's set; twice
#: the 5% tail, so latency_p95_ms lands among them even where match
#: count and host time rank queries differently
JOIN_HEAVY = 24
MIN_PASSES = 2
SETUPS = 7


def _inputs(pool: List[Dict[str, Any]], seed: int) -> List[Dict[str, Any]]:
    import numpy as np
    rng = np.random.default_rng(seed)
    picks = harness.stratified_pick(
        [e for e in pool
         if e["k"] in SIZES and e["matches"] <= MAX_MATCHES],
        QUERIES, rng, fixed_top=JOIN_HEAVY)
    return [picks[int(i)] for i in rng.permutation(len(picks))]


def _setup():
    """Graph build plus engine artifacts (signature table, PCSR)."""
    from repro.core.config import GSIConfig
    from repro.core.engine import GSIEngine
    return GSIEngine(harness.build_graph(), GSIConfig.gsi_opt())


def _arm() -> Dict[str, Any]:
    return {"ok": 0, "times": harness.OpTimes(), "spans": [],
            "tally": layers.CandidateTally(), "cache": []}


def _pass(engine, queries, entries, out: harness.Outcome,
          clock: harness.HostClock, check: bool, traced: bool,
          acc: Dict[str, Any]) -> Dict[str, Any]:
    """One pass over the query list; returns its simulated totals."""
    from repro.obs.trace import Tracer, set_tracer
    from repro.service import BatchEngine, make_executor
    batch = BatchEngine(engine=engine, executor=make_executor("serial"))
    snapshots = []
    sim_ms = 0.0
    for index, (entry, query) in enumerate(zip(entries, queries)):
        tracer = Tracer() if traced else None
        if tracer is not None:
            set_tracer(tracer)
            with tracer.span("bench.query_cold.op"):
                start = time.perf_counter()
                report = batch.run_batch([query])
                elapsed = time.perf_counter() - start
            set_tracer(None)
        else:
            start = time.perf_counter()
            report = batch.run_batch([query])
            elapsed = time.perf_counter() - start
        # -- outside the timed window --
        clock.sample()
        item = report.items[0]
        result = item.result
        acc["times"].add(index, start, elapsed)
        out.attempted += 1
        snapshots.append(result.counters)
        sim_ms += result.elapsed_ms
        if tracer is not None:
            spans = tracer.finished()
            problem = layers.check_op_tree(spans)
            if problem:
                out.problem(f"query {entry['id']}: {problem}")
            acc["spans"].extend(spans)
            acc["tally"].add(result)
            acc["cache"].append(report.cache)
        if item.error is not None or result.timed_out:
            out.op_failed(f"query {entry['id']}: "
                          f"{item.error or 'timed out'}")
        elif result.num_matches != entry["matches"]:
            out.op_failed(f"query {entry['id']}: {result.num_matches} "
                          f"matches, reference {entry['matches']}")
        elif check and (harness.match_digest(result.matches)
                        != entry["digest"]):
            out.op_failed(f"query {entry['id']}: match set differs from "
                          f"the reference digest")
        elif check and harness.verify_sample(query, engine.graph,
                                             result.matches):
            out.op_failed(f"query {entry['id']}: invalid embedding")
        else:
            acc["ok"] += 1
    totals = harness.sim_totals(snapshots)
    totals["sim_ms"] = sim_ms
    return totals


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    out = harness.Outcome()
    clock = harness.HostClock()
    setups = []
    for _ in range(SETUPS):
        setup_s, engine = clock.timed(_setup)
        setups.append(setup_s)
    entries = _inputs(harness.load_pool(engine.graph), seed)
    queries = [harness.query_from_entry(e) for e in entries]

    arms = {role: _arm() for role in harness.PASS_ROLES}
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while (len(passes) < harness.min_passes(trace, MIN_PASSES)
           or time.perf_counter() - start < seconds):
        role = harness.pass_role(trace, len(passes))
        passes.append(_pass(engine, queries, entries, out, clock,
                            check=not passes, traced=role == "traced",
                            acc=arms[role]))
    out.check_sim_exact(passes)

    plain = arms["plain"]
    first = passes[0]
    plain_ops = plain["ok"] / plain["times"].total_s(clock)
    lat = plain["times"].latencies_ms(clock)
    if not trace:
        out.metrics = {
            "setup_s": harness.pct(setups, 50),
            "ops_per_s": plain_ops,
            "latency_p50_ms": harness.pct(lat, 50),
            "latency_p95_ms": harness.pct(lat, 95),
            "read_latency_p50_ms": harness.pct(lat, 50),
            "read_latency_p95_ms": harness.pct(lat, 95),
            "peak_rss_mb": harness.peak_rss_mb(),
            "sim_ms": first["sim_ms"],
            "sim_tx": float(first["gld"] + first["gst"]),
        }
    else:
        traced_arm = arms["traced"]
        metrics = layers.span_metrics(traced_arm["spans"])
        metrics.update(traced_arm["tally"].metrics(
            engine.graph.num_vertices))
        metrics.update(layers.cache_metrics(
            harness.merge_cache(traced_arm["cache"])))
        metrics.update(harness.sim_layer_metrics(first))
        metrics["latency_samples"] = float(len(traced_arm["times"]))
        metrics["error_share"] = out.failed / max(1, out.attempted)
        metrics["obs.trace_overhead"] = (
            traced_arm["ok"] / traced_arm["times"].total_s(clock)
            / plain_ops)
        out.metrics = metrics
    out.info = {"passes": len(passes), "queries_per_pass": len(queries),
                "latency_samples": len(lat), "host_speed": clock.factor(),
                "executor": "serial", "config": "gsi_opt"}
    return out
