"""SLO metrics for the serving subsystem.

The process obs registry (:mod:`repro.obs.metrics`) holds every serving
count, each recorded once:

* ``gsi_serve_requests_total{tenant,result}`` — request outcomes:
  ``received``, ``admitted`` (plus ``deduped`` for a dedup follower),
  ``shed``, ``quota_rejected``, ``ok`` and ``error``;
* ``gsi_serve_batches_total{size}`` — served micro-batches by exact
  size, whose simulated cost adds to
  ``gsi_serve_transactions_total{kind=gld|gst}`` and
  ``gsi_serve_simulated_ms_total``;
* ``gsi_serve_queue_depth{kind=current|max}`` — the queue depth and
  its high-water mark;
* ``gsi_serve_latency_ms{tenant}`` — the latency histogram.

:class:`ServerMetrics` keeps only the per-tenant latency reservoirs
(exact windowed p50/p95/p99, which fixed buckets cannot give) and reads
the counts back for the ``stats`` RPC as they ran since it was created:
registry values minus a baseline taken then, so servers run one after
another in one process each report their own traffic.  The event loop
writes the reservoirs and the RPC's worker thread reads them, hence
its lock.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from typing import Any, Dict, List, Tuple

from repro.obs.metrics import LATENCY_BUCKETS_MS, get_registry
from repro.obs.stats import DEFAULT_RESERVOIR, Reservoir, percentile_summary
from repro.service.batch import BatchReport, json_sanitize
from repro.service.plan_cache import PlanCache

REQUESTS = "gsi_serve_requests_total"
BATCHES = "gsi_serve_batches_total"
TRANSACTIONS = "gsi_serve_transactions_total"
SIMULATED_MS = "gsi_serve_simulated_ms_total"
QUEUE_DEPTH = "gsi_serve_queue_depth"
LATENCY_MS = "gsi_serve_latency_ms"

#: the counters :meth:`ServerMetrics.to_dict` reads as deltas
_COUNTERS = (REQUESTS, BATCHES, TRANSACTIONS, SIMULATED_MS)

_LabelKey = Tuple[Tuple[str, str], ...]


def _counter_values(snapshot: Dict[str, Any], name: str
                    ) -> Dict[_LabelKey, float]:
    """One counter's value per label set in a registry snapshot."""
    metric = snapshot.get(name, {"values": []})
    return {tuple(sorted(entry["labels"].items())): float(entry["value"])
            for entry in metric["values"]}


def _outcomes(by_result: Counter) -> Dict[str, int]:
    """The ``stats`` outcome counts from request counts by result."""
    return {"completed": by_result["ok"] + by_result["error"],
            "errors": by_result["error"],
            "deduped": by_result["deduped"],
            "shed": by_result["shed"],
            "quota_rejected": by_result["quota_rejected"]}


class ServerMetrics:
    """Per-tenant latency windows plus a view of the registry's
    serving counts, exposed via the ``stats`` RPC.

    ``plan_cache`` is the served engine's cache, whose stats the
    ``cache`` block diffs.  The registry active at construction is the
    one recorded into and read.
    """

    #: gsilint GSI003: the event loop adds samples while the ``stats``
    #: RPC's worker thread reads them; every touch goes through
    #: self._lock
    _GUARDED_BY_LOCK = ("_tenants",)

    def __init__(self, plan_cache: PlanCache,
                 reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 2:
            raise ValueError(f"reservoir must be >= 2, got {reservoir}")
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._tenants: Dict[str, Reservoir] = {}
        self.registry = get_registry()
        snapshot = self.registry.snapshot()
        self._baseline = {name: _counter_values(snapshot, name)
                          for name in _COUNTERS}
        self._plan_cache = plan_cache
        self._cache_baseline = plan_cache.stats_snapshot()
        queue = self.registry.gauge(
            QUEUE_DEPTH, "Distinct queries queued (current, max).")
        queue.set(0, kind="current")
        queue.set(0, kind="max")

    # ------------------------------------------------------------------

    def record(self, tenant: str, result: str) -> None:
        """Count one request outcome (see the module docstring)."""
        self.registry.counter(
            REQUESTS, "Serving requests by outcome.").inc(
                1.0, tenant=tenant, result=result)

    def record_completed(self, tenant: str, latency_ms: float,
                         error: bool) -> None:
        """One request answered: its outcome, latency window and
        latency histogram."""
        with self._lock:
            window = self._tenants.get(tenant)
            if window is None:
                window = self._tenants[tenant] = Reservoir(
                    self._reservoir)
            window.add(latency_ms)
        self.record(tenant, "error" if error else "ok")
        self.registry.histogram(
            LATENCY_MS, "End-to-end serving latency in milliseconds.",
            buckets=LATENCY_BUCKETS_MS).observe(latency_ms, tenant=tenant)

    def record_queue_depth(self, depth: int) -> None:
        """Set the live queue depth (called from the event loop only,
        so the high-water read-modify-write does not race)."""
        queue = self.registry.gauge(QUEUE_DEPTH)
        queue.set(depth, kind="current")
        if depth > queue.value(kind="max"):
            queue.set(depth, kind="max")

    def record_batch(self, report: BatchReport) -> None:
        """Count one served micro-batch and its simulated cost."""
        registry = self.registry
        registry.counter(
            BATCHES, "Served micro-batches by exact size.").inc(
                1.0, size=report.num_queries)
        transactions = registry.counter(
            TRANSACTIONS, "Simulated transactions of served batches.")
        transactions.inc(float(report.total_gld), kind="gld")
        transactions.inc(float(report.total_gst), kind="gst")
        registry.counter(
            SIMULATED_MS, "Simulated ms of served batches.").inc(
                report.total_simulated_ms)

    # ------------------------------------------------------------------

    def _since(self, snapshot: Dict[str, Any], name: str
               ) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value - baseline)`` for each non-zero series."""
        base = self._baseline[name]
        out = []
        for key, value in _counter_values(snapshot, name).items():
            delta = value - base.get(key, 0.0)
            if delta:
                out.append((dict(key), delta))
        return out

    def to_dict(self) -> dict:
        """One JSON-serializable snapshot (the ``stats`` RPC's
        ``metrics``, which the server completes with storage health)."""
        snapshot = self.registry.snapshot()
        totals: Counter = Counter()
        tenants: Dict[str, Counter] = defaultdict(Counter)
        for labels, value in self._since(snapshot, REQUESTS):
            totals[labels["result"]] += int(value)
            tenants[labels["tenant"]][labels["result"]] += int(value)
        sizes = {int(labels["size"]): int(value)
                 for labels, value in self._since(snapshot, BATCHES)}
        executed_queries = sum(size * n for size, n in sizes.items())
        tx = Counter({labels["kind"]: int(value) for labels, value in
                      self._since(snapshot, TRANSACTIONS)})
        queue = self.registry.gauge(QUEUE_DEPTH)
        with self._lock:
            windows = {name: window.samples()
                       for name, window in self._tenants.items()}
        return json_sanitize({
            "requests": {"received": totals["received"],
                         "admitted": totals["admitted"],
                         **_outcomes(totals)},
            "queue": {"depth": int(queue.value(kind="current")),
                      "max_depth": int(queue.value(kind="max"))},
            "batches": {
                "executed": sum(sizes.values()),
                "executed_queries": executed_queries,
                "mean_size": (executed_queries / sum(sizes.values())
                              if sizes else 0.0),
                "size_histogram": {str(size): sizes[size]
                                   for size in sorted(sizes)},
            },
            "latency_ms": percentile_summary(
                [ms for samples in windows.values() for ms in samples]),
            "tenants": {
                name: {**_outcomes(tenants[name]),
                       "latency_ms": percentile_summary(
                           windows.get(name, []))}
                for name in sorted(set(tenants) | set(windows))},
            "cache": self._plan_cache.stats_snapshot()
            .diff(self._cache_baseline).to_dict(),
            "transactions": {"gld": tx["gld"], "gst": tx["gst"],
                             "total": tx["gld"] + tx["gst"]},
            "total_simulated_ms": sum(
                (value for _, value in
                 self._since(snapshot, SIMULATED_MS)), 0.0),
        })


__all__ = ["ServerMetrics", "DEFAULT_RESERVOIR"]
