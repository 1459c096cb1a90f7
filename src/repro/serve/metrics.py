"""SLO metrics for the serving subsystem.

One :class:`ServerMetrics` instance aggregates everything an operator
asks a long-lived server: per-tenant end-to-end latency percentiles
(p50/p95/p99 over a bounded reservoir), live queue depth, the
micro-batch size histogram, dedup / load-shed / quota counters, and the
cumulative :class:`~repro.service.plan_cache.CacheStats` and
simulated-transaction totals carried by each batch's
:class:`~repro.service.batch.BatchReport`.  Storage health is not a
batch aggregate: the server reads it from the engine when the ``stats``
RPC is served.

Thread safety: the server's asyncio loop records admissions and
completions while the batch runner thread records batch reports, so
every mutation takes the internal lock.  :meth:`to_dict` snapshots
under the same lock and returns only JSON-serializable types (the
``metrics`` part of the ``stats`` RPC payload).
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    SIZE_BUCKETS,
    get_registry,
)
from repro.obs.stats import DEFAULT_RESERVOIR, Reservoir, percentile_summary
from repro.service.batch import BatchReport, json_sanitize
from repro.service.plan_cache import CacheStats


class _TenantSeries:
    """One tenant's bounded latency reservoir plus request counters."""

    __slots__ = ("_latencies", "completed", "errors", "deduped",
                 "shed", "quota_rejected")

    def __init__(self, reservoir: int) -> None:
        self._latencies = Reservoir(reservoir)
        self.completed = 0
        self.errors = 0
        self.deduped = 0
        self.shed = 0
        self.quota_rejected = 0

    @property
    def latencies_ms(self) -> List[float]:
        """The current latency window (a copy, oldest first)."""
        return self._latencies.samples()

    def record_latency(self, latency_ms: float) -> None:
        self._latencies.add(latency_ms)

    def to_dict(self) -> dict:
        return {
            "completed": self.completed,
            "errors": self.errors,
            "deduped": self.deduped,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "latency_ms": self._latencies.summary(),
        }


class ServerMetrics:
    """Aggregated serving statistics, exposed via the ``stats`` RPC."""

    #: gsilint GSI003: the asyncio loop and the batch-runner thread
    #: both mutate these; every touch goes through self._lock
    #: (helpers suffixed ``_unlocked`` assume the caller holds it)
    _GUARDED_BY_LOCK = (
        "_tenants", "received", "admitted", "completed", "errors",
        "deduped", "shed", "quota_rejected", "batches",
        "executed_queries", "batch_size_histogram", "cache",
        "total_gld", "total_gst", "total_simulated_ms",
        "queue_depth", "max_queue_depth",
    )

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 2:
            raise ValueError(f"reservoir must be >= 2, got {reservoir}")
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._tenants: Dict[str, _TenantSeries] = {}
        # request-plane counters
        self.received = 0
        self.admitted = 0
        self.completed = 0
        self.errors = 0
        self.deduped = 0
        self.shed = 0
        self.quota_rejected = 0
        # execution-plane aggregates
        self.batches = 0
        self.executed_queries = 0
        self.batch_size_histogram: Dict[int, int] = {}
        self.cache = CacheStats()
        self.total_gld = 0
        self.total_gst = 0
        self.total_simulated_ms = 0.0
        # live gauge, set by the server as its queue moves
        self.queue_depth = 0
        self.max_queue_depth = 0

    # ------------------------------------------------------------------

    def _tenant_unlocked(self, tenant: str) -> _TenantSeries:
        series = self._tenants.get(tenant)
        if series is None:
            series = self._tenants[tenant] = _TenantSeries(
                self._reservoir)
        return series

    def record_received(self, tenant: str) -> None:
        with self._lock:
            self.received += 1
            self._tenant_unlocked(tenant)

    @staticmethod
    def _obs_outcome(tenant: str, result: str) -> None:
        """Mirror one request outcome into the process obs registry
        (outside :attr:`_lock`; the registry has its own)."""
        get_registry().counter(
            "gsi_serve_requests_total",
            "Serving requests by outcome.").inc(
                1.0, tenant=tenant, result=result)

    def record_admitted(self, tenant: str, deduped: bool) -> None:
        with self._lock:
            self.admitted += 1
            if deduped:
                self.deduped += 1
                self._tenant_unlocked(tenant).deduped += 1
        if deduped:
            self._obs_outcome(tenant, "deduped")

    def record_shed(self, tenant: str) -> None:
        with self._lock:
            self.shed += 1
            self._tenant_unlocked(tenant).shed += 1
        self._obs_outcome(tenant, "shed")

    def record_quota_rejected(self, tenant: str) -> None:
        with self._lock:
            self.quota_rejected += 1
            self._tenant_unlocked(tenant).quota_rejected += 1
        self._obs_outcome(tenant, "quota_rejected")

    def record_completed(self, tenant: str, latency_ms: float,
                         error: bool) -> None:
        with self._lock:
            series = self._tenant_unlocked(tenant)
            series.completed += 1
            series.record_latency(latency_ms)
            self.completed += 1
            if error:
                self.errors += 1
                series.errors += 1
        self._obs_outcome(tenant, "error" if error else "ok")
        get_registry().histogram(
            "gsi_serve_latency_ms",
            "End-to-end serving latency in milliseconds.",
            buckets=LATENCY_BUCKETS_MS).observe(latency_ms,
                                                tenant=tenant)

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.max_queue_depth = max(self.max_queue_depth, depth)

    def record_batch(self, report: BatchReport) -> None:
        """Fold one executed micro-batch's report into the aggregates."""
        with self._lock:
            self.batches += 1
            self.executed_queries += report.num_queries
            size = report.num_queries
            self.batch_size_histogram[size] = \
                self.batch_size_histogram.get(size, 0) + 1
            self.cache = self.cache.merge(report.cache)
            self.total_gld += report.total_gld
            self.total_gst += report.total_gst
            self.total_simulated_ms += report.total_simulated_ms
        get_registry().histogram(
            "gsi_serve_batch_fill",
            "Dispatched micro-batch sizes (distinct queries).",
            buckets=SIZE_BUCKETS).observe(float(report.num_queries))

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """One JSON-serializable snapshot (the ``stats`` RPC's
        ``metrics``, which the server completes with storage health)."""
        with self._lock:
            mean_batch = (self.executed_queries / self.batches
                          if self.batches else 0.0)
            all_latencies: List[float] = []
            for series in self._tenants.values():
                all_latencies.extend(series.latencies_ms)
            return json_sanitize({
                "requests": {
                    "received": self.received,
                    "admitted": self.admitted,
                    "completed": self.completed,
                    "errors": self.errors,
                    "deduped": self.deduped,
                    "shed": self.shed,
                    "quota_rejected": self.quota_rejected,
                },
                "queue": {
                    "depth": self.queue_depth,
                    "max_depth": self.max_queue_depth,
                },
                "batches": {
                    "executed": self.batches,
                    "executed_queries": self.executed_queries,
                    "mean_size": mean_batch,
                    "size_histogram": {
                        str(k): v for k, v in
                        sorted(self.batch_size_histogram.items())},
                },
                "latency_ms": percentile_summary(all_latencies),
                "tenants": {name: series.to_dict()
                            for name, series in
                            sorted(self._tenants.items())},
                "cache": self.cache.to_dict(),
                "transactions": {
                    "gld": self.total_gld,
                    "gst": self.total_gst,
                    "total": self.total_gld + self.total_gst,
                },
                "total_simulated_ms": self.total_simulated_ms,
            })


__all__ = ["ServerMetrics", "DEFAULT_RESERVOIR"]
