"""Metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process, reached via
:func:`get_registry`.  Metrics carry labels drawn from the
:data:`OBS_LABEL_KEYS` registry — the same frozen-registry discipline
``METER_LABELS`` imposes on simulated-transaction attribution — so
dashboards never fragment on ad-hoc label spellings.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-ready
dicts.  :func:`scoped_registry` records a block into a fresh registry,
isolated from the process-wide one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Type

# ---------------------------------------------------------------------------
# label registry (mirrors repro.gpusim.constants.METER_LABELS)
# ---------------------------------------------------------------------------

OBS_LABEL_CACHE = "cache"
"""Which cache a hit/miss counter refers to (``plan`` / ``shape``)."""

OBS_LABEL_SHARD = "shard"
"""Shard ordinal for scatter-gather attribution."""

OBS_LABEL_EXECUTOR = "executor"
"""Executor kind (``serial`` / ``process``)."""

OBS_LABEL_LANE = "lane"
"""Join-kernel lane (``per_row`` / ``vector``)."""

OBS_LABEL_TENANT = "tenant"
"""Serving tenant a request-plane counter is attributed to."""

OBS_LABEL_PHASE = "phase"
"""Engine phase (``filter`` / ``plan`` / ``join``)."""

OBS_LABEL_KIND = "kind"
"""Free discriminator within one metric (e.g. shed reason)."""

OBS_LABEL_RESULT = "result"
"""Outcome discriminator (``hit`` / ``miss``, ``ok`` / ``error``)."""

OBS_LABEL_SIZE = "size"
"""Exact size of the unit counted (a served micro-batch's queries)."""

OBS_LABEL_KEYS = frozenset({
    OBS_LABEL_CACHE,
    OBS_LABEL_SHARD,
    OBS_LABEL_EXECUTOR,
    OBS_LABEL_LANE,
    OBS_LABEL_TENANT,
    OBS_LABEL_PHASE,
    OBS_LABEL_KIND,
    OBS_LABEL_RESULT,
    OBS_LABEL_SIZE,
})
"""Every label key a metric may carry.  New keys are added here, next
to an OBS_LABEL_* constant, never inline at a call site."""

#: default histogram buckets for millisecond latencies
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    """Canonical hashable key for one label set (validated)."""
    for key in labels:
        if key not in OBS_LABEL_KEYS:
            raise ValueError(
                f"unregistered metric label {key!r}; add an "
                f"OBS_LABEL_* constant to repro.obs.metrics "
                f"(OBS_LABEL_KEYS registry)")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing per-label-set totals."""

    #: gsilint GSI003: hot paths on several threads inc concurrently
    _GUARDED_BY_LOCK = ("_values",)

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (got {value})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = [{"labels": dict(key), "value": val}
                      for key, val in sorted(self._values.items())]
        return {"type": "counter", "help": self.help_text,
                "values": values}


class Gauge:
    """A point-in-time level (queue depth, fill ratio)."""

    #: gsilint GSI003: set from loop + runner threads concurrently
    _GUARDED_BY_LOCK = ("_values",)

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._values: Dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = [{"labels": dict(key), "value": val}
                      for key, val in sorted(self._values.items())]
        return {"type": "gauge", "help": self.help_text,
                "values": values}


class Histogram:
    """Fixed-bucket distribution (plus sum and count).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    overflow, Prometheus-style.  Bucket counts are *non*-cumulative in
    snapshots (they add cleanly under merge); the exporter cumulates.
    """

    #: gsilint GSI003: observed from worker threads concurrently
    _GUARDED_BY_LOCK = ("_series",)

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram {name} needs ascending buckets, got "
                f"{buckets!r}")
        self.name = name
        self.help_text = help_text
        self.buckets: Tuple[float, ...] = tuple(
            float(b) for b in buckets)
        self._lock = threading.Lock()
        self._series: Dict[_LabelKey, Dict[str, Any]] = {}

    def _series_unlocked(self, key: _LabelKey) -> Dict[str, Any]:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0, "count": 0}
        return series

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            series = self._series_unlocked(key)
            series["counts"][idx] += 1
            series["sum"] += float(value)
            series["count"] += 1

    def count(self, **labels: Any) -> int:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            return int(series["count"]) if series is not None else 0

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = [{"labels": dict(key),
                       "counts": list(series["counts"]),
                       "sum": series["sum"], "count": series["count"]}
                      for key, series in sorted(self._series.items())]
        return {"type": "histogram", "help": self.help_text,
                "buckets": list(self.buckets), "values": values}


class MetricsRegistry:
    """Name-keyed collection of counters, gauges and histograms."""

    #: gsilint GSI003: get-or-create races with snapshotting
    _GUARDED_BY_LOCK = ("_metrics",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: Type[Any],
                       factory_args: Tuple[Any, ...]) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = kind(*factory_args)
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}")
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._get_or_create(name, Counter, (name, help_text))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._get_or_create(name, Gauge, (name, help_text))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS_MS
                  ) -> Histogram:
        metric = self._get_or_create(
            name, Histogram, (name, help_text, tuple(buckets)))
        assert isinstance(metric, Histogram)
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of every metric (mergeable, exportable)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric._snapshot() for name, metric in metrics}

    def reset(self) -> None:
        """Drop every registered metric (test isolation)."""
        with self._lock:
            self._metrics.clear()


_DEFAULT_REGISTRY = MetricsRegistry()
_ACTIVE_REGISTRY: MetricsRegistry = _DEFAULT_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-global registry hot paths record into."""
    return _ACTIVE_REGISTRY


def set_registry(registry: Optional[MetricsRegistry]
                 ) -> MetricsRegistry:
    """Install ``registry`` globally (None restores the default);
    returns the previously installed registry."""
    global _ACTIVE_REGISTRY
    previous = _ACTIVE_REGISTRY
    _ACTIVE_REGISTRY = (registry if registry is not None
                        else _DEFAULT_REGISTRY)
    return previous


@contextmanager
def scoped_registry() -> Iterator[MetricsRegistry]:
    """Record into a fresh registry for the duration of the block,
    so its snapshot contains exactly the block's deltas."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)
