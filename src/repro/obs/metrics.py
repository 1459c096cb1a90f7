"""Metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process, reached via
:func:`get_registry`.  Metrics carry labels drawn from the
:data:`OBS_LABEL_KEYS` registry — the same frozen-registry discipline
``METER_LABELS`` imposes on simulated-transaction attribution — so
dashboards never fragment on ad-hoc label spellings.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-ready
dicts and merge across workers and shards with
:func:`merge_metric_snapshots`, mirroring
:func:`repro.gpusim.meter.merge_shard_snapshots`: counters and
histogram buckets add, gauges keep their maximum.  Process workers
record into a scoped registry (:func:`scoped_registry`) and ship its
snapshot back with their results.
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

OBS_LABEL_KEYS = frozenset({
    OBS_LABEL_CACHE,
    OBS_LABEL_SHARD,
    OBS_LABEL_EXECUTOR,
    OBS_LABEL_LANE,
    OBS_LABEL_TENANT,
    OBS_LABEL_PHASE,
    OBS_LABEL_KIND,
    OBS_LABEL_RESULT,
})
"""Every label key a metric may carry.  New keys are added here, next
to an OBS_LABEL_* constant, never inline at a call site."""

#: default histogram buckets for millisecond latencies
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0)

#: default histogram buckets for sizes/counts (powers of two)
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

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

    def _absorb(self, entry: Dict[str, Any]) -> None:
        """Fold one shipped series entry (same buckets) into this."""
        if len(entry["counts"]) != len(self.buckets) + 1:
            raise ValueError(
                f"histogram {self.name}: shipped entry has "
                f"{len(entry['counts'])} buckets, expected "
                f"{len(self.buckets) + 1}")
        key = _label_key(entry["labels"])
        with self._lock:
            series = self._series_unlocked(key)
            series["counts"] = [
                a + b for a, b in zip(series["counts"],
                                      entry["counts"])]
            series["sum"] += entry["sum"]
            series["count"] += entry["count"]

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


def merge_metric_snapshots(snapshots: Sequence[Dict[str, Any]]
                           ) -> Dict[str, Any]:
    """Fold per-worker/per-shard snapshots into one.

    Counters and histogram bucket counts/sums add; gauges keep the
    maximum observed level (a fill gauge merged across workers reads
    as the high-water mark).  The same-name metric must have the same
    type and buckets everywhere.
    """
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        for name, metric in snap.items():
            into = merged.get(name)
            if into is None:
                merged[name] = {
                    "type": metric["type"], "help": metric["help"],
                    **({"buckets": list(metric["buckets"])}
                       if metric["type"] == "histogram" else {}),
                    "values": [
                        {k: (list(v) if isinstance(v, list) else
                             (dict(v) if isinstance(v, dict) else v))
                         for k, v in entry.items()}
                        for entry in metric["values"]],
                }
                continue
            if into["type"] != metric["type"]:
                raise ValueError(
                    f"metric {name!r} merges {into['type']} with "
                    f"{metric['type']}")
            by_labels = {_label_key(e["labels"]): e
                         for e in into["values"]}
            for entry in metric["values"]:
                key = _label_key(entry["labels"])
                have = by_labels.get(key)
                if have is None:
                    fresh = {
                        k: (list(v) if isinstance(v, list) else
                            (dict(v) if isinstance(v, dict) else v))
                        for k, v in entry.items()}
                    by_labels[key] = fresh
                    into["values"].append(fresh)
                elif metric["type"] == "counter":
                    have["value"] += entry["value"]
                elif metric["type"] == "gauge":
                    have["value"] = max(have["value"], entry["value"])
                else:
                    have["counts"] = [
                        a + b for a, b in
                        zip(have["counts"], entry["counts"])]
                    have["sum"] += entry["sum"]
                    have["count"] += entry["count"]
            into["values"].sort(
                key=lambda e: _label_key(e["labels"]))
    return merged


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
    """Record into a fresh registry for the duration of the block.

    Process workers wrap each shipped chunk in this so their snapshot
    contains exactly the chunk's deltas; the coordinator merges the
    shipped snapshot into its own registry via
    :func:`absorb_snapshot`.
    """
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def absorb_snapshot(snapshot: Dict[str, Any],
                    registry: Optional[MetricsRegistry] = None) -> None:
    """Fold one shipped snapshot into ``registry`` (default: global).

    Counters and histograms replay additively; gauges apply as levels.
    """
    into = registry if registry is not None else get_registry()
    for name, metric in snapshot.items():
        if metric["type"] == "counter":
            counter = into.counter(name, metric["help"])
            for entry in metric["values"]:
                counter.inc(entry["value"], **entry["labels"])
        elif metric["type"] == "gauge":
            gauge = into.gauge(name, metric["help"])
            for entry in metric["values"]:
                gauge.set(entry["value"], **entry["labels"])
        else:
            hist = into.histogram(name, metric["help"],
                                  metric["buckets"])
            for entry in metric["values"]:
                hist._absorb(entry)
