"""Unified observability for the GSI reproduction (``repro.obs``).

Four pieces, one subsystem:

* :mod:`repro.obs.trace` — ``Span``/``Tracer`` context managers with a
  picklable ``TraceContext`` so spans recorded inside fork- and
  spawn-mode process workers re-parent into one coherent tree.
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms under the ``OBS_LABEL_KEYS`` label registry, with
  JSON-ready snapshots.
* :mod:`repro.obs.stats` — the shared percentile/reservoir helpers
  the batch and serving reports both use.
* :mod:`repro.obs.export` — NDJSON span logs, chrome://tracing JSON,
  and Prometheus text exposition.

Tracing defaults to a :class:`~repro.obs.trace.NullTracer` (and hot
paths only consult the registry they already hold), so the disabled
path adds near-zero overhead.
"""

from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    read_spans_ndjson,
    validate_span_tree,
    write_chrome_trace,
    write_spans_ndjson,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    OBS_LABEL_KEYS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    scoped_registry,
    set_registry,
)
from repro.obs.stats import (
    DEFAULT_RESERVOIR,
    Reservoir,
    percentile,
    percentile_summary,
)
from repro.obs.trace import (
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    current_trace_context,
    get_tracer,
    set_tracer,
    shipped_spans,
    tracing_active,
)

__all__ = [
    "chrome_trace", "prometheus_text", "read_spans_ndjson",
    "validate_span_tree", "write_chrome_trace", "write_spans_ndjson",
    "LATENCY_BUCKETS_MS", "OBS_LABEL_KEYS", "Counter",
    "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "scoped_registry", "set_registry", "DEFAULT_RESERVOIR", "Reservoir",
    "percentile", "percentile_summary", "NullTracer", "Span",
    "TraceContext", "Tracer", "current_trace_context", "get_tracer",
    "set_tracer", "shipped_spans", "tracing_active",
]
