"""Tests for ``repro.obs``: metrics registry, stats helpers, exporters.

The tracer itself (and its cross-process propagation) is covered by
``test_obs_trace.py``; here we pin the metrics/label discipline, the
scoped-registry isolation, the shared percentile helpers, and the
NDJSON / chrome / Prometheus export formats.
"""

import json
import math

import numpy as np
import pytest

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
    MetricsRegistry,
    get_registry,
    scoped_registry,
)
from repro.obs.stats import (
    DEFAULT_RESERVOIR,
    Reservoir,
    percentile,
    percentile_summary,
)

# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


def test_counter_accumulates_per_label_set():
    reg = MetricsRegistry()
    c = reg.counter("q_total", "queries")
    c.inc(1.0, shard="0")
    c.inc(2.0, shard="0")
    c.inc(5.0, shard="1")
    snap = reg.snapshot()["q_total"]
    values = {entry["labels"]["shard"]: entry["value"]
              for entry in snap["values"]}
    assert values == {"0": 3.0, "1": 5.0}


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("q_total", "queries").inc(-1.0)


def test_unregistered_label_key_is_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("q_total", "queries").inc(1.0, color="red")


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a_total", "x") is reg.counter("a_total", "x")
    assert reg.gauge("g", "x") is reg.gauge("g", "x")
    assert reg.histogram("h_ms", "x") is reg.histogram("h_ms", "x")


def test_histogram_buckets_are_non_cumulative_in_snapshot():
    reg = MetricsRegistry()
    h = reg.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0):
        h.observe(value)
    entry = reg.snapshot()["lat_ms"]["values"][0]
    assert entry["counts"] == [1, 1, 1]  # per-bucket, not cumulative
    assert entry["count"] == 3
    assert entry["sum"] == pytest.approx(56.5 - 1.0)


def test_scoped_registry_isolates():
    host = get_registry()
    before = host.snapshot().get("scoped_total")
    with scoped_registry() as fresh:
        get_registry().counter("scoped_total", "s").inc(4.0, kind="w")
        scoped = fresh.snapshot()
    # Nothing leaked into the host registry while scoped.
    assert host.snapshot().get("scoped_total") == before
    assert scoped["scoped_total"]["values"] == [
        {"labels": {"kind": "w"}, "value": 4.0}]
    assert get_registry() is host


def test_default_bucket_ladders_are_sorted():
    assert list(LATENCY_BUCKETS_MS) == sorted(LATENCY_BUCKETS_MS)


# ---------------------------------------------------------------------------
# stats helpers
# ---------------------------------------------------------------------------


def test_percentile_empty_and_validation():
    assert percentile([], 95.0) == 0.0
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)
    with pytest.raises(ValueError):
        percentile([1.0], -1.0)


def test_percentile_matches_numpy():
    values = [5.0, 1.0, 9.0, 3.0]
    assert percentile(values, 50.0) == pytest.approx(
        float(np.percentile(values, 50.0)))


def test_percentile_summary_keys_render_as_integers():
    summary = percentile_summary([1.0, 2.0, 3.0])
    assert sorted(summary) == ["p50", "p95", "p99"]
    assert all(math.isfinite(v) for v in summary.values())


def test_reservoir_bounded_and_drops_oldest():
    res = Reservoir(4)
    for i in range(10):
        res.add(float(i))
    assert len(res) <= 4
    # The newest samples survive the drop-oldest policy.
    assert res.samples()[-1] == 9.0
    assert res.percentile(100.0) == 9.0
    assert sorted(res.summary()) == ["p50", "p95", "p99"]


def test_reservoir_rejects_tiny_capacity():
    with pytest.raises(ValueError):
        Reservoir(1)
    assert DEFAULT_RESERVOIR >= 2


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def _span(name, span_id, parent_id, trace_id="t1", pid=1):
    return {"name": name, "trace_id": trace_id, "span_id": span_id,
            "parent_id": parent_id, "start_ms": 100.0,
            "duration_ms": 2.0, "pid": pid, "attrs": {"k": "v"}}


def test_ndjson_round_trip(tmp_path):
    spans = [_span("root", "a", None), _span("child", "b", "a")]
    path = write_spans_ndjson(spans, tmp_path / "t.ndjson")
    assert read_spans_ndjson(path) == spans
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["trace_id"] == "t1" for line in lines)


def test_validate_span_tree_connected_and_orphans():
    good = [_span("root", "a", None), _span("child", "b", "a")]
    tree = validate_span_tree(good)
    assert tree["connected"]
    assert tree["roots"] == ["a"]
    assert tree["orphans"] == []

    orphaned = good + [_span("lost", "c", "missing")]
    tree = validate_span_tree(orphaned)
    assert not tree["connected"]
    assert tree["orphans"] == ["c"]

    two_traces = [_span("r1", "a", None),
                  _span("r2", "b", None, trace_id="t2")]
    assert not validate_span_tree(two_traces)["connected"]
    assert not validate_span_tree([])["connected"]


def test_chrome_trace_events(tmp_path):
    spans = [_span("root", "a", None, pid=7),
             _span("child", "b", "a", pid=8)]
    trace = chrome_trace(spans)
    assert {e["name"] for e in trace["traceEvents"]} == {"root", "child"}
    assert {e["tid"] for e in trace["traceEvents"]} == {7, 8}
    for event in trace["traceEvents"]:
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(100.0 * 1000.0)
    path = write_chrome_trace(spans, tmp_path / "t.json")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert len(loaded["traceEvents"]) == 2


def test_prometheus_text_renders_all_instrument_kinds():
    reg = MetricsRegistry()
    reg.counter("c_total", "counts things").inc(3.0, shard="0")
    reg.gauge("g", "gauges").set(1.5)
    reg.histogram("h_ms", "hist", buckets=(1.0, 10.0)).observe(5.0)
    text = prometheus_text(reg.snapshot())
    assert "# TYPE c_total counter" in text
    assert 'c_total{shard="0"} 3' in text
    assert "# HELP c_total counts things" in text
    assert "# TYPE g gauge" in text
    assert "g 1.5" in text
    # Buckets are cumulated on render and get the +Inf terminal.
    assert 'h_ms_bucket{le="1"} 0' in text
    assert 'h_ms_bucket{le="10"} 1' in text
    assert 'h_ms_bucket{le="+Inf"} 1' in text
    assert "h_ms_sum 5" in text
    assert "h_ms_count 1" in text


def test_prometheus_text_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("c_total", "").inc(1.0, kind='a"b\nc')
    text = prometheus_text(reg.snapshot())
    assert 'kind="a\\"b\\nc"' in text
