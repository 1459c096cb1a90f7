"""Fold recorded spans into the per-layer metrics.

The program already emits spans at its layer boundaries (``gsi.*``,
``kernel.join_phase``, ``batch.run``, ``executor.*``, ``shard.*``,
``serve.batch``, ``stream.*``).  The benchmark records them through a
``repro.obs.trace.Tracer`` and folds them here.  A span's *self time*
is its duration minus the part of its interval covered by its child
spans; an ``executor.*`` span additionally excludes the work spans it
dispatched (their parent link points at the prepared query, not at the
executor), so its self time is the dispatch cost: pickling, IPC and
merging.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from harness import mean, pct

#: every per-layer metric, with its unit, in report order
PER_LAYER: List[Tuple[str, str]] = [
    ("error_share", "share"),
    ("latency_samples", "count"),
    ("filter.self_ms_p50", "ms"),
    ("filter.self_ms_p95", "ms"),
    ("filter.candidates_per_qv", "count"),
    ("filter.prune_ratio", "share"),
    ("filter.shape_hit_rate", "share"),
    ("plan.self_ms_p50", "ms"),
    ("plan.cache_hit_rate", "share"),
    ("join.self_ms_p50", "ms"),
    ("join.self_ms_p95", "ms"),
    ("join.matches", "count"),
    ("join.ns_per_match", "ns"),
    ("assemble.self_ms_p95", "ms"),
    ("assemble.ns_per_match", "ns"),
    ("sim.gld", "count"),
    ("sim.gst", "count"),
    ("sim.kernel_launches", "count"),
    ("sim.gld.commit_patch", "count"),
    ("sim.gld.delta_seed", "count"),
    ("sim.gld.filter", "count"),
    ("sim.gld.join", "count"),
    ("sim.gld.pcsr_compact", "count"),
    ("sim.gld.pcsr_maintain", "count"),
    ("sim.gld.pcsr_rebuild", "count"),
    ("sim.gld.sig_maintain", "count"),
    ("sim.gld.storage_locate", "count"),
    ("sim.gld.storage_read", "count"),
    ("batch.self_ms_p50", "ms"),
    ("batch.size_mean", "count"),
    ("executor.dispatch_ms_p50", "ms"),
    ("executor.shipped_bytes_per_batch", "bytes"),
    ("shm.publish_ms", "ms"),
    ("shm.published_bytes", "bytes"),
    ("shard.prepare.self_ms_p50", "ms"),
    ("shard.scatter.self_ms_p50", "ms"),
    ("shard.gather.self_ms_p50", "ms"),
    ("shard.owned_over_raw", "share"),
    ("shard.replication", "ratio"),
    ("shard.tx_imbalance", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.batch_fill_mean", "share"),
    ("serve.dedup_share", "share"),
    ("serve.shed_share", "share"),
    ("stream.maintain.self_ms_p50", "ms"),
    ("stream.maintain.self_ms_p95", "ms"),
    ("stream.commit_tx_per_edge", "count"),
    ("stream.maintain_tx_per_edge", "count"),
    ("stream.rebuilds_per_kedge", "count"),
    ("stream.compactions_per_kedge", "count"),
    ("stream.pcsr_dead_ratio", "share"),
    ("stream.pcsr_occupancy", "ratio"),
    ("stream.delta_ms_per_batch_p50", "ms"),
    ("stream.delta_changes_per_batch", "count"),
    ("stream.plans_invalidated_per_batch", "count"),
    ("obs.trace_overhead", "ratio"),
]

#: spans that carry the work an ``executor.*`` span dispatched
WORK_SPANS = ("gsi.execute", "shard.execute", "stream.query_delta")


def _interval(span: Dict[str, Any]) -> Tuple[float, float]:
    start = float(span["start_ms"])
    return start, start + float(span["duration_ms"])


def _covered_ms(lo: float, hi: float,
                intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """span id -> self time in ms."""
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if span.get("parent_id") is not None:
            children.setdefault(span["parent_id"], []).append(span)
    work = [span for span in spans if span["name"] in WORK_SPANS]
    out: Dict[str, float] = {}
    for span in spans:
        lo, hi = _interval(span)
        covering = [_interval(c) for c in children.get(span["span_id"], ())]
        if span["name"].startswith("executor."):
            covering.extend(_interval(w) for w in work)
        out[span["span_id"]] = max(
            0.0, float(span["duration_ms"]) - _covered_ms(lo, hi, covering))
    return out


def span_metrics(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Every per-layer metric that spans alone determine."""
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def selfs(name: str) -> List[float]:
        return [own[s["span_id"]] for s in by_name.get(name, ())]

    executes = by_name.get("gsi.execute", [])
    matches = sum(int(s["attrs"].get("matches", 0)) for s in executes)
    join_ms = sum(selfs("kernel.join_phase"))
    assemble_ms = sum(selfs("gsi.execute"))
    dispatch = [own[s["span_id"]] for s in spans
                if s["name"].startswith("executor.")]
    delta_by_batch: Dict[str, float] = {}
    for s in by_name.get("stream.query_delta", ()):
        key = s.get("parent_id") or ""
        delta_by_batch[key] = (delta_by_batch.get(key, 0.0)
                               + float(s["duration_ms"]))
    for s in by_name.get("stream.apply_batch", ()):
        delta_by_batch.setdefault(s["span_id"], 0.0)
    return {
        "filter.self_ms_p50": pct(selfs("gsi.filter"), 50),
        "filter.self_ms_p95": pct(selfs("gsi.filter"), 95),
        "plan.self_ms_p50": pct(selfs("gsi.plan"), 50),
        "join.self_ms_p50": pct(selfs("kernel.join_phase"), 50),
        "join.self_ms_p95": pct(selfs("kernel.join_phase"), 95),
        "join.matches": float(matches),
        "join.ns_per_match": join_ms * 1e6 / matches if matches else 0.0,
        "assemble.self_ms_p95": pct(selfs("gsi.execute"), 95),
        "assemble.ns_per_match":
            assemble_ms * 1e6 / matches if matches else 0.0,
        "batch.self_ms_p50": pct(selfs("batch.run"), 50),
        "batch.size_mean": mean([float(s["attrs"].get("queries", 0))
                                 for s in by_name.get("batch.run", ())]),
        "executor.dispatch_ms_p50": pct(dispatch, 50),
        "shm.publish_ms": sum(float(s["duration_ms"]) for s in spans
                              if s["name"].startswith("shm.publish")),
        "shard.prepare.self_ms_p50": pct(selfs("shard.prepare"), 50),
        "shard.scatter.self_ms_p50": pct(selfs("shard.scatter"), 50),
        "shard.gather.self_ms_p50": pct(selfs("shard.gather"), 50),
        "stream.maintain.self_ms_p50": pct(selfs("stream.apply_batch"), 50),
        "stream.maintain.self_ms_p95": pct(selfs("stream.apply_batch"), 95),
        "stream.delta_ms_per_batch_p50":
            pct(list(delta_by_batch.values()), 50),
    }


def check_op_tree(spans: Sequence[Dict[str, Any]]) -> str:
    """'' when ``spans`` form one connected tree, else the problem."""
    from repro.obs.export import validate_span_tree
    verdict = validate_span_tree(spans)
    if not verdict["connected"]:
        return (f"span tree not connected: {len(verdict['orphans'])} "
                f"orphans, trace ids {verdict['trace_ids']}")
    if len(verdict["roots"]) != 1:
        return f"expected one root span, got {len(verdict['roots'])}"
    return ""


class CandidateTally:
    """Accumulates candidate-set sizes of returned results."""

    def __init__(self) -> None:
        self.total = 0
        self.slots = 0

    def add(self, result: Any) -> None:
        sizes = result.candidate_sizes
        if sizes:
            self.total += int(sum(sizes.values()))
            self.slots += len(sizes)

    def metrics(self, graph_vertices: int) -> Dict[str, float]:
        total, slots = float(self.total), self.slots
        return {
            "filter.candidates_per_qv": total / slots if slots else 0.0,
            "filter.prune_ratio":
                total / (slots * graph_vertices) if slots else 0.0,
        }


def cache_metrics(stats: Any) -> Dict[str, float]:
    """Plan-cache and candidate-shape-memo hit rates."""
    shape_lookups = stats.shape_hits + stats.shape_misses
    return {
        "plan.cache_hit_rate": float(stats.hit_rate),
        "filter.shape_hit_rate":
            stats.shape_hits / shape_lookups if shape_lookups else 0.0,
    }


def complete(metrics: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric in report form; a layer a workload
    bypasses reads 0."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
