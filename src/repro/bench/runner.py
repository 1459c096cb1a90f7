"""Engine runners: execute a workload, average the paper's metrics.

Mirrors the paper's methodology: run every query of a workload, average
query response time; a simulated-time threshold (the paper uses 100 s)
marks engines that "show no result" in Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.baselines import (
    CFLMatchEngine,
    GpSMEngine,
    GunrockSMEngine,
    TurboISOEngine,
    UllmannEngine,
    VF2Engine,
)
from repro.bench.workloads import Workload
from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.core.result import MatchResult
from repro.graph.labeled_graph import LabeledGraph

if TYPE_CHECKING:  # runner is imported by the service benchmarks
    from repro.service.batch import BatchReport

#: the paper's Figure 12 cut-off, scaled to our reduced datasets
DEFAULT_THRESHOLD_MS = 2_000.0

#: safety cap so pure-Python joins cannot blow up the harness
DEFAULT_MAX_ROWS = 300_000


@dataclass
class WorkloadSummary:
    """Averaged metrics over one workload for one engine."""

    engine: str
    dataset: str
    avg_ms: float = 0.0
    avg_join_gld: float = 0.0
    avg_gst: float = 0.0
    total_matches: int = 0
    timeouts: int = 0
    queries: int = 0
    avg_min_candidates: float = 0.0
    results: List[MatchResult] = field(default_factory=list)

    @property
    def timed_out(self) -> bool:
        """Engine considered failed on this workload (Figure 12 gaps)."""
        return self.timeouts > self.queries // 2


EngineFactory = Callable[[LabeledGraph], object]


def gsi_factory(config: Optional[GSIConfig] = None,
                budget_ms: Optional[float] = DEFAULT_THRESHOLD_MS,
                max_rows: Optional[int] = DEFAULT_MAX_ROWS) -> EngineFactory:
    """Factory for GSI engines with harness-level safety limits."""
    base = config if config is not None else GSIConfig()

    def make(graph: LabeledGraph) -> GSIEngine:
        from dataclasses import replace
        cfg = replace(base, budget_ms=budget_ms,
                      max_intermediate_rows=max_rows)
        return GSIEngine(graph, cfg)

    return make


def baseline_factory(kind: str,
                     budget_ms: Optional[float] = DEFAULT_THRESHOLD_MS,
                     max_rows: Optional[int] = DEFAULT_MAX_ROWS,
                     wall_budget_s: Optional[float] = 15.0) -> EngineFactory:
    """Factory for one of the named baseline engines."""

    def make(graph: LabeledGraph):
        if kind == "vf3":
            return VF2Engine(graph, budget_ms=budget_ms,
                             wall_budget_s=wall_budget_s)
        if kind == "cfl":
            return CFLMatchEngine(graph, budget_ms=budget_ms,
                                  wall_budget_s=wall_budget_s)
        if kind == "ullmann":
            return UllmannEngine(graph, budget_ms=budget_ms,
                                 wall_budget_s=wall_budget_s)
        if kind == "turbo":
            return TurboISOEngine(graph, budget_ms=budget_ms,
                                  wall_budget_s=wall_budget_s)
        if kind == "gpsm":
            return GpSMEngine(graph, budget_ms=budget_ms,
                              max_intermediate_rows=max_rows)
        if kind == "gunrock":
            return GunrockSMEngine(graph, budget_ms=budget_ms,
                                   max_intermediate_rows=max_rows)
        raise ValueError(f"unknown engine kind {kind!r}")

    return make


def summarize_results(results: List[MatchResult], engine_label: str,
                      dataset: str) -> WorkloadSummary:
    """Average a list of per-query results into a :class:`WorkloadSummary`.

    Shared by the sequential and batched runners so both report the
    paper's metrics identically.
    """
    summary = WorkloadSummary(engine=engine_label, dataset=dataset)
    total_ms = total_gld = total_gst = total_minc = 0.0
    for result in results:
        summary.results.append(result)
        summary.queries += 1
        if result.timed_out:
            summary.timeouts += 1
            continue
        total_ms += result.elapsed_ms
        total_gld += result.counters.join_gld
        total_gst += result.counters.gst
        summary.total_matches += result.num_matches
        if result.min_candidate_size is not None:
            total_minc += result.min_candidate_size
    done = max(1, summary.queries - summary.timeouts)
    summary.avg_ms = total_ms / done
    summary.avg_join_gld = total_gld / done
    summary.avg_gst = total_gst / done
    summary.avg_min_candidates = total_minc / done
    return summary


def run_workload(factory: EngineFactory, workload: Workload,
                 engine_label: str = "") -> WorkloadSummary:
    """Run every query of ``workload`` on a fresh engine, average metrics."""
    engine = factory(workload.graph)
    label = engine_label or getattr(engine, "name", "engine")
    results: List[MatchResult] = [
        engine.match(query) for query in workload.queries]
    return summarize_results(results, label, workload.name)


def run_workload_batched(workload: Workload,
                         config: Optional[GSIConfig] = None,
                         engine_label: str = "gsi-batch",
                         cache_capacity: int = 256,
                         budget_ms: Optional[float] = DEFAULT_THRESHOLD_MS,
                         max_rows: Optional[int] = DEFAULT_MAX_ROWS,
                         executor=None,
                         sharded=None,
                         ) -> Tuple[WorkloadSummary, "BatchReport"]:
    """Run a workload through the batch service.

    ``executor`` (a :class:`~repro.service.executors.QueryExecutor`)
    selects how the joining phase runs; ``None`` runs it serially.
    The caller owns the executor's lifecycle; the batch service made
    here is closed before returning, unlinking any engine segments it
    published.

    ``sharded`` (a :class:`~repro.shard.engine.ShardedEngine`) serves
    the workload scatter-gather over its shards instead of from one
    engine; ``config``/``budget_ms``/``max_rows`` are then taken from
    the sharded engine's own config (the caller tuned it at
    construction).

    Returns the usual :class:`WorkloadSummary` plus the
    :class:`~repro.service.batch.BatchReport` with service-level metrics
    (latency percentiles, plan-cache hit rate, wall-clock throughput).
    """
    from repro.service.batch import BatchEngine

    if sharded is not None:
        engine = BatchEngine(sharded=sharded, executor=executor)
    else:
        base = config if config is not None else GSIConfig()
        cfg = replace(base, budget_ms=budget_ms,
                      max_intermediate_rows=max_rows)
        engine = BatchEngine(workload.graph, cfg,
                             cache_capacity=cache_capacity,
                             executor=executor)
    with engine:
        report = engine.run_batch(workload.queries)
    summary = summarize_results(report.results, engine_label,
                                workload.name)
    return summary, report


def run_matrix(factories: Dict[str, EngineFactory],
               workloads: Dict[str, Workload]) -> List[WorkloadSummary]:
    """Cartesian product of engines x workloads (Figure 12 style)."""
    out: List[WorkloadSummary] = []
    for wname, workload in workloads.items():
        for ename, factory in factories.items():
            out.append(run_workload(factory, workload, engine_label=ename))
    return out
