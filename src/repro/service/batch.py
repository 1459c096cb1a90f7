"""Batch query service: amortize offline artifacts across many queries.

A :class:`BatchEngine` owns one :class:`~repro.core.engine.GSIEngine`
(signature table and storage structure built once) plus a shared
:class:`~repro.service.plan_cache.PlanCache`, and runs whole batches of
queries through the engine's ``prepare``/``execute`` path.  Batches run
in two phases: every query is *prepared* serially in the calling
process (filtering + planning through the shared plan cache and
candidate-shape memo — deterministic cache accounting regardless of
parallelism), then the prepared queries are *executed* (the joining
phase, the heavy part) as tasks of a pluggable
:class:`~repro.service.executors.QueryExecutor` — serial or process
pool — and merged back in submission order.  Under a process pool the
engine reaches the workers as shared-memory handles, published on the
first such batch and unlinked by :meth:`BatchEngine.close`.  Per-query
:class:`~repro.core.result.MatchResult` objects are aggregated into a
:class:`BatchReport` carrying latency percentiles, plan-cache
statistics, and memory-transaction totals.

Simulated measurements are untouched by batching: every query still runs
on its own simulated device, so a resubmitted query reproduces its
``MatchResult`` exactly.  The one caveat is plan-cache hits across
*isomorphic but differently numbered* queries, which replay a translated
plan that fresh planning might not tie-break identically — simulated
time can then deviate slightly, while the match set never does.  What
the service amortizes is host-side work — engine construction,
join-order planning (via the plan cache), and Python/numpy execution
overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine, PreparedQuery
from repro.core.result import MatchResult
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import get_registry
from repro.obs.stats import percentile
from repro.obs.trace import get_tracer, shipped_spans
from repro.service.executors import (
    EngineContext,
    EngineFanout,
    ExecutedQuery,
    QueryExecutor,
    SerialExecutor,
    _execute_one,
)
from repro.service.plan_cache import CacheStats, PlanCache

if TYPE_CHECKING:  # service does not depend on the shard package at
    # runtime; a ShardedEngine backend is injected by the caller.
    from repro.shard.engine import (
        ShardedEngine,
        ShardedPrepared,
        ShardReport,
    )


def json_sanitize(value: Any) -> Any:
    """Recursively coerce a stats structure into plain JSON types.

    Storage stats dicts mix numpy scalars and integer keys (e.g. PCSR
    ``per_label``) into otherwise plain dicts; ``json.dumps`` rejects
    the former and silently stringifies the latter only at the top
    level.  The serving ``stats`` payload funnels through here so it is
    valid JSON end to end.
    """
    if isinstance(value, dict):
        return {str(k): json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_sanitize(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [json_sanitize(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    return value


#: fan-out payload: (submission index, prepared query)
_BatchTask = Tuple[int, PreparedQuery]


def _execute_batch_task(ctx: EngineContext,
                        task: _BatchTask) -> ExecutedQuery:
    """Module-level task function (picklable by reference): join one
    prepared query on the context's engine.

    In a process worker the spans recorded here ship back in
    :attr:`~repro.service.executors.ExecutedQuery.spans`; the
    coordinator absorbs them when it merges the batch.
    """
    index, prepared = task
    with shipped_spans(prepared.trace) as spans:
        item = _execute_one(ctx.engine(0), index, prepared,
                            BatchEngine.name)
    item.spans = spans
    return item


@dataclass
class BatchItem:
    """One query's outcome inside a batch (submission order preserved)."""

    index: int
    result: MatchResult
    plan_cached: bool
    host_ms: float  # host wall-clock spent on this query
    error: Optional[str] = None  # per-query failure; result is empty then


@dataclass
class BatchReport:
    """Aggregate outcome of one :meth:`BatchEngine.run_batch` call."""

    items: List[BatchItem] = field(default_factory=list)
    wall_clock_ms: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    #: name of the executor that ran the joining phase
    executor: str = ""
    #: scatter-gather details when a sharded backend served the batch
    #: (per-shard transactions / replication); ``None`` on
    #: the single-engine path
    shard: Optional["ShardReport"] = None

    # ------------------------------------------------------------------

    @property
    def results(self) -> List[MatchResult]:
        """Per-query results in submission order."""
        return [item.result for item in self.items]

    @property
    def num_queries(self) -> int:
        return len(self.items)

    @property
    def timeouts(self) -> int:
        return sum(1 for item in self.items if item.result.timed_out)

    @property
    def errors(self) -> int:
        """Queries rejected by the engine (bad input, planning error)."""
        return sum(1 for item in self.items if item.error is not None)

    @property
    def total_matches(self) -> int:
        return sum(item.result.num_matches for item in self.items)

    @property
    def total_simulated_ms(self) -> float:
        """Sum of simulated per-query response times."""
        return sum(item.result.elapsed_ms for item in self.items)

    @property
    def total_gld(self) -> int:
        return sum(item.result.counters.gld for item in self.items)

    @property
    def total_gst(self) -> int:
        return sum(item.result.counters.gst for item in self.items)

    @property
    def total_kernel_launches(self) -> int:
        return sum(item.result.counters.kernel_launches
                   for item in self.items)

    @property
    def plan_cache_hits(self) -> int:
        return sum(1 for item in self.items if item.plan_cached)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per host wall-clock second."""
        if self.wall_clock_ms <= 0.0:
            return 0.0
        return self.num_queries / (self.wall_clock_ms / 1000.0)

    def latency_percentile(self, pct: float) -> float:
        """Percentile of simulated per-query latency, in ms.

        Errored items are excluded: a rejected query carries an empty
        result with near-zero latency, which would skew p50/p95
        downward and make a failing batch look *faster*.  Failures are
        reported through :attr:`errors` instead.
        """
        values = [item.result.elapsed_ms for item in self.items
                  if item.error is None]
        return percentile(values, pct)

    @property
    def p50_ms(self) -> float:
        return self.latency_percentile(50)

    @property
    def p90_ms(self) -> float:
        return self.latency_percentile(90)

    @property
    def p99_ms(self) -> float:
        return self.latency_percentile(99)

    def summary_line(self) -> str:
        """One-line human summary (CLI and benchmark output)."""
        via = f" via {self.executor}" if self.executor else ""
        return (f"{self.num_queries} queries in "
                f"{self.wall_clock_ms:.0f} ms wall{via} "
                f"({self.throughput_qps:.1f} q/s) | "
                f"sim p50/p90/p99 = {self.p50_ms:.3f}/"
                f"{self.p90_ms:.3f}/{self.p99_ms:.3f} ms | "
                f"matches={self.total_matches} "
                f"timeouts={self.timeouts} errors={self.errors} | "
                f"plan cache {self.cache.hits}/{self.cache.lookups} hits "
                f"({100.0 * self.cache.hit_rate:.0f}%)")


class BatchEngine:
    """Serve batches of subgraph queries over one data graph.

    Parameters
    ----------
    graph:
        The data graph; ignored when ``engine`` is supplied.
    config:
        Engine configuration (defaults to plain GSI).
    cache_capacity:
        Plan-cache size; plans for the ``cache_capacity`` most recently
        used query shapes are kept.
    engine:
        An existing :class:`GSIEngine` to serve from (its graph/config
        take precedence).
    executor:
        The :class:`~repro.service.executors.QueryExecutor` running the
        joining phase of every batch that does not pass its own —
        serial (the default) or a process pool.  The engine's offline
        artifacts are read-only during matching and each query runs on
        its own simulated device, so queries are embarrassingly
        parallel.  The caller owns the executor's lifecycle
        (``shutdown()``).  Under a
        :class:`~repro.service.executors.ProcessExecutor` workers
        attach the engine's published artifacts; a store that is not
        plain PCSR is rebuilt worker-side from ``(graph, config)`` —
        see the shipping contract in :mod:`repro.service.executors`.
    sharded:
        A :class:`~repro.shard.engine.ShardedEngine` backend.  When
        supplied, batches are served scatter-gather over its shards
        (match sets identical to the single-engine path by the
        ownership/halo argument); ``graph``/``config``/``engine`` are
        taken from it, the plan cache is its shared cache, and
        :attr:`BatchReport.shard` carries the per-shard breakdown.
        Its shared-memory publication stays with the backend's owner.

    :meth:`close` (or leaving a ``with`` block) unlinks the
    shared-memory segments a process batch published for the engine.
    """

    name = "GSI-batch"

    def __init__(self, graph: Optional[LabeledGraph] = None,
                 config: Optional[GSIConfig] = None,
                 cache_capacity: int = 256,
                 engine: Optional[GSIEngine] = None,
                 executor: Optional[QueryExecutor] = None,
                 sharded: Optional["ShardedEngine"] = None) -> None:
        self.sharded = sharded
        self.executor = executor if executor is not None \
            else SerialExecutor()
        # The sharded backend fans out through its own EngineFanout.
        self._fanout: Optional[EngineFanout] = None
        if sharded is not None:
            if engine is not None:
                raise ValueError(
                    "pass either a sharded backend or an engine, not "
                    "both")
            self.engine = None
            self.graph = sharded.graph
            self.config = sharded.config
            self.plan_cache = sharded.plan_cache
            return
        if engine is None:
            if graph is None:
                raise ValueError("need a graph, an engine, or a sharded "
                                 "backend")
            engine = GSIEngine(graph, config)
        self.engine = engine
        self.graph = engine.graph
        self.config = engine.config
        self.plan_cache = PlanCache(capacity=cache_capacity)
        self._fanout = EngineFanout([engine], engine.config)

    def close(self) -> None:
        """Unlink the engine publication this service made
        (idempotent).  The service stays usable; the next process
        batch republishes."""
        if self._fanout is not None:
            self._fanout.close()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def prepare(self, query: LabeledGraph
                ) -> Union[PreparedQuery, "ShardedPrepared"]:
        """Filter + plan one query through the shared plan cache."""
        if self.sharded is not None:
            return self.sharded.prepare(query)
        return self.engine.prepare(query, plan_cache=self.plan_cache)

    def execute(self, prepared: PreparedQuery) -> MatchResult:
        if self.sharded is not None:
            raise ValueError(
                "the sharded backend merges per-shard execution; use "
                "match() or run_batch()")
        return self.engine.execute(prepared)

    def match(self, query: LabeledGraph) -> MatchResult:
        """Single-query convenience path (still plan-cached)."""
        if self.sharded is not None:
            return self.sharded.match(query)
        return self.execute(self.prepare(query))

    def storage_stats(self) -> Dict[str, Any]:
        """Storage-structure health, read now: the engine's
        ``NeighborStore.stats()``, or ``{"num_shards", "per_shard"}``
        over a sharded backend's shard stores.

        A served store is built once and only read by batches, so its
        health is read when asked (the ``stats`` RPC), never per batch.
        """
        if self.sharded is not None:
            return {"num_shards": self.sharded.num_shards,
                    "per_shard": [engine.store.stats()
                                  for engine in self.sharded.engines]}
        return self.engine.store.stats()

    # ------------------------------------------------------------------

    def run_batch(self, queries: Sequence[LabeledGraph],
                  executor: Optional[QueryExecutor] = None) -> BatchReport:
        """Serve one batch; results keep submission order.

        Phase 1 prepares every query serially in this process (plan
        cache and candidate-shape memo accounting is therefore
        deterministic — identical under every executor); phase 2 runs
        the joining phase on ``executor``, else on the service's own.
        """
        chosen = executor if executor is not None else self.executor
        if self.sharded is not None:
            with get_tracer().span("batch.run", queries=len(queries),
                                   executor=chosen.name, sharded=True):
                report = self._run_sharded(queries, chosen)
            self._record_batch_metrics(report)
            return report
        with get_tracer().span("batch.run", queries=len(queries),
                               executor=chosen.name) as batch_span:
            report = self._run_batch_inner(queries, chosen)
            batch_span.set_attribute("matches", report.total_matches)
            batch_span.set_attribute("errors", report.errors)
        self._record_batch_metrics(report)
        return report

    def _run_batch_inner(self, queries: Sequence[LabeledGraph],
                         chosen: QueryExecutor) -> BatchReport:
        stats_before = self.plan_cache.stats_snapshot()
        start = time.perf_counter()

        items: List[Optional[BatchItem]] = [None] * len(queries)
        pending: List[_BatchTask] = []
        prepared_by_index: Dict[int, PreparedQuery] = {}
        prepare_ms: Dict[int, float] = {}
        for index, query in enumerate(queries):
            t0 = time.perf_counter()
            try:
                prepared = self.prepare(query)
            except Exception as exc:  # noqa: BLE001 - one bad query must
                # never abort the rest of the batch; report it per item.
                items[index] = BatchItem(
                    index=index, result=MatchResult(engine=self.name),
                    plan_cached=False,
                    host_ms=(time.perf_counter() - t0) * 1000.0,
                    error=f"{type(exc).__name__}: {exc}")
                continue
            prepare_ms[index] = (time.perf_counter() - t0) * 1000.0
            prepared_by_index[index] = prepared
            pending.append((index, prepared))

        if pending:
            assert self._fanout is not None  # the unsharded path
            outcomes = chosen.map_tasks(
                _execute_batch_task, pending,
                shared=self._fanout.context(chosen))
            tracer = get_tracer()
            for done in outcomes:
                tracer.absorb(done.spans)
                items[done.index] = BatchItem(
                    index=done.index, result=done.result,
                    plan_cached=prepared_by_index[done.index].plan_cached,
                    host_ms=prepare_ms[done.index] + done.execute_ms,
                    error=done.error)

        wall_ms = (time.perf_counter() - start) * 1000.0
        cache_delta = self.plan_cache.stats_snapshot().diff(stats_before)
        missing = [i for i, item in enumerate(items) if item is None]
        if missing:
            raise RuntimeError(
                f"executor {chosen.name!r} dropped queries {missing}; "
                f"map_tasks must return every submitted task")
        return BatchReport(items=items, wall_clock_ms=wall_ms,
                           cache=cache_delta, executor=chosen.name)

    @staticmethod
    def _record_batch_metrics(report: BatchReport) -> None:
        """Roll one batch's plan-cache lookups into the process
        metrics registry."""
        lookups = get_registry().counter(
            "gsi_cache_lookups_total",
            "Plan/shape cache lookups by outcome.")
        cache = report.cache
        if cache.hits:
            lookups.inc(float(cache.hits), cache="plan", result="hit")
        plan_misses = cache.lookups - cache.hits
        if plan_misses > 0:
            lookups.inc(float(plan_misses), cache="plan",
                        result="miss")
        if cache.shape_hits:
            lookups.inc(float(cache.shape_hits), cache="shape",
                        result="hit")
        if cache.shape_misses:
            lookups.inc(float(cache.shape_misses), cache="shape",
                        result="miss")

    def _run_sharded(self, queries: Sequence[LabeledGraph],
                     executor: QueryExecutor) -> BatchReport:
        """Serve a batch through the sharded backend; its items pass
        through and the full scatter-gather breakdown rides along as
        :attr:`BatchReport.shard`."""
        shard_report = self.sharded.run_batch(queries, executor=executor)
        return BatchReport(
            items=shard_report.items,
            wall_clock_ms=shard_report.wall_clock_ms,
            cache=shard_report.cache,
            executor=shard_report.executor,
            shard=shard_report)
