"""Scatter-gather query coordinator over a :class:`ShardedGraph`.

A :class:`ShardedEngine` owns one
:class:`~repro.core.engine.GSIEngine` per shard (each with its own
shard-local signature table and storage structure) plus one shared
:class:`~repro.service.plan_cache.PlanCache`.  Serving a query is a
scatter-gather:

1. **Prepare once** — the query is validated (connected, radius within
   the halo depth), its anchor vertex (a query center) is fixed, and
   filtering runs against every shard's signature table.  Join-order
   planning happens once: the first shard to need a plan populates the
   shared plan cache and every other shard replays it through the
   canonical fingerprint, computed once per query for all shards (any
   join order is correct on any shard; only cost accounting could
   differ, never matches).
2. **Scatter** — every (query, shard) pair becomes one task of the
   existing :class:`~repro.service.executors.QueryExecutor` layer
   (serial or process), run against the shard engines of an
   :class:`~repro.service.executors.EngineFanout`.  The serial
   executor executes on the live engines directly; a process pool
   receives one shared-memory handle per shard
   (:mod:`repro.storage.shm`), so the per-batch context pickles in
   O(handle) bytes, and its workers attach shard engines lazily and
   cache them per ``(epoch, shard)``.
3. **Gather** — shard-local matches are translated back to global
   vertex ids and deduplicated by **anchor ownership**: a shard only
   reports a match whose anchor image it owns.  By the halo containment
   argument (see :mod:`repro.shard.sharded_graph`), this partition of
   the match set is exact — identical to a single engine over the whole
   graph.  Per-shard transaction and cache statistics merge into a
   :class:`ShardReport`; merged per-query counters keep per-shard
   attribution via :func:`~repro.gpusim.meter.merge_shard_snapshots`.

Simulated semantics: each (query, shard) pair runs on its own simulated
device, so a merged query's ``elapsed_ms`` is the scatter-gather
*makespan* — the slowest shard — and its transaction counters are the
sum over shards.  Only the *match set* is guaranteed identical to the
single-engine path; simulated totals change shape with the shard count
(that shift is exactly what :mod:`benchmarks.bench_shard_scaling`
measures).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine, PreparedQuery
from repro.core.result import MatchResult, PhaseBreakdown
from repro.errors import GraphError
from repro.gpusim.meter import merge_shard_snapshots
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, shipped_spans
from repro.service.batch import BatchItem, BatchReport
from repro.service.executors import (
    EngineContext,
    EngineFanout,
    ExecutedQuery,
    QueryExecutor,
    SerialExecutor,
    _execute_one,
)
from repro.service.plan_cache import PlanCache
from repro.shard.sharded_graph import ShardedGraph, ShardingInfo


def query_center(query: LabeledGraph) -> Tuple[int, int]:
    """``(anchor vertex, radius)`` of a connected query graph.

    The anchor is a vertex of minimum eccentricity (lowest id on ties);
    its eccentricity is the query radius, the halo depth needed to
    answer the query shard-locally.  Raises
    :class:`~repro.errors.GraphError` for empty or disconnected
    queries (a disconnected query has no finite radius, so no halo
    depth makes shard-local matching complete).
    """
    n = query.num_vertices
    if n == 0:
        raise GraphError("empty query")
    best_u, best_ecc = 0, -1
    for u in range(n):
        dist = [-1] * n
        dist[u] = 0
        todo = deque([u])
        while todo:
            v = todo.popleft()
            for w in query.neighbors(v):
                w = int(w)
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    todo.append(w)
        if min(dist) < 0:
            raise GraphError(
                "sharded execution requires a connected query")
        ecc = max(dist)
        if best_ecc < 0 or ecc < best_ecc:
            best_u, best_ecc = u, ecc
    return best_u, best_ecc


# ----------------------------------------------------------------------
# The scatter task
# ----------------------------------------------------------------------

#: fan-out payload: (task index, shard id, prepared query)
_ShardTask = Tuple[int, int, PreparedQuery]


def _execute_shard_task(ctx: EngineContext,
                        payload: _ShardTask) -> ExecutedQuery:
    """Module-level task function (picklable by reference).

    In a process worker the spans recorded here (the ``shard.execute``
    wrapper plus the engine's own ``gsi.execute`` tree) ship back in
    :attr:`~repro.service.executors.ExecutedQuery.spans`; the
    coordinator absorbs and empties them during the gather phase.
    """
    index, shard_id, prepared = payload
    with shipped_spans(prepared.trace) as spans:
        with get_tracer().span("shard.execute", parent=prepared.trace,
                               shard=shard_id):
            item = _execute_one(ctx.engine(shard_id), index, prepared,
                                "GSI-shard")
    item.spans = spans
    return item


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class ShardQueryStats:
    """One (query, shard) outcome inside a sharded batch."""

    shard: int
    #: matches the shard found in its subgraph (before ownership dedup)
    raw_matches: int
    #: matches whose anchor the shard owns (what it contributes)
    owned_matches: int
    elapsed_ms: float
    #: simulated memory transactions (GLD + GST) this shard spent
    transactions: int
    plan_cached: bool
    timed_out: bool
    error: Optional[str] = None


@dataclass
class ShardedItem(BatchItem):
    """One query's merged outcome, with its per-shard breakdown."""

    per_shard: List[ShardQueryStats] = field(default_factory=list)


@dataclass
class ShardReport(BatchReport):
    """Aggregate outcome of one :meth:`ShardedEngine.run_batch` call:
    a :class:`~repro.service.batch.BatchReport` whose items are
    :class:`ShardedItem` objects, plus the per-shard totals."""

    #: per-shard simulated transaction totals over the whole batch
    shard_transactions: List[int] = field(default_factory=list)
    #: sharding layout / replication statistics
    info: Optional[ShardingInfo] = None

    @property
    def max_shard_transactions(self) -> int:
        """The busiest shard's simulated transaction total — the
        scatter-gather bottleneck the scaling bench tracks."""
        return max(self.shard_transactions, default=0)

    @property
    def total_transactions(self) -> int:
        return sum(self.shard_transactions)

    def summary_line(self) -> str:
        info = self.info
        layout = (f"{info.num_shards} shards (halo {info.halo_hops}, "
                  f"{info.vertex_replication:.2f}x replication)"
                  if info is not None else "unsharded")
        return (f"{self.num_queries} queries over {layout} in "
                f"{self.wall_clock_ms:.0f} ms wall via {self.executor} | "
                f"matches={self.total_matches} "
                f"timeouts={self.timeouts} errors={self.errors} | "
                f"tx max/total = {self.max_shard_transactions}/"
                f"{self.total_transactions} | "
                f"plan cache {self.cache.hits}/{self.cache.lookups} hits")


@dataclass
class ShardedPrepared:
    """Everything the gather phase needs about one prepared query."""

    query: LabeledGraph
    anchor_u: int
    radius: int
    per_shard: List[PreparedQuery] = field(default_factory=list)
    plan_cached: bool = False
    prepare_ms: float = 0.0


# ----------------------------------------------------------------------


class ShardedEngine:
    """Scatter-gather subgraph matching over a :class:`ShardedGraph`.

    Parameters
    ----------
    sharded:
        The partitioned graph (shards already materialized).
    config:
        Engine configuration applied to every shard engine.
    cache_capacity:
        Shared plan-cache size (one cache across all shards — the
        canonical fingerprint makes one planning pass serve them all).

    :meth:`run_batch` scatters over the executor it is given (serial
    by default).  A :class:`~repro.service.executors.ProcessExecutor`
    receives the shards through shared memory, published on the first
    such batch and unlinked by :meth:`close`.
    """

    name = "GSI-shard"

    def __init__(self, sharded: ShardedGraph,
                 config: Optional[GSIConfig] = None,
                 cache_capacity: int = 256) -> None:
        self.sharded = sharded
        self.config = config if config is not None else GSIConfig()
        self.engines = [GSIEngine(shard.graph, self.config)
                        for shard in sharded.shards]
        self.plan_cache = PlanCache(capacity=cache_capacity)
        self._fanout = EngineFanout(self.engines, self.config)

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    @property
    def graph(self) -> LabeledGraph:
        """The full (unsharded) data graph."""
        return self.sharded.graph

    # ------------------------------------------------------------------
    # The shared-memory publication + engine lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the shard publication (idempotent).  The engine
        stays usable; the next process-executor batch republishes."""
        self._fanout.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def prepare(self, query: LabeledGraph) -> ShardedPrepared:
        """Validate + filter the query on every shard; plan once.

        Raises :class:`~repro.errors.GraphError` when the query is
        empty, disconnected, or its radius exceeds the sharded graph's
        halo depth (a deeper halo is required for exact shard-local
        matching — rebuild the :class:`ShardedGraph` with larger
        ``halo_hops``).
        """
        t0 = time.perf_counter()
        anchor_u, radius = query_center(query)
        if radius > self.sharded.halo_hops:
            raise GraphError(
                f"query radius {radius} exceeds the sharded graph's "
                f"halo depth {self.sharded.halo_hops}; rebuild with "
                f"halo_hops >= {radius} for exact sharded matching")
        # Canonicalize once; every shard still counts its own lookup.
        fingerprint = self.plan_cache.fingerprint(query)
        per_shard = [engine.prepare(query, plan_cache=self.plan_cache,
                                    fingerprint=fingerprint)
                     for engine in self.engines]
        planned = [p.plan_cached for p in per_shard if p.plan is not None]
        return ShardedPrepared(
            query=query, anchor_u=anchor_u, radius=radius,
            per_shard=per_shard,
            plan_cached=bool(planned) and all(planned),
            prepare_ms=(time.perf_counter() - t0) * 1000.0)

    # ------------------------------------------------------------------

    def _merge(self, sp: ShardedPrepared,
               outcomes: Sequence[ExecutedQuery]
               ) -> Tuple[MatchResult, List[ShardQueryStats],
                          Optional[str]]:
        """Gather one query's shard outcomes into a merged result."""
        merged = MatchResult(engine=self.name)
        stats: List[ShardQueryStats] = []
        kept: List[tuple] = []
        error: Optional[str] = None
        owner = self.sharded.owner
        for shard_obj, prepared, out in zip(self.sharded.shards,
                                            sp.per_shard, outcomes):
            res = out.result
            owned_matches = 0
            if out.error is not None and error is None:
                error = f"shard {shard_obj.shard_id}: {out.error}"
            if res.timed_out:
                merged.timed_out = True
            if out.error is None:
                for match in res.matches:
                    gm = shard_obj.to_global(match)
                    if owner[gm[sp.anchor_u]] == shard_obj.shard_id:
                        kept.append(gm)
                        owned_matches += 1
            for u, size in res.candidate_sizes.items():
                merged.candidate_sizes[u] = (
                    merged.candidate_sizes.get(u, 0) + size)
            stats.append(ShardQueryStats(
                shard=shard_obj.shard_id,
                raw_matches=res.num_matches,
                owned_matches=owned_matches,
                elapsed_ms=res.elapsed_ms,
                transactions=res.counters.transactions,
                plan_cached=prepared.plan_cached,
                timed_out=res.timed_out,
                error=out.error))
        merged.counters = merge_shard_snapshots(
            [out.result.counters for out in outcomes])
        # Scatter-gather latency semantics: the batch is only done when
        # the slowest shard answers.
        merged.elapsed_ms = max(
            (out.result.elapsed_ms for out in outcomes), default=0.0)
        filter_ms = max((p.filter_ms for p in sp.per_shard), default=0.0)
        merged.phases = PhaseBreakdown(
            filter_ms=filter_ms,
            join_ms=max(0.0, merged.elapsed_ms - filter_ms))
        if error is not None:
            # A failed shard breaks the completeness argument; never
            # return a silently partial match set.
            merged.matches = []
        else:
            merged.matches = sorted(kept)
        return merged, stats, error

    # ------------------------------------------------------------------

    def match(self, query: LabeledGraph) -> MatchResult:
        """Single-query scatter-gather (serial, in-process).

        Raises on invalid queries and on shard-side failures; use
        :meth:`run_batch` for per-item error isolation.
        """
        sp = self.prepare(query)
        outcomes = [
            _execute_one(engine, s, prepared, self.name)
            for s, (engine, prepared)
            in enumerate(zip(self.engines, sp.per_shard))]
        merged, _, error = self._merge(sp, outcomes)
        if error is not None:
            raise RuntimeError(f"sharded match failed: {error}")
        return merged

    # ------------------------------------------------------------------

    def run_batch(self, queries: Sequence[LabeledGraph],
                  executor: Optional[QueryExecutor] = None) -> ShardReport:
        """Serve one batch of queries; results keep submission order.

        Phase 1 prepares every query serially in this process (shared
        plan-cache accounting stays deterministic under every
        executor); phase 2 scatters all (query, shard) execution tasks
        through the executor at once — so shard work from different
        queries overlaps freely — and phase 3 gathers, dedups by anchor
        ownership, and merges.  A query that fails validation or loses
        a shard reports a per-item error; the rest of the batch is
        unaffected.
        """
        chosen = executor if executor is not None else SerialExecutor()
        with get_tracer().span("shard.run_batch",
                               queries=len(queries),
                               shards=self.num_shards,
                               executor=chosen.name) as span:
            report = self._run_batch_inner(queries, chosen)
            span.set_attribute("matches", report.total_matches)
        self._record_shard_metrics(report)
        return report

    @staticmethod
    def _record_shard_metrics(report: ShardReport) -> None:
        """Roll one batch's per-shard totals into the registry."""
        transactions = get_registry().counter(
            "gsi_shard_transactions_total",
            "Simulated memory transactions by shard.")
        for shard_id, total in enumerate(report.shard_transactions):
            if total:
                transactions.inc(float(total), shard=str(shard_id))

    def _run_batch_inner(self, queries: Sequence[LabeledGraph],
                         chosen: QueryExecutor) -> ShardReport:
        tracer = get_tracer()
        stats_before = self.plan_cache.stats_snapshot()
        start = time.perf_counter()
        num_shards = self.num_shards

        items: List[Optional[ShardedItem]] = [None] * len(queries)
        prepared_ok: Dict[int, ShardedPrepared] = {}
        payloads: List[_ShardTask] = []
        with tracer.span("shard.prepare", queries=len(queries)):
            for index, query in enumerate(queries):
                t0 = time.perf_counter()
                try:
                    sp = self.prepare(query)
                except Exception as exc:  # noqa: BLE001 - one bad query
                    # must never abort the rest of the batch; report it
                    # per item.
                    items[index] = ShardedItem(
                        index=index,
                        result=MatchResult(engine=self.name),
                        plan_cached=False,
                        host_ms=(time.perf_counter() - t0) * 1000.0,
                        error=f"{type(exc).__name__}: {exc}")
                    continue
                prepared_ok[index] = sp
                for s in range(num_shards):
                    payloads.append((index * num_shards + s, s,
                                     sp.per_shard[s]))

        # Process executors get the handle-based context (published
        # lazily, reused across batches until close()); the serial
        # executor fans out over the live engines.
        ctx = self._fanout.context(chosen)
        with tracer.span("shard.scatter", tasks=len(payloads)):
            outcomes = (chosen.map_tasks(_execute_shard_task, payloads,
                                         shared=ctx)
                        if payloads else [])
        if len(outcomes) != len(payloads):
            raise RuntimeError(
                f"executor {chosen.name!r} returned {len(outcomes)} "
                f"outcomes for {len(payloads)} tasks")
        by_index: Dict[int, ExecutedQuery] = {
            out.index: out for out in outcomes}

        shard_tx = [0] * num_shards
        with tracer.span("shard.gather", tasks=len(outcomes)):
            for out in outcomes:
                if out.spans:
                    tracer.absorb(out.spans)
                    out.spans = []
            for index, sp in prepared_ok.items():
                shard_outs = [by_index[index * num_shards + s]
                              for s in range(num_shards)]
                merged, per_shard, error = self._merge(sp, shard_outs)
                for stat in per_shard:
                    shard_tx[stat.shard] += stat.transactions
                items[index] = ShardedItem(
                    index=index, result=merged, per_shard=per_shard,
                    plan_cached=sp.plan_cached,
                    host_ms=sp.prepare_ms + max(
                        (o.execute_ms for o in shard_outs),
                        default=0.0),
                    error=error)

        wall_ms = (time.perf_counter() - start) * 1000.0
        return ShardReport(
            items=items,
            wall_clock_ms=wall_ms,
            cache=self.plan_cache.stats_snapshot().diff(stats_before),
            executor=chosen.name,
            shard_transactions=shard_tx,
            info=self.sharded.info())
