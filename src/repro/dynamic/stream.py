"""Continuous queries over a stream of graph updates.

A :class:`StreamEngine` owns one :class:`~repro.dynamic.graph.
DynamicGraph`, the incrementally maintained engine artifacts
(:class:`~repro.dynamic.index.DynamicIndex`), and a set of *continuous*
subgraph queries.  Each :meth:`apply_batch` call:

1. applies the :class:`~repro.dynamic.delta.GraphDelta` and commits a
   fresh snapshot;
2. maintains the signature table and PCSR partitions in place (metered
   — this is the incremental-vs-rebuild cost the benchmark compares);
3. invalidates cached join plans whose edge-label statistics shifted;
4. emits a *delta* result per continuous query — the matches created
   and destroyed by this batch — computed from the changed vertices
   rather than re-running the query.

Delta-matching is exact, not heuristic: a match created by the batch
must embed at least one net-inserted edge (vertex labels never change),
so seeding partial embeddings on inserted edges and extending them over
the new snapshot enumerates exactly the new matches; a match destroyed
by the batch must use at least one net-deleted edge, so the live
matches holding some query edge's image on a deleted pair are exactly
the dead ones.  Each registered query indexes its live set by data
vertex, so finding them visits, per deleted pair, only the matches
touching one of its endpoints (the smaller bucket) — the cost follows
the batch, not the size of the live set.  The differential test suite
checks the composition of these deltas against the brute-force oracle
on every committed snapshot.

Per-query delta matching is pure host-side work over batch-constant
inputs (the committed snapshot, the maintained signature table and the
seeding context, gathered once per batch in a :class:`_BatchSeed`), and
it runs in process: one loop over the registered queries, in
registration order.  A query's signatures are encoded once, when it is
registered.

Registration seeds the live set with one full match; a seeding match
that exhausts ``GSIConfig.budget_ms`` or ``max_intermediate_rows``
raises :class:`~repro.errors.BudgetExceeded` and registers nothing,
because every later delta would build on its empty, wrong base.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.core.result import MatchResult
from repro.core.signature import encode_vertex, is_candidate
from repro.dynamic.delta import GraphDelta
from repro.dynamic.graph import CommitResult, DynamicGraph
from repro.dynamic.index import DEFAULT_COMPACT_DEAD_RATIO, DynamicIndex
from repro.errors import BudgetExceeded, GraphError
from repro.gpusim.constants import LABEL_DELTA_SEED
from repro.gpusim.meter import MeterSnapshot
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.plan_cache import PlanCache

Match = Tuple[int, ...]


@dataclass
class QueryDelta:
    """Per-continuous-query outcome of one update batch."""

    query_id: int
    created: Set[Match] = field(default_factory=set)
    destroyed: Set[Match] = field(default_factory=set)
    num_matches: int = 0  # live matches after the batch
    host_ms: float = 0.0

    @property
    def net(self) -> int:
        return len(self.created) - len(self.destroyed)


@dataclass
class StreamBatchReport:
    """Everything one :meth:`StreamEngine.apply_batch` did."""

    batch_index: int
    num_inserted: int = 0
    num_deleted: int = 0
    num_new_vertices: int = 0
    query_deltas: Dict[int, QueryDelta] = field(default_factory=dict)
    maintenance: MeterSnapshot = field(default_factory=MeterSnapshot)
    rebuilds: int = 0
    compactions: int = 0
    #: simulated transactions the CSR-splice snapshot commit cost
    commit_transactions: int = 0
    plans_invalidated: int = 0
    labels_shifted: Tuple[int, ...] = ()
    #: PCSR health after this batch (``DynamicPCSRStorage.stats()``)
    pcsr: Dict[str, object] = field(default_factory=dict)
    #: always False: delta matching runs in process, with no executor
    #: to fail over from (kept for callers that still read it)
    executor_fallback: bool = False
    wall_ms: float = 0.0

    @property
    def total_created(self) -> int:
        return sum(len(d.created) for d in self.query_deltas.values())

    @property
    def total_destroyed(self) -> int:
        return sum(len(d.destroyed) for d in self.query_deltas.values())

    def summary_line(self) -> str:
        return (f"batch {self.batch_index}: "
                f"+{self.num_inserted}/-{self.num_deleted} edges "
                f"(+{self.num_new_vertices} vertices) | "
                f"matches +{self.total_created}/-{self.total_destroyed} "
                f"over {len(self.query_deltas)} queries | "
                f"commit tx={self.commit_transactions} "
                f"maintain gld={self.maintenance.gld} "
                f"gst={self.maintenance.gst} "
                f"rebuilds={self.rebuilds} "
                f"compactions={self.compactions} | "
                f"plans invalidated={self.plans_invalidated} | "
                f"{self.wall_ms:.1f} ms")


@dataclass
class _Registered:
    query_id: int
    query: LabeledGraph
    #: ``S(u)`` per query vertex, encoded once at registration
    signatures: Tuple[np.ndarray, ...]
    initial: MatchResult
    matches: Set[Match] = field(default_factory=set)
    #: live matches by data vertex, kept in step with ``matches``; a
    #: vertex with no live match has no bucket
    by_vertex: Dict[int, Set[Match]] = field(default_factory=dict)

    def apply(self, created: Iterable[Match],
              destroyed: Iterable[Match]) -> None:
        """Remove ``destroyed`` from the live set, then add ``created``,
        keeping the vertex index in step."""
        for m in destroyed:
            self.matches.discard(m)
            for v in m:
                bucket = self.by_vertex[v]
                bucket.discard(m)
                if not bucket:
                    del self.by_vertex[v]
        for m in created:
            self.matches.add(m)
            for v in m:
                self.by_vertex.setdefault(v, set()).add(m)


@dataclass
class _BatchSeed:
    """Batch-constant inputs of per-query delta matching, computed once
    per batch and shared by every registered query (instead of each
    query re-deriving them): the committed snapshot and its signature
    table, the new vertices, the inserted edges grouped by edge label,
    the dead-pair set, and the signature rows of the touched
    (inserted-edge endpoint) vertices — the rows every query's seed
    check reads.  Read-only for the duration of the batch."""

    snapshot: LabeledGraph
    table: np.ndarray
    new_vertices: Tuple[int, ...]
    inserted_by_label: Dict[int, List[Tuple[int, int]]]
    dead_pairs: Set[Tuple[int, int]]
    seed_rows: Dict[int, np.ndarray]


def _query_delta(seed: _BatchSeed, reg: _Registered) -> QueryDelta:
    """One registered query's (created, destroyed) delta for one batch;
    the caller applies it to the live match set."""
    t0 = time.perf_counter()
    with get_tracer().span("stream.query_delta",
                           query_id=reg.query_id) as span:
        created = _delta_created(seed, reg.query, reg.signatures)
        destroyed = _delta_destroyed(seed, reg.query, reg.by_vertex)
        span.set_attribute("created", len(created))
        span.set_attribute("destroyed", len(destroyed))
    return QueryDelta(query_id=reg.query_id, created=created,
                      destroyed=destroyed,
                      host_ms=(time.perf_counter() - t0) * 1000.0)


def _delta_destroyed(seed: _BatchSeed, query: LabeledGraph,
                     by_vertex: Dict[int, Set[Match]]) -> Set[Match]:
    """Live matches that embed a net-deleted edge (exactly the ones
    this batch killed: vertex labels are immutable, so nothing else
    can invalidate an existing match).

    A match dies on the dead pair ``(a, b)`` only when some query edge
    maps onto ``{a, b}``, so only matches holding both endpoints are
    candidates: the smaller of the two vertex buckets is scanned.
    """
    destroyed: Set[Match] = set()
    for a, b in seed.dead_pairs:
        at_a = by_vertex.get(a)
        at_b = by_vertex.get(b)
        if not at_a or not at_b:
            continue
        for m in (at_a if len(at_a) <= len(at_b) else at_b):
            if m in destroyed or a not in m or b not in m:
                continue
            if query.has_edge(m.index(a), m.index(b)):
                destroyed.add(m)
    return destroyed


def _delta_created(seed: _BatchSeed, query: LabeledGraph,
                   qsigs: Tuple[np.ndarray, ...]) -> Set[Match]:
    """Matches that exist on the new snapshot but not the old one.

    Every such match embeds a net-inserted edge (or, for
    single-vertex queries, a new vertex), so partial embeddings
    seeded on the inserted edges and extended over the new snapshot
    enumerate them exactly.  Candidate pruning goes through the
    incrementally maintained signature table; the seed endpoints'
    rows come pre-loaded from the shared :class:`_BatchSeed`, and the
    query's signatures ``qsigs`` from its registration.
    """
    graph = seed.snapshot
    if query.num_edges == 0:
        # Connected queries with no edges are single vertices.
        lab = query.vertex_label(0)
        return {(v,) for v in seed.new_vertices
                if graph.vertex_label(v) == lab}
    if not seed.inserted_by_label:
        return set()

    table = seed.table
    seed_rows = seed.seed_rows

    def candidate(u: int, v: int) -> bool:
        if query.vertex_label(u) != graph.vertex_label(v):
            return False
        row = seed_rows.get(v)
        if row is None:
            row = table[v]
        return is_candidate(row, qsigs[u])

    qedges = list(query.edges())
    created: Set[Match] = set()
    for qa, qb, qlab in qedges:
        for gu, gv in seed.inserted_by_label.get(qlab, ()):
            for x, y in ((gu, gv), (gv, gu)):
                if candidate(qa, x) and candidate(qb, y):
                    _extend({qa: x, qb: y}, query, graph,
                            candidate, created)
    return created


def _extend(seed: Dict[int, int], query: LabeledGraph,
            graph: LabeledGraph, candidate, out: Set[Match]) -> None:
    """Backtracking completion of a seeded partial embedding.

    Order is BFS from the seeded vertices, so every next query
    vertex has an already-matched neighbor and candidates come from
    one ``N(v, l)`` list — the "touching changed vertices" frontier
    — never a full vertex scan.
    """
    nq = query.num_vertices
    order: List[int] = []
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for u in frontier:
            for w in query.neighbors(u):
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    # Connected query: BFS from any seed reaches everything.
    assign = dict(seed)
    used = set(seed.values())
    if len(used) < len(seed):
        return  # seed itself is non-injective

    def consistent(u: int, v: int) -> bool:
        for w, lab in zip(query.neighbors(u),
                          query.incident_labels(u)):
            w = int(w)
            if w in assign:
                gw = assign[w]
                if not graph.has_edge(gw, v) or \
                        graph.edge_label(gw, v) != int(lab):
                    return False
        return True

    # Check the seed pair's own consistency (other query edges
    # between the two seeded vertices, if any).
    items = list(seed.items())
    for u, v in items:
        if not consistent(u, v):
            return

    def rec(i: int) -> None:
        if i == len(order):
            out.add(tuple(assign[u] for u in range(nq)))
            return
        u = order[i]
        anchor = next(
            (int(w) for w in query.neighbors(u) if int(w) in assign),
            None)
        if anchor is None:
            return
        anchor_lab = None
        for w, lab in zip(query.neighbors(u),
                          query.incident_labels(u)):
            if int(w) == anchor:
                anchor_lab = int(lab)
                break
        for v in graph.neighbors_by_label(assign[anchor], anchor_lab):
            v = int(v)
            if v in used or not candidate(u, v):
                continue
            if not consistent(u, v):
                continue
            assign[u] = v
            used.add(v)
            rec(i + 1)
            del assign[u]
            used.discard(v)

    rec(0)
    # ``rec`` reaches itself through its closure: unbind it so the
    # snapshot it captured is freed now, not at the next cyclic GC.
    del rec


class StreamEngine:
    """Serve continuous subgraph queries over a dynamic graph."""

    name = "GSI-stream"

    def __init__(self, graph: LabeledGraph,
                 config: Optional[GSIConfig] = None,
                 cache_capacity: int = 256,
                 compact_dead_ratio: float = DEFAULT_COMPACT_DEAD_RATIO
                 ) -> None:
        self.config = config if config is not None else GSIConfig()
        if not self.config.use_pcsr:
            raise GraphError(
                "StreamEngine maintains PCSR in place; it requires a "
                "config with use_pcsr=True")
        self.index = DynamicIndex(
            graph,
            signature_bits=self.config.signature_bits,
            column_first=self.config.column_first_signatures,
            gpn=self.config.gpn,
            compact_dead_ratio=compact_dead_ratio)
        # Commits meter into the same stream so one snapshot covers the
        # whole update path; the labels keep the costs attributable.
        self.dynamic = DynamicGraph(graph, meter=self.index.meter)
        self.plan_cache = PlanCache(capacity=cache_capacity)
        # The engine joins straight out of the maintained artifacts.
        self.engine = GSIEngine(
            graph, self.config,
            signature_table=self.index.signature_table,
            store=self.index.storage)
        self._registered: Dict[int, _Registered] = {}
        # Monotonic, never reused: a stale id held after unregister can
        # only ever raise, never silently read another query's matches.
        self._next_query_id = 0
        self.batches_applied = 0

    # ------------------------------------------------------------------
    # Query management
    # ------------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The current committed snapshot."""
        return self.dynamic.base

    def match(self, query: LabeledGraph) -> MatchResult:
        """Ad-hoc query against the current snapshot (plan-cached)."""
        prepared = self.engine.prepare(query, plan_cache=self.plan_cache)
        return self.engine.execute(prepared)

    def register(self, query: LabeledGraph) -> int:
        """Register a continuous query; runs it once in full to seed the
        live match set.  Returns the query id used in batch reports.

        Raises :class:`~repro.errors.BudgetExceeded`, allocating no id
        and registering nothing, when the seeding match exhausts the
        configured budget: its empty result is not the live set.
        """
        result = self.match(query)
        if result.timed_out:
            raise BudgetExceeded(
                "seeding match of a continuous query exceeded the "
                "configured budget (budget_ms / max_intermediate_rows); "
                "nothing was registered")
        bits = self.config.signature_bits
        qid = self._next_query_id
        self._next_query_id += 1
        reg = _Registered(
            query_id=qid, query=query,
            signatures=tuple(encode_vertex(query, u, bits)
                             for u in range(query.num_vertices)),
            initial=result)
        reg.apply(result.matches, ())
        self._registered[qid] = reg
        return qid

    def _registered_or_raise(self, query_id: int) -> _Registered:
        reg = self._registered.get(query_id)
        if reg is None:
            raise KeyError(
                f"query id {query_id} is not registered (ids are "
                f"monotonic and never reused after unregister)")
        return reg

    def unregister(self, query_id: int) -> None:
        """Stop tracking a continuous query.

        The id is retired permanently — ids are monotonic and never
        reused, so a stale id held across batches raises ``KeyError``
        from :meth:`matches` / :meth:`initial_result` instead of
        silently serving some later query's match set.
        """
        self._registered_or_raise(query_id)
        del self._registered[query_id]

    def matches(self, query_id: int) -> Set[Match]:
        """Current live match set of a registered query.

        Raises ``KeyError`` for unregistered (or never-issued) ids.
        """
        return set(self._registered_or_raise(query_id).matches)

    def initial_result(self, query_id: int) -> MatchResult:
        return self._registered_or_raise(query_id).initial

    @property
    def num_registered(self) -> int:
        return len(self._registered)

    # ------------------------------------------------------------------
    # The update path
    # ------------------------------------------------------------------

    def apply_batch(self, delta: GraphDelta) -> StreamBatchReport:
        """Apply one update batch end to end (see module docstring)."""
        with get_tracer().span("stream.apply_batch",
                               batch_index=self.batches_applied) as span:
            report = self._apply_batch_inner(delta)
            span.set_attribute("created", report.total_created)
            span.set_attribute("destroyed", report.total_destroyed)
            if span.trace_id:
                # the simulated cost charged inside this span
                span.set_attribute("commit_tx", report.commit_transactions)
                span.set_attribute("maintain_gld", report.maintenance.gld)
                span.set_attribute("maintain_gst", report.maintenance.gst)
        self._record_stream_metrics(report)
        return report

    @staticmethod
    def _record_stream_metrics(report: StreamBatchReport) -> None:
        """Roll one batch's maintenance events into the registry."""
        registry = get_registry()
        maintenance = registry.counter(
            "gsi_pcsr_maintenance_total",
            "PCSR maintenance events applied by the stream index.")
        if report.compactions:
            maintenance.inc(float(report.compactions), kind="compact")
        if report.rebuilds:
            maintenance.inc(float(report.rebuilds), kind="rebuild")
        edges = registry.counter(
            "gsi_stream_edges_total",
            "Edges applied by stream update batches.")
        if report.num_inserted:
            edges.inc(float(report.num_inserted), kind="insert")
        if report.num_deleted:
            edges.inc(float(report.num_deleted), kind="delete")

    def _apply_batch_inner(self, delta: GraphDelta) -> StreamBatchReport:
        t0 = time.perf_counter()
        old_snapshot = self.dynamic.base
        try:
            self.dynamic.apply(delta)
        except Exception:
            # A rejected batch changes nothing: drop the ops applied
            # before the one that raised.
            self.dynamic.discard_pending()
            raise
        commit = self.dynamic.commit()

        meter_before = self.index.meter.snapshot()
        rebuilds_before = self.index.rebuilds
        compactions_before = self.index.compactions
        self.index.apply_commit(commit)
        maintenance = self.index.meter.snapshot().diff(meter_before)

        # Plans are keyed by query shape, but scored against edge-label
        # frequencies; drop the ones whose statistics moved.
        shifted = tuple(sorted(
            lab for lab in set(old_snapshot.distinct_edge_labels())
            | set(commit.snapshot.distinct_edge_labels())
            if old_snapshot.edge_label_frequency(lab)
            != commit.snapshot.edge_label_frequency(lab)))
        invalidated = self.plan_cache.invalidate_labels(shifted)
        # Candidate-shape memos read maintained signature-table rows;
        # any row change can flip any candidate set, so drop them all
        # whenever the batch touched the graph.
        if (commit.inserted_edges or commit.deleted_edges
                or commit.new_vertices):
            self.plan_cache.shapes.clear()

        # The engine now serves the new snapshot from the same
        # (incrementally updated) artifacts.
        self.engine.graph = commit.snapshot

        report = StreamBatchReport(
            batch_index=self.batches_applied,
            num_inserted=len(commit.inserted_edges),
            num_deleted=len(commit.deleted_edges),
            num_new_vertices=len(commit.new_vertices),
            maintenance=maintenance,
            rebuilds=self.index.rebuilds - rebuilds_before,
            compactions=self.index.compactions - compactions_before,
            commit_transactions=commit.commit_transactions,
            plans_invalidated=invalidated,
            labels_shifted=shifted,
            pcsr=self.index.storage.stats())
        seed = self._build_batch_seed(commit)
        for qid, reg in self._registered.items():
            outcome = _query_delta(seed, reg)
            reg.apply(outcome.created, outcome.destroyed)
            outcome.num_matches = len(reg.matches)
            report.query_deltas[qid] = outcome
        report.wall_ms = (time.perf_counter() - t0) * 1000.0
        self.batches_applied += 1
        return report

    def close(self) -> None:
        """No-op, kept for existing callers: the engine holds no worker
        pool and no shared memory, so there is nothing to release."""

    # ------------------------------------------------------------------
    # Delta matching
    # ------------------------------------------------------------------

    def _build_batch_seed(self, commit: CommitResult) -> _BatchSeed:
        """Gather the shared delta-matching inputs for one batch.

        Runs once per batch, not once per registered query: the
        label-grouped inserted edges, the dead-pair set and the touched
        (seed endpoint) vertices' signature rows are all
        query-independent — reading those rows is metered here (label
        ``delta_seed``) exactly once, so seeding transactions scale
        with the change set, not with the number of registered queries.
        """
        by_label: Dict[int, List[Tuple[int, int]]] = {}
        endpoints: Set[int] = set()
        for u, v, lab in commit.inserted_edges:
            by_label.setdefault(lab, []).append((u, v))
            endpoints.add(u)
            endpoints.add(v)
        dead_pairs = {(u, v) for u, v, _ in commit.deleted_edges}
        table = self.index.signature_table.table
        seed_rows = {v: table[v] for v in endpoints}
        if endpoints:
            per_row = self.index.signatures.row_transactions()
            self.index.meter.add_gld(per_row * len(endpoints),
                                     label=LABEL_DELTA_SEED)
        return _BatchSeed(snapshot=commit.snapshot, table=table,
                          new_vertices=tuple(commit.new_vertices),
                          inserted_by_label=by_label,
                          dead_pairs=dead_pairs, seed_rows=seed_rows)

