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
on every committed snapshot, and ``tests/fuzz/test_fuzz_delta.py``
checks every batch's created and destroyed sets against a per-seed
reference.

Delta matching is host-side work and runs in process.  ``register``
encodes a query's signatures and compiles its :class:`_DeltaPlan`: for
each query edge, the steps that extend a seed placed on it.  Each batch
then makes one array pass over every registered query's seeds
(:func:`_seed_pass`: the stacked query edges joined by edge label with
the inserted edges in both orientations, labels and signature rows
checked as arrays) and gathers the result with the other
batch-constant inputs in a :class:`_BatchSeed`.  One loop over the
registered queries, in registration order, extends each query's
surviving seeds along its plan and scans its destroyed matches;
:attr:`QueryDelta.host_ms` times that per-query work, not the batch's
seed pass.

Registration seeds the live set with one full match; a seeding match
that exhausts ``GSIConfig.budget_ms`` or ``max_intermediate_rows``
raises :class:`~repro.errors.BudgetExceeded` and registers nothing,
because every later delta would build on its empty, wrong base.

A batch is all or nothing.  One that fails before its commit returns
(an invalid op, or any exception inside the commit) leaves the engine
as it was, with the overlay discarded.  One that fails after it (PCSR
pass, rebuild, compaction, signature rows, health stats, seed pass or
a query's delta), ``MemoryError`` and ``KeyboardInterrupt`` included,
marks the engine failed: every later :meth:`StreamEngine.apply_batch`,
``match``, ``register``, ``unregister``, ``matches`` and
``initial_result`` raises :class:`~repro.errors.StreamStateError`
naming that batch, instead of serving a mix of old and new state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.core.result import MatchResult
from repro.core.signature import encode_vertex, pack_tail
from repro.dynamic.delta import GraphDelta
from repro.dynamic.graph import CommitResult, DynamicGraph
from repro.dynamic.index import DEFAULT_COMPACT_DEAD_RATIO, DynamicIndex
from repro.errors import BudgetExceeded, GraphError, StreamStateError
from repro.gpusim.constants import LABEL_DELTA_SEED
from repro.gpusim.meter import MeterSnapshot
from repro.graph.labeled_graph import LabeledGraph, sorted_unique
from repro.obs.metrics import get_registry
from repro.obs.trace import Span, get_tracer
from repro.service.plan_cache import PlanCache

Match = Tuple[int, ...]


@dataclass
class QueryDelta:
    """Per-continuous-query outcome of one update batch."""

    query_id: int
    created: Set[Match] = field(default_factory=set)
    destroyed: Set[Match] = field(default_factory=set)
    num_matches: int = 0  # live matches after the batch
    #: wall time of this query's seed extension and destroyed scan (the
    #: batch's shared seed pass is not included)
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


#: one extension step ``(u, anchor, label, back)`` (see :class:`_DeltaPlan`)
_Step = Tuple[int, int, int, Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class _DeltaPlan:
    """How delta matching seeds and extends one query, compiled once at
    :meth:`StreamEngine.register`.

    ``edges`` is the ``(m, 3)`` query-edge array ``(qa, qb, label)``;
    ``labels`` holds the query's vertex labels and ``packed`` its
    signatures as :func:`~repro.core.signature.pack_tail` ints.
    ``extensions[e]`` is ``(qa, qb, steps)`` for query edge ``e``: one
    ``(u, anchor, label, back)`` step per other query vertex, in BFS
    order from ``(qa, qb)``.  ``anchor`` is ``u``'s first
    already-placed neighbor and ``label`` their edge's label, so ``u``'s
    candidates are ``N(assign[anchor], label)``; ``back`` holds the
    ``(w, label)`` edges to ``u``'s other already-placed neighbors.
    """

    edges: np.ndarray
    labels: Tuple[int, ...]
    packed: Tuple[int, ...]
    extensions: Tuple[Tuple[int, int, Tuple[_Step, ...]], ...]


def _compile_plan(query: LabeledGraph,
                  signatures: np.ndarray) -> _DeltaPlan:
    edges = np.array(list(query.edges()), dtype=np.int64).reshape(-1, 3)
    adjacency = [list(zip(query.neighbors(u).tolist(),
                          query.incident_labels(u).tolist()))
                 for u in range(query.num_vertices)]
    return _DeltaPlan(
        edges=edges,
        labels=tuple(query.vertex_labels.tolist()),
        packed=tuple(pack_tail(row) for row in signatures),
        extensions=tuple((qa, qb, _extension_steps(adjacency, qa, qb))
                         for qa, qb, _ in edges.tolist()))


def _extension_steps(adjacency: List[List[Tuple[int, int]]], qa: int,
                     qb: int) -> Tuple[_Step, ...]:
    """The steps that complete a seed placed on query edge ``(qa, qb)``.

    BFS order from the pair: every later vertex has an already-placed
    neighbor to draw candidates from (registered queries are
    connected).  The seed pair needs no check of its own: the seeding
    edge is the only query edge between ``qa`` and ``qb``.
    """
    order: List[int] = []
    seen = {qa, qb}
    frontier = [qa, qb]
    while frontier:
        nxt = []
        for u in frontier:
            for w, _ in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        order += nxt
        frontier = nxt
    placed = {qa, qb}
    steps = []
    for u in order:
        (anchor, label), *back = [(w, lab) for w, lab in adjacency[u]
                                  if w in placed]
        steps.append((u, anchor, label, tuple(back)))
        placed.add(u)
    return tuple(steps)


@dataclass
class _Registered:
    query_id: int
    query: LabeledGraph
    #: ``S(u)`` per query vertex, ``(n, words)``, encoded at registration
    signatures: np.ndarray
    plan: _DeltaPlan
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


@dataclass(frozen=True)
class _SeedRows:
    """Every registered query's edges stacked as seed rows: the left
    side of each batch's seed join, restacked only when
    :meth:`StreamEngine.register` or :meth:`StreamEngine.unregister`
    changes the set.

    ``rows`` holds ``(query, edge, qa, qb, label)``, where ``query``
    indexes ``qids`` (registration order); ``ends`` holds ``qa``'s and
    ``qb``'s vertex labels and ``sigs`` their signatures, ``(rows, 2,
    words)``.
    """

    qids: Tuple[int, ...]
    rows: np.ndarray
    ends: np.ndarray
    sigs: np.ndarray


def _stack_seed_rows(registered: Dict[int, _Registered],
                     words: int) -> _SeedRows:
    rows = [np.empty((0, 5), dtype=np.int64)]
    ends = [np.empty((0, 2), dtype=np.int64)]
    sigs = [np.empty((0, 2, words), dtype=np.uint32)]
    for index, reg in enumerate(registered.values()):
        edges = reg.plan.edges
        m = len(edges)
        rows.append(np.column_stack((
            np.full(m, index, dtype=np.int64),
            np.arange(m, dtype=np.int64), edges)))
        ends.append(reg.query.vertex_labels[edges[:, :2]])
        sigs.append(reg.signatures[edges[:, :2]])
    return _SeedRows(qids=tuple(registered), rows=np.concatenate(rows),
                     ends=np.concatenate(ends), sigs=np.concatenate(sigs))


def _seed_pass(stack: _SeedRows, inserted: np.ndarray,
               vertex_labels: np.ndarray,
               table: np.ndarray) -> Dict[int, List[Tuple[int, int, int]]]:
    """Every registered query's seeds for one batch, in one array pass.

    Joins the stacked rows by edge label with the inserted ``(u, v,
    label)`` edges in both orientations ``(x, y)``.  A pair survives
    when ``x`` and ``y`` carry ``qa``'s and ``qb``'s vertex labels and
    their maintained table rows contain ``qa``'s and ``qb``'s
    signatures on every word.  Returns each query id's surviving
    ``(edge, x, y)`` seeds; a query with none is absent.
    """
    oriented = np.concatenate((inserted, inserted[:, [1, 0, 2]]))
    rows = stack.rows
    row, pick = np.nonzero(rows[:, 4, None] == oriented[:, 2])
    x, y = oriented[pick, 0], oriented[pick, 1]
    ok = ((vertex_labels[x] == stack.ends[row, 0])
          & (vertex_labels[y] == stack.ends[row, 1]))
    row, x, y = row[ok], x[ok], y[ok]
    sig_a, sig_b = stack.sigs[row, 0], stack.sigs[row, 1]
    ok = (((table[x] & sig_a) == sig_a).all(axis=1)
          & ((table[y] & sig_b) == sig_b).all(axis=1))
    seeds: Dict[int, List[Tuple[int, int, int]]] = {}
    for (query, edge), a, b in zip(rows[row[ok], :2].tolist(),
                                   x[ok].tolist(), y[ok].tolist()):
        seeds.setdefault(stack.qids[query], []).append((edge, a, b))
    return seeds


class _PackedRows(Dict[int, int]):
    """Signature rows as :func:`~repro.core.signature.pack_tail` ints,
    each packed on its first read.  Lives for one batch:
    :class:`~repro.dynamic.index.DynamicSignatureTable` rewrites rows
    in place."""

    def __init__(self, table: np.ndarray) -> None:
        super().__init__()
        self.table = table

    def __missing__(self, v: int) -> int:
        packed = self[v] = pack_tail(self.table[v])
        return packed


@dataclass
class _BatchSeed:
    """Batch-constant inputs of per-query delta matching, computed once
    per batch and shared by every registered query: the committed
    snapshot, its vertex labels as a list, the new vertices, the
    dead-pair set, every query's surviving seeds from the one
    :func:`_seed_pass`, and the packed table rows the extensions read.
    Read-only for the duration of the batch (apart from ``packed``
    filling in)."""

    snapshot: LabeledGraph
    vertex_labels: List[int]
    new_vertices: Tuple[int, ...]
    dead_pairs: Set[Tuple[int, int]]
    seeds: Dict[int, List[Tuple[int, int, int]]]
    packed: _PackedRows

    @property
    def num_seeds(self) -> int:
        return sum(len(seeds) for seeds in self.seeds.values())


def _query_delta(seed: _BatchSeed, reg: _Registered) -> QueryDelta:
    """One registered query's (created, destroyed) delta for one batch;
    the caller applies it to the live match set."""
    t0 = time.perf_counter()
    with get_tracer().span("stream.query_delta",
                           query_id=reg.query_id) as span:
        created = _delta_created(seed, reg)
        destroyed = _delta_destroyed(seed, reg.query, reg.by_vertex)
        span.set_attribute("created", len(created))
        span.set_attribute("destroyed", len(destroyed))
        if span.trace_id:
            span.set_attribute(
                "seeds", len(seed.seeds.get(reg.query_id, ())))
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


def _delta_created(seed: _BatchSeed, reg: _Registered) -> Set[Match]:
    """Matches that exist on the new snapshot but not the old one.

    Every such match embeds a net-inserted edge (or, for
    single-vertex queries, a new vertex), so the query's seeds from
    the batch's :func:`_seed_pass`, each extended along its edge's
    plan over the new snapshot, enumerate them exactly.
    """
    plan = reg.plan
    if not plan.extensions:
        # Connected queries with no edges are single vertices.
        labels = seed.vertex_labels
        return {(v,) for v in seed.new_vertices
                if labels[v] == plan.labels[0]}
    created: Set[Match] = set()
    assign = [0] * len(plan.labels)
    for e, x, y in seed.seeds.get(reg.query_id, ()):
        qa, qb, steps = plan.extensions[e]
        assign[qa], assign[qb] = x, y
        _extend(seed, plan, steps, 0, assign, {x, y}, created)
    return created


def _extend(seed: _BatchSeed, plan: _DeltaPlan, steps: Tuple[_Step, ...],
            depth: int, assign: List[int], used: Set[int],
            out: Set[Match]) -> None:
    """Place ``steps[depth:]`` on top of ``assign`` and add every
    completed embedding to ``out``.

    A candidate for ``u`` comes from ``N(assign[anchor], label)`` and
    must be unused, carry ``u``'s label, hold ``u``'s signature (one
    AND of packed ints) and close every back edge with its label (one
    edge lookup each).
    """
    if depth == len(steps):
        out.add(tuple(assign))
        return
    u, anchor, label, back = steps[depth]
    want_label, want_sig = plan.labels[u], plan.packed[u]
    graph, labels, packed = seed.snapshot, seed.vertex_labels, seed.packed
    for v in graph.neighbors_by_label(assign[anchor], label).tolist():
        if (v in used or labels[v] != want_label
                or packed[v] & want_sig != want_sig):
            continue
        for w, lab in back:
            if graph.get_edge_label(assign[w], v) != lab:
                break
        else:
            assign[u] = v
            used.add(v)
            _extend(seed, plan, steps, depth + 1, assign, used, out)
            used.discard(v)


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
        #: the registered queries' stacked seed rows; ``None`` after
        #: ``register``/``unregister`` until the next batch restacks
        self._seed_rows: Optional[_SeedRows] = None
        #: vertex labels of the committed snapshot as a list (labels
        #: never change; each batch appends its new vertices')
        self._vertex_labels: List[int] = graph.vertex_labels.tolist()
        # Monotonic, never reused: a stale id held after unregister can
        # only ever raise, never silently read another query's matches.
        self._next_query_id = 0
        self.batches_applied = 0
        #: why every call now raises, once a batch failed after its
        #: commit; ``None`` while the engine is usable
        self._failure: Optional[str] = None

    # ------------------------------------------------------------------
    # Query management
    # ------------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The current committed snapshot."""
        return self.dynamic.base

    def _check_usable(self) -> None:
        """Raise :class:`StreamStateError` once a batch has failed after
        its commit."""
        if self._failure is not None:
            raise StreamStateError(self._failure)

    def match(self, query: LabeledGraph) -> MatchResult:
        """Ad-hoc query against the current snapshot (plan-cached)."""
        self._check_usable()
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
        signatures = np.stack([encode_vertex(query, u, bits)
                               for u in range(query.num_vertices)])
        reg = _Registered(
            query_id=qid, query=query, signatures=signatures,
            plan=_compile_plan(query, signatures), initial=result)
        reg.apply(result.matches, ())
        self._registered[qid] = reg
        self._seed_rows = None
        return qid

    def _registered_or_raise(self, query_id: int) -> _Registered:
        self._check_usable()
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
        self._seed_rows = None

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
        self._check_usable()
        batch = self.batches_applied
        with get_tracer().span("stream.apply_batch",
                               batch_index=batch) as span:
            t0 = time.perf_counter()
            try:
                self.dynamic.apply(delta)
            except BaseException:
                # A rejected batch changes nothing: drop the ops applied
                # before the one that raised.
                self.dynamic.discard_pending()
                raise
            # A failed commit discards the overlay itself.
            commit = self.dynamic.commit()
            try:
                report = self._maintain(commit, span, t0)
                span.set_attribute("created", report.total_created)
                span.set_attribute("destroyed", report.total_destroyed)
                if span.trace_id:
                    # the simulated cost charged inside this span
                    span.set_attribute("commit_tx",
                                       report.commit_transactions)
                    span.set_attribute("maintain_gld",
                                       report.maintenance.gld)
                    span.set_attribute("maintain_gst",
                                       report.maintenance.gst)
                self._record_stream_metrics(report)
            except BaseException as exc:
                self._failure = (
                    f"stream batch {batch} failed after its commit "
                    f"({exc!r}); the engine's artifacts may be only "
                    f"partly maintained, so it serves nothing more: "
                    f"build a new StreamEngine")
                raise
        self.batches_applied += 1
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

    def _maintain(self, commit: CommitResult, span: Span,
                  t0: float) -> StreamBatchReport:
        """Everything after the commit: artifacts, plan invalidation and
        every registered query's delta (``t0`` started the batch)."""
        # The engine still serves the snapshot before this batch.
        old_snapshot = self.engine.graph
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

        # The engine now serves the new snapshot from the same
        # (incrementally updated) artifacts.
        self.engine.graph = commit.snapshot

        report = StreamBatchReport(
            batch_index=self.batches_applied,
            num_inserted=len(commit.inserted),
            num_deleted=len(commit.deleted),
            num_new_vertices=len(commit.new_vertices),
            maintenance=maintenance,
            rebuilds=self.index.rebuilds - rebuilds_before,
            compactions=self.index.compactions - compactions_before,
            commit_transactions=commit.commit_transactions,
            plans_invalidated=invalidated,
            labels_shifted=shifted,
            pcsr=self.index.storage.stats())
        seed = self._build_batch_seed(commit)
        if span.trace_id:
            span.set_attribute("seeds", seed.num_seeds)
        for qid, reg in self._registered.items():
            outcome = _query_delta(seed, reg)
            reg.apply(outcome.created, outcome.destroyed)
            outcome.num_matches = len(reg.matches)
            report.query_deltas[qid] = outcome
        report.wall_ms = (time.perf_counter() - t0) * 1000.0
        return report

    def close(self) -> None:
        """No-op, kept for existing callers: the engine holds no worker
        pool and no shared memory, so there is nothing to release."""

    # ------------------------------------------------------------------
    # Delta matching
    # ------------------------------------------------------------------

    def _build_batch_seed(self, commit: CommitResult) -> _BatchSeed:
        """Gather the shared delta-matching inputs for one batch.

        Runs once per batch, not once per registered query: one
        :func:`_seed_pass` checks every registered query's seeds on the
        inserted edges at once, and reading the inserted endpoints'
        signature rows is metered here (label ``delta_seed``, one row
        per distinct endpoint) exactly once, so seeding transactions
        scale with the change set, not with the number of registered
        queries.
        """
        inserted = commit.inserted
        endpoints = len(sorted_unique(inserted[:, :2].ravel()))
        if endpoints:
            per_row = self.index.signatures.row_transactions()
            self.index.meter.add_gld(per_row * endpoints,
                                     label=LABEL_DELTA_SEED)
        snapshot = commit.snapshot
        labels = self._vertex_labels
        labels += snapshot.vertex_labels[len(labels):].tolist()
        table = self.index.signature_table.table
        if self._seed_rows is None:
            self._seed_rows = _stack_seed_rows(self._registered,
                                               table.shape[1])
        seeds = (_seed_pass(self._seed_rows, inserted,
                            snapshot.vertex_labels, table)
                 if len(inserted) else {})
        dead = commit.deleted
        return _BatchSeed(snapshot=snapshot, vertex_labels=labels,
                          new_vertices=tuple(commit.new_vertices),
                          dead_pairs=set(zip(dead[:, 0].tolist(),
                                             dead[:, 1].tolist())),
                          seeds=seeds, packed=_PackedRows(table))
