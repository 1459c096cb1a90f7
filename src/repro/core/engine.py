"""The GSI engine: filtering phase + joining phase (Figure 7).

Construct once per data graph (signature table and storage structure are
built offline, as in the paper), then call :meth:`GSIEngine.match` per
query.  Every call simulates a fresh device, so results carry independent
time and transaction measurements.

``match`` is split into two explicit steps so services can interpose
between them:

* :meth:`GSIEngine.prepare` runs the filtering phase and join-order
  planning, returning a :class:`PreparedQuery`.  When a
  :class:`~repro.service.plan_cache.PlanCache` is supplied, planning is
  skipped for queries isomorphic to one already planned.
* :meth:`GSIEngine.execute` runs the joining phase of a prepared query
  and produces the final :class:`~repro.core.result.MatchResult`.

``match(query)`` is exactly ``execute(prepare(query))``; the CLI, the
benchmark runner, the pattern executor, and the batch service all drive
this same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.arraytypes import Array
from repro.core.config import GSIConfig
from repro.core.filtering import filter_candidates
from repro.core.join import JoinContext, run_join_phase
from repro.core.plan import JoinPlan, plan_join_order
from repro.core.result import MatchResult, PhaseBreakdown
from repro.core.signature_table import SignatureTable
from repro.errors import BudgetExceeded, GraphError
from repro.gpusim.constants import CLOCK_GHZ
from repro.gpusim.device import Device
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.trace import Span, TraceContext, get_tracer
from repro.storage.base import NeighborStore
from repro.storage.factory import build_storage

if TYPE_CHECKING:  # avoid a runtime core <-> service import cycle
    from repro.service.plan_cache import PlanCache


@dataclass
class PreparedQuery:
    """Everything the joining phase needs, produced by :meth:`prepare`.

    Attributes
    ----------
    query:
        The query graph this plan belongs to.
    candidates:
        ``C(u)`` per query vertex from the filtering phase.
    plan:
        The join order; ``None`` when filtering emptied a candidate set
        (the query provably has no matches) or the budget ran out.
    device:
        The simulated device that ran filtering; :meth:`execute`
        continues on the same device so ``elapsed_ms`` accumulates
        across both phases, exactly as in a single ``match`` call.
    plan_cached:
        True when ``plan`` came from a plan cache instead of
        :func:`~repro.core.plan.plan_join_order`.
    timed_out:
        True when the simulated budget was exhausted during filtering.
    trace:
        The coordinator's :class:`~repro.obs.trace.TraceContext` when
        tracing is active; it pickles with the prepared query into
        process workers so spans recorded there re-parent under the
        coordinator's trace tree.  ``None`` when tracing is disabled.
    """

    query: LabeledGraph
    device: Device
    candidates: Dict[int, Array] = field(default_factory=dict)
    candidate_sizes: Dict[int, int] = field(default_factory=dict)
    plan: Optional[JoinPlan] = None
    filter_ms: float = 0.0
    plan_cached: bool = False
    timed_out: bool = False
    trace: Optional[TraceContext] = None


class GSIEngine:
    """GPU-friendly subgraph isomorphism over one data graph.

    Parameters
    ----------
    graph:
        The data graph ``G``.
    config:
        Feature toggles and tuning parameters; defaults to plain GSI
        (PCSR + Prealloc-Combine + GPU set ops, no Section VI extras).
        Use :meth:`GSIConfig.gsi_opt` for the fully optimized variant.
    """

    name = "GSI"

    def __init__(self, graph: LabeledGraph,
                 config: Optional[GSIConfig] = None, *,
                 signature_table: Optional[SignatureTable] = None,
                 store: Optional[NeighborStore] = None) -> None:
        self.graph = graph
        self.config = config if config is not None else GSIConfig()
        # Offline precomputation (not part of query response time).
        # Callers maintaining artifacts externally (persistence, the
        # dynamic subsystem) inject them instead of rebuilding.
        if signature_table is not None:
            self.signature_table = signature_table
        else:
            self.signature_table = SignatureTable.build(
                graph, self.config.signature_bits,
                column_first=self.config.column_first_signatures)
        if store is not None:
            self.store = store
        else:
            storage_kwargs = (
                {"gpn": self.config.gpn} if self.config.use_pcsr else {})
            self.store = build_storage(self.config.storage_kind, graph,
                                       **storage_kwargs)

    # ------------------------------------------------------------------

    def _make_device(self) -> Device:
        budget_cycles = None
        if self.config.budget_ms is not None:
            budget_cycles = self.config.budget_ms * CLOCK_GHZ * 1e6
        return Device(budget_cycles=budget_cycles)

    def filter_only(self, query: LabeledGraph) -> MatchResult:
        """Run just the filtering phase (Table IV's measurement)."""
        device = self._make_device()
        candidates = filter_candidates(
            query, self.signature_table, device,
            self.config.signature_bits)
        result = MatchResult(engine=self.name)
        result.candidate_sizes = {u: len(c) for u, c in candidates.items()}
        result.elapsed_ms = device.elapsed_ms
        result.phases = PhaseBreakdown(filter_ms=device.elapsed_ms)
        result.counters = device.meter.snapshot()
        return result

    # ------------------------------------------------------------------
    # The two-step query path: prepare (filter + plan), then execute.
    # ------------------------------------------------------------------

    def prepare(self, query: LabeledGraph,
                plan_cache: Optional["PlanCache"] = None) -> PreparedQuery:
        """Filtering phase plus join-order planning.

        ``plan_cache`` (a :class:`~repro.service.plan_cache.PlanCache`)
        lets repeated or isomorphic queries skip
        :func:`~repro.core.plan.plan_join_order`.  Resubmitting the
        *same* query reuses the identical plan, so its simulated
        measurement is reproduced exactly.  An isomorphic query with
        different vertex numbering replays the cached plan translated
        through the isomorphism — a valid join order that fresh
        planning might not pick when score ties break differently, so
        its simulated time can deviate slightly; the match set never
        does.
        """
        if query.num_vertices == 0:
            raise GraphError("empty query")
        prepared = PreparedQuery(query=query, device=self._make_device())
        with get_tracer().span("gsi.prepare",
                               query_vertices=query.num_vertices) as span:
            prepared.trace = span.context() if span.trace_id else None
            self._filter_and_plan(prepared, plan_cache, span)
            if prepared.trace is not None:
                # the filter's simulated cost, charged inside this span
                span.set_attribute("gld", prepared.device.meter.gld)
                span.set_attribute("sim_ms", prepared.device.elapsed_ms)
        return prepared

    def _filter_and_plan(self, prepared: PreparedQuery,
                         plan_cache: Optional["PlanCache"],
                         span: Span) -> None:
        query = prepared.query
        tracer = get_tracer()
        try:
            with tracer.span("gsi.filter"):
                prepared.candidates = filter_candidates(
                    query, self.signature_table, prepared.device,
                    self.config.signature_bits)
        except BudgetExceeded:
            prepared.timed_out = True
            span.set_attribute("timed_out", True)
            return
        prepared.candidate_sizes = {
            u: len(c) for u, c in prepared.candidates.items()}
        prepared.filter_ms = prepared.device.elapsed_ms

        if any(len(c) == 0 for c in prepared.candidates.values()):
            # provably no matches; nothing to plan
            span.set_attribute("empty_candidates", True)
            return

        fingerprint = None
        if plan_cache is not None:
            cached, fingerprint = plan_cache.lookup(query)
            if cached is not None:
                prepared.plan = cached
                prepared.plan_cached = True
                span.set_attribute("plan_cached", True)
                if fingerprint is not None:
                    span.set_attribute("fingerprint", str(fingerprint)[:16])
                return
        with tracer.span("gsi.plan"):
            prepared.plan = plan_join_order(
                query, self.graph, prepared.candidate_sizes)
        if plan_cache is not None and fingerprint is not None:
            plan_cache.store(fingerprint, prepared.plan,
                             edge_labels=query.distinct_edge_labels())
            span.set_attribute("fingerprint", str(fingerprint)[:16])

    def execute(self, prepared: PreparedQuery) -> MatchResult:
        """Joining phase: run the prepared plan to a final result."""
        with get_tracer().span("gsi.execute", parent=prepared.trace,
                               lane=self.config.join_kernel) as span:
            meter = prepared.device.meter
            gld, gst = meter.gld, meter.gst
            start_ms = prepared.device.elapsed_ms
            result = self._execute_inner(prepared)
            span.set_attribute("matches", result.num_matches)
            if result.timed_out:
                span.set_attribute("timed_out", True)
            if span.trace_id:
                # the join's simulated cost, charged inside this span
                span.set_attribute("gld", result.counters.gld - gld)
                span.set_attribute("gst", result.counters.gst - gst)
                span.set_attribute("sim_ms", result.elapsed_ms - start_ms)
        return result

    def _execute_inner(self, prepared: PreparedQuery) -> MatchResult:
        device = prepared.device
        plan = prepared.plan
        result = MatchResult(engine=self.name, timed_out=prepared.timed_out)
        # A filtering abort returns before ``filter_ms`` is recorded; all
        # of its elapsed time is filtering.
        filter_ms = (device.elapsed_ms if prepared.timed_out
                     else prepared.filter_ms)
        if not prepared.timed_out:
            result.candidate_sizes = dict(prepared.candidate_sizes)
        # Without a timeout, ``plan is None`` means some candidate set is
        # empty: filtering already proved the query unmatchable.
        if plan is not None:
            result.join_order = plan.order
            ctx = JoinContext(
                graph=self.graph, store=self.store, device=device,
                config=self.config)
            try:
                rows = run_join_phase(ctx, plan, prepared.candidates)
                # Join order -> query-vertex order: one column permutation.
                result.rows = rows[:, np.argsort(np.asarray(plan.order))]
            except BudgetExceeded:
                result.timed_out = True
        result.elapsed_ms = device.elapsed_ms
        result.phases = PhaseBreakdown(
            filter_ms=filter_ms, join_ms=device.elapsed_ms - filter_ms)
        result.counters = device.meter.snapshot()
        return result

    def match(self, query: LabeledGraph) -> MatchResult:
        """Find all subgraph-isomorphism embeddings of ``query``.

        Returns a :class:`~repro.core.result.MatchResult`; if the
        configured simulated budget is exhausted, ``timed_out`` is set
        and partial state is discarded.
        """
        return self.execute(self.prepare(query))
