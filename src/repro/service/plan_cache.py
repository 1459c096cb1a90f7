"""An LRU cache of join plans keyed by canonical query fingerprints.

Join-order planning (Algorithm 2) is host-side work repeated for every
query even though isomorphic queries always admit the same plan up to
vertex renaming.  The cache stores each plan *in canonical vertex
numbering* and translates it through the fingerprint mapping on the way
in and out, so a plan computed for one query is replayed onto any later
isomorphic query — including, trivially, the same query re-submitted.

Thread safe: a single lock guards the table, so one cache can be shared
by every worker of a :class:`~repro.service.batch.BatchEngine`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.arraytypes import Array
from repro.core.plan import JoinPlan, JoinStep
from repro.core.signature_table import ScanCost, SignatureTable
from repro.graph.labeled_graph import LabeledGraph
from repro.service.fingerprint import QueryFingerprint, query_fingerprint

DEFAULT_CAPACITY = 128


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`PlanCache`.

    ``shape_*`` counters track the candidate-shape memo (see
    :class:`CandidateShapeCache`); they are reported separately and do
    not enter :attr:`lookups` / :attr:`hit_rate`, which keep their
    original join-plan meaning.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    uncacheable: int = 0
    invalidations: int = 0
    shape_hits: int = 0
    shape_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.uncacheable

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 when nothing was looked up)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable counter dump (the server metrics layer and
        bench ``--json`` outputs both consume this shape)."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "uncacheable": int(self.uncacheable),
            "invalidations": int(self.invalidations),
            "shape_hits": int(self.shape_hits),
            "shape_misses": int(self.shape_misses),
            "lookups": int(self.lookups),
            "hit_rate": float(self.hit_rate),
        }

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum (aggregating per-batch deltas over time)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            uncacheable=self.uncacheable + other.uncacheable,
            invalidations=self.invalidations + other.invalidations,
            shape_hits=self.shape_hits + other.shape_hits,
            shape_misses=self.shape_misses + other.shape_misses)

    def diff(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier``."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            uncacheable=self.uncacheable - earlier.uncacheable,
            invalidations=self.invalidations - earlier.invalidations,
            shape_hits=self.shape_hits - earlier.shape_hits,
            shape_misses=self.shape_misses - earlier.shape_misses)


class CandidateShapeCache:
    """LRU memo of filtering-scan outcomes, keyed by signature bytes.

    Two query vertices with the same encoded signature (same vertex
    label, same folded incident edge labels) provably produce the same
    candidate set and the same scan cost against a fixed signature
    table, so repeated query labels can skip the host-side
    :meth:`~repro.core.signature_table.SignatureTable.scan` entirely.
    This is a *host* optimization only: the engine still
    charges the memoized :class:`~repro.core.signature_table.ScanCost`
    to the query's simulated device, so simulated times and transaction
    totals are bit-identical with and without the memo.

    Cached candidate arrays are shared across queries and therefore
    frozen (``writeable=False``); the joining phase never mutates them.

    Entries are only meaningful against the signature table that
    produced them, in two ways: the memo is *bound* to one table object
    (a cached plan is valid on any graph, but cached candidate ids are
    not — :meth:`bind` clears everything when a differently-owned
    engine starts scanning through a shared cache), and any in-place
    mutation of the bound table invalidates every entry — owners (the
    stream engine) must :meth:`clear` on update.

    Thread safe: the owning :class:`PlanCache` passes its own lock so
    shape and plan bookkeeping serialize together.
    """

    #: gsilint GSI003: these fields are only touched under self._lock
    #: (helpers suffixed ``_unlocked`` assume the caller holds it)
    _GUARDED_BY_LOCK = ("_entries", "_owner", "stats")

    def __init__(self, capacity: int = 512,
                 stats: Optional[CacheStats] = None,
                 lock: Optional[threading.Lock] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        self._lock = lock if lock is not None else threading.Lock()
        self._entries: "OrderedDict[bytes, Tuple[ScanCost, Array]]" \
            = OrderedDict()
        self._owner: Optional["weakref.ref[SignatureTable]"] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def bind(self, owner: SignatureTable) -> None:
        """Tie the memo to the signature table it scans.

        Binding to a *different* table drops every entry: candidate
        vertex ids computed against one table are garbage against
        another (e.g. one :class:`PlanCache` shared by engines serving
        different graphs — a safe pattern for plans, which survive the
        rebinding untouched).
        """
        with self._lock:
            current = self._owner() if self._owner is not None else None
            if current is not owner:
                self._entries.clear()
                self._owner = weakref.ref(owner)

    def _owned_by_unlocked(self, owner: Optional[SignatureTable]) -> bool:
        """Ownership check *under the caller's lock*: concurrent scans
        through differently-owned engines may rebind between a caller's
        ``bind`` and its lookups/stores, so every operation re-verifies
        the binding instead of trusting the scan-start bind."""
        if owner is None:
            return True  # direct (single-table) use; no binding check
        return self._owner is not None and self._owner() is owner

    def lookup(self, key: bytes, owner: Optional[SignatureTable] = None
               ) -> Optional[Tuple[ScanCost, Array]]:
        """``(scan_cost, candidates)`` for a signature, or ``None``.

        ``owner`` (the signature table being scanned) guards shared
        caches: a hit is only served while the memo is bound to it.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not self._owned_by_unlocked(owner):
                self.stats.shape_misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.shape_hits += 1
            return entry

    def store(self, key: bytes, scan_cost: ScanCost, candidates: Array,
              owner: Optional[SignatureTable] = None) -> None:
        candidates.setflags(write=False)  # shared across queries
        with self._lock:
            if not self._owned_by_unlocked(owner):
                return  # another table rebound mid-scan; don't pollute
            self._entries[key] = (scan_cost, candidates)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._clear_unlocked()

    def _clear_unlocked(self) -> None:
        """Drop entries without taking the (non-reentrant) lock — for
        owners that already hold it, e.g. :meth:`PlanCache.clear`."""
        self._entries.clear()


def remap_plan(plan: JoinPlan, mapping: Sequence[int]) -> JoinPlan:
    """Translate a plan through a vertex bijection.

    ``mapping[v]`` is the new id of vertex ``v``.  Linking edges are
    re-sorted by ``(edge_label, new vertex id)`` — the order
    :func:`~repro.core.plan.plan_join_order` itself produces (query
    adjacency is laid out sorted by ``(edge_label, neighbor)``) — so a
    round trip through canonical numbering reproduces the original plan
    exactly.
    """
    steps = tuple(
        JoinStep(
            vertex=mapping[step.vertex],
            linking_edges=tuple(sorted(
                ((mapping[w], lab) for w, lab in step.linking_edges),
                key=lambda e: (e[1], e[0]))))
        for step in plan.steps)
    return JoinPlan(start_vertex=mapping[plan.start_vertex], steps=steps)


class PlanCache:
    """LRU cache mapping canonical query fingerprints to join plans.

    Parameters
    ----------
    capacity:
        Maximum number of cached plans; least recently used entries are
        evicted beyond it.
    node_budget:
        Canonicalization budget forwarded to
        :func:`~repro.service.fingerprint.query_fingerprint`; queries
        exceeding it bypass the cache.
    """

    #: gsilint GSI003: these fields are only touched under self._lock
    _GUARDED_BY_LOCK = ("_plans", "_plan_labels", "stats")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 node_budget: Optional[int] = None,
                 shape_capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._node_budget = node_budget
        self._plans: "OrderedDict[str, JoinPlan]" = OrderedDict()
        # digest -> edge labels the plan's scoring depended on, for
        # statistics-shift invalidation under dynamic graphs.
        self._plan_labels: Dict[str, FrozenSet[int]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: memo of per-signature candidate-set shapes (scan results);
        #: shares this cache's stats object and lock
        self.shapes = CandidateShapeCache(capacity=shape_capacity,
                                          stats=self.stats,
                                          lock=self._lock)

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters (taken under the lock, so
        concurrent workers can't tear a read mid-update)."""
        with self._lock:
            return self.stats.snapshot()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def fingerprint(self, query: LabeledGraph) -> Optional[QueryFingerprint]:
        if self._node_budget is None:
            return query_fingerprint(query)
        return query_fingerprint(query, node_budget=self._node_budget)

    # ------------------------------------------------------------------

    def lookup(self, query: LabeledGraph
               ) -> Tuple[Optional[JoinPlan], Optional[QueryFingerprint]]:
        """Plan for ``query`` (renumbered onto it) if one is cached.

        Returns ``(plan, fingerprint)``; ``plan`` is ``None`` on a miss
        and ``fingerprint`` is ``None`` when the query is uncacheable.
        Pass the fingerprint back to :meth:`store` after planning to
        avoid recanonicalizing.
        """
        fp = self.fingerprint(query)
        if fp is None:
            with self._lock:
                self.stats.uncacheable += 1
            return None, None
        with self._lock:
            canonical = self._plans.get(fp.digest)
            if canonical is None:
                self.stats.misses += 1
                return None, fp
            self._plans.move_to_end(fp.digest)
            self.stats.hits += 1
        return remap_plan(canonical, fp.inverse()), fp

    def store(self, fingerprint: QueryFingerprint, plan: JoinPlan,
              edge_labels: Optional[Sequence[int]] = None) -> None:
        """Cache ``plan`` (expressed in its query's numbering) under
        ``fingerprint``, evicting the LRU entry beyond capacity.

        ``edge_labels`` records which data-graph label statistics the
        plan's scoring consulted (the query's edge labels feed
        Algorithm 2's ``freq(l)`` reweighting); a later
        :meth:`invalidate_labels` call with any of them drops the plan.
        """
        canonical = remap_plan(plan, fingerprint.mapping)
        with self._lock:
            self._plans[fingerprint.digest] = canonical
            self._plans.move_to_end(fingerprint.digest)
            if edge_labels is not None:
                self._plan_labels[fingerprint.digest] = \
                    frozenset(int(l) for l in edge_labels)
            else:
                # No metadata for this store: drop any stale label set a
                # previous store left under the same digest, so the plan
                # is invalidated conservatively.
                self._plan_labels.pop(fingerprint.digest, None)
            while len(self._plans) > self.capacity:
                digest, _ = self._plans.popitem(last=False)
                self._plan_labels.pop(digest, None)
                self.stats.evictions += 1

    def invalidate_labels(self, labels: Iterable[int]) -> int:
        """Drop plans whose scoring depended on any of ``labels``.

        Called when a data-graph update shifts edge-label frequencies:
        a cached join order chosen under the old statistics is still
        *correct* for an isomorphic query, but may no longer be the
        order fresh planning would pick.  Plans stored without label
        metadata are dropped conservatively.  Returns the drop count.
        """
        shifted = frozenset(int(l) for l in labels)
        if not shifted:
            return 0
        dropped = 0
        with self._lock:
            for digest in list(self._plans):
                deps = self._plan_labels.get(digest)
                if deps is None or deps & shifted:
                    del self._plans[digest]
                    self._plan_labels.pop(digest, None)
                    dropped += 1
            self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop every cached plan and candidate shape (stats are kept)."""
        with self._lock:
            self._plans.clear()
            self._plan_labels.clear()
            self.shapes._clear_unlocked()  # shares this lock
