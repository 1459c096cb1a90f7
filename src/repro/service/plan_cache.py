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

from repro.core.plan import JoinPlan, JoinStep
from repro.graph.labeled_graph import LabeledGraph
from repro.service.fingerprint import QueryFingerprint, query_fingerprint

DEFAULT_CAPACITY = 128


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`PlanCache`.

    ``shape_hits`` and ``shape_misses`` are always zero: every query
    vertex runs its own signature-table scan, and nothing memoizes
    candidate sets.  They stay in every dump because benchmark readers
    still derive a shape hit rate from them; they do not enter
    :attr:`lookups` / :attr:`hit_rate`.
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

    Queries whose canonicalization exceeds
    :func:`~repro.service.fingerprint.query_fingerprint`'s node budget
    bypass the cache (counted as ``uncacheable``).
    """

    #: gsilint GSI003: these fields are only touched under self._lock
    _GUARDED_BY_LOCK = ("_plans", "_plan_labels", "stats")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: "OrderedDict[str, JoinPlan]" = OrderedDict()
        # digest -> edge labels the plan's scoring depended on, for
        # statistics-shift invalidation under dynamic graphs.
        self._plan_labels: Dict[str, FrozenSet[int]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters (taken under the lock, so
        concurrent workers can't tear a read mid-update)."""
        with self._lock:
            return self.stats.snapshot()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def fingerprint(self, query: LabeledGraph) -> Optional[QueryFingerprint]:
        return query_fingerprint(query)

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
        """Drop every cached plan (stats are kept)."""
        with self._lock:
            self._plans.clear()
            self._plan_labels.clear()
