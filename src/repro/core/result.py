"""Result types shared by GSI and every baseline engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.arraytypes import Array
from repro.gpusim.meter import MeterSnapshot

Match = Tuple[int, ...]


@dataclass
class PhaseBreakdown:
    """Simulated milliseconds split by phase."""

    filter_ms: float = 0.0
    join_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.filter_ms + self.join_ms


@dataclass(init=False, eq=False)
class MatchResult:
    """Outcome of one subgraph-isomorphism query.

    The embeddings have two views over one store.  ``rows`` is an
    ``(n, k)`` int64 array indexed by *query vertex id*: ``rows[i, u]``
    is the data vertex matched to query vertex ``u`` in the ``i``-th
    match.  ``matches`` is the same list as tuples (``match[u]``).  GSI
    sets ``rows``; the baselines, the shard merge and the serve dedup
    set ``matches``.  Whichever view was not set is built on first use
    and kept; assigning either view replaces both.  ``num_matches``
    reads the stored view's length, so it never builds tuples, and a
    pickled result carries ``rows`` only.  Mutating the ``matches``
    list in place does not update a ``rows`` built before; assign a new
    list instead.

    Attributes
    ----------
    elapsed_ms:
        Simulated query response time (the paper's reported metric).
    timed_out:
        True when the simulated budget was exhausted; the matches are
        then incomplete and should not be used.
    counters:
        GLD / GST / launches etc. accumulated during the run.
    phases:
        ``elapsed_ms`` split into filtering and joining.
    candidate_sizes:
        ``|C(u)|`` per query vertex after filtering (Table IV's metric is
        ``min`` over these).
    join_order:
        The vertex order chosen by the planner (Alg. 2).
    """

    elapsed_ms: float
    timed_out: bool
    counters: MeterSnapshot
    phases: PhaseBreakdown
    candidate_sizes: Dict[int, int]
    join_order: List[int]
    engine: str

    def __init__(self, matches: Optional[List[Match]] = None,
                 elapsed_ms: float = 0.0, timed_out: bool = False,
                 counters: Optional[MeterSnapshot] = None,
                 phases: Optional[PhaseBreakdown] = None,
                 candidate_sizes: Optional[Dict[int, int]] = None,
                 join_order: Optional[List[int]] = None,
                 engine: str = "", *,
                 rows: Optional[Array] = None) -> None:
        self._rows: Optional[Array] = rows
        self._tuples: Optional[List[Match]] = (
            None if rows is not None
            else [] if matches is None else matches)
        self.elapsed_ms = elapsed_ms
        self.timed_out = timed_out
        self.counters = counters if counters is not None else MeterSnapshot()
        self.phases = phases if phases is not None else PhaseBreakdown()
        self.candidate_sizes = (
            candidate_sizes if candidate_sizes is not None else {})
        self.join_order = join_order if join_order is not None else []
        self.engine = engine

    @property
    def rows(self) -> Array:
        """The matches as one ``(n, k)`` int64 array."""
        if self._rows is None:
            tuples = self._tuples or []
            self._rows = (np.array(tuples, dtype=np.int64)
                          .reshape(len(tuples), -1) if tuples
                          else np.empty((0, 0), dtype=np.int64))
        return self._rows

    @rows.setter
    def rows(self, value: Array) -> None:
        self._rows = value
        self._tuples = None

    @property
    def matches(self) -> List[Match]:
        """The matches as tuples indexed by query vertex id."""
        if self._tuples is None:
            assert self._rows is not None
            self._tuples = list(map(tuple, self._rows.tolist()))
        return self._tuples

    @matches.setter
    def matches(self, value: List[Match]) -> None:
        self._tuples = value
        self._rows = None

    @property
    def num_matches(self) -> int:
        """Number of embeddings found."""
        if self._tuples is not None:
            return len(self._tuples)
        assert self._rows is not None
        return int(self._rows.shape[0])

    @property
    def min_candidate_size(self) -> Optional[int]:
        """``min |C(u)|`` — the filtering-power metric of Table IV."""
        if not self.candidate_sizes:
            return None
        return min(self.candidate_sizes.values())

    def match_set(self) -> Set[Match]:
        """Matches as a set, for cross-engine equality checks."""
        return set(self.matches)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_rows"] = self.rows
        state["_tuples"] = None
        return state
