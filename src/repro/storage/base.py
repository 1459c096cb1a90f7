"""Common interface for graph storage structures (Section IV, Table II).

Every structure answers the same functional question — ``N(v, l)`` — but
with a different *memory-transaction* profile.  A store implements one
read, :meth:`NeighborStore.gather`: the lists of many vertices under one
label, back to back, each with its counted cost:

``locate``
    Transactions spent finding where v's l-neighbors live (the row-offset
    walk: 1 for BR and CSR, the groups probed for PCSR, a binary search
    for CR; 0 when no structure carries the label).
``read``
    Transactions spent streaming the located list out of global memory
    (plain CSR pays for the whole unfiltered neighborhood here).
``streamed``
    Elements a warp inspects to produce the list: exactly the answer for
    the per-label stores, the whole neighborhood for plain CSR (thread
    underutilization).

Lists are sorted and duplicate-free.  That is a store invariant, not
something a reader repairs: the join's set operations rely on it, and
:meth:`~repro.storage.pcsr.PCSRPartition.validate` and the fuzz harness
check it for the one store that is maintained in place.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, NamedTuple

import numpy as np

from repro.arraytypes import Array
from repro.gpusim.transactions import contiguous_reads
from repro.graph.labeled_graph import concat_ranges

EMPTY = np.empty(0, dtype=np.int64)


class Gathered(NamedTuple):
    """``N(v, l)`` for every vertex of one :meth:`NeighborStore.gather`
    call: list ``i`` is ``concat[starts[i]:starts[i] + lens[i]]``, and
    ``locate``/``read``/``streamed`` are its charges (see the module
    docstring).  Every field but ``concat`` has one entry per vertex."""

    concat: Array
    starts: Array
    lens: Array
    locate: Array
    read: Array
    streamed: Array


def gather_ranges(source: Array, begin: Array, lens: Array,
                  locate: Array) -> Gathered:
    """The lists ``source[begin[i]:begin[i] + lens[i]]`` of a per-label
    store, which reads and streams exactly each list."""
    return Gathered(source[concat_ranges(begin, lens)],
                    np.cumsum(lens) - lens, lens, locate,
                    contiguous_reads(lens), lens)


def nothing_gathered(count: int) -> Gathered:
    """``count`` empty lists at no charge: no structure carries the
    label, so there is nothing to read."""
    zeros = np.zeros(count, dtype=np.int64)
    return Gathered(EMPTY, zeros, zeros, zeros, zeros, zeros)


class NeighborStore(ABC):
    """Abstract N(v, l) provider with transaction accounting."""

    #: short identifier used by the factory and benchmark tables
    kind: str = "abstract"

    @abstractmethod
    def gather(self, vertices: Array, label: int) -> Gathered:
        """``N(v, label)`` and its charges for every ``v`` of
        ``vertices`` (an int64 array, in any order, repeats allowed)."""

    @abstractmethod
    def space_words(self) -> int:
        """Total 4-byte words the structure occupies (Table II space)."""

    def neighbors(self, v: int, label: int) -> Array:
        """Sorted ``N(v, l)``; empty array if none."""
        return self.gather(np.array([v], dtype=np.int64), label).concat

    def stats(self) -> Dict[str, Any]:
        """Health/size counters for monitoring surfaces (stream
        reports, the serve ``stats`` RPC).  PCSR-backed stores override
        this with richer occupancy / dead-space detail."""
        return {"kind": self.kind, "space_words": self.space_words()}
