"""Common interface for graph storage structures (Section IV, Table II).

Every structure answers the same functional question — ``N(v, l)`` — but
with a different *memory-transaction* profile.  The interface therefore
exposes both the answer and the counted cost of producing it:

``locate_transactions``
    Transactions spent finding where v's l-neighbors live (the row-offset
    walk: 1 for BR/PCSR, a binary search for CR, a full neighbor scan for
    plain CSR).
``read_transactions``
    Transactions spent streaming the neighbor list itself out of global
    memory once located.
``lookup``
    The functional neighbors, with both costs recorded into a meter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

import numpy as np

from repro.arraytypes import Array
from repro.gpusim.constants import LABEL_STORAGE_LOCATE, LABEL_STORAGE_READ
from repro.gpusim.meter import MemoryMeter

EMPTY = np.empty(0, dtype=np.int64)


class NeighborStore(ABC):
    """Abstract N(v, l) provider with transaction accounting."""

    #: short identifier used by the factory and benchmark tables
    kind: str = "abstract"

    @abstractmethod
    def neighbors(self, v: int, label: int) -> Array:
        """Sorted ``N(v, l)``; empty array if none."""

    @abstractmethod
    def locate_transactions(self, v: int, label: int) -> int:
        """Global-memory transactions needed to *locate* ``N(v, l)``."""

    @abstractmethod
    def read_transactions(self, v: int, label: int) -> int:
        """Transactions needed to stream the located list (CSR pays for
        the whole unfiltered neighborhood here)."""

    @abstractmethod
    def space_words(self) -> int:
        """Total 4-byte words the structure occupies (Table II space)."""

    def stats(self) -> Dict[str, Any]:
        """Health/size counters for monitoring surfaces (stream
        reports, the serve ``stats`` RPC).  PCSR-backed stores override
        this with richer occupancy / dead-space detail."""
        return {"kind": self.kind, "space_words": self.space_words()}

    def streamed_elements(self, v: int, label: int) -> int:
        """Elements a warp actually streams/inspects to produce N(v, l).

        Per-label stores stream exactly the answer; plain CSR must scan
        the whole neighborhood (thread underutilization), so it
        overrides this with ``deg(v)``.
        """
        return len(self.neighbors(v, label))

    def lookup(self, v: int, label: int,
               meter: Optional[MemoryMeter] = None) -> Array:
        """Metered ``N(v, l)``: records locate + read transactions."""
        result = self.neighbors(v, label)
        if meter is not None:
            meter.add_gld(self.locate_transactions(v, label),
                          label=LABEL_STORAGE_LOCATE)
            meter.add_gld(self.read_transactions(v, label),
                          label=LABEL_STORAGE_READ)
        return result

    def lookup_transactions(self, v: int, label: int) -> int:
        """Total transactions for one ``N(v, l)`` extraction."""
        return (self.locate_transactions(v, label)
                + self.read_transactions(v, label))
