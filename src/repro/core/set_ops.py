"""Candidate sets for the join's GPU-friendly set operations (Section V).

Each join iteration performs, per intermediate-table row ``m_i``:

* first linking edge: ``buf_i = (N(v', l0) \\ m_i) ∩ C(u)``
* every other linking edge: ``buf_i = buf_i ∩ N(v', l)``

:class:`CandidateSet` is ``C(u)`` for the membership tests in the first
of these and prices them in both of the paper's modes: one bitset
transaction per element when GPU-friendly, a binary search otherwise.
The operations themselves and the rest of their cost model live in
:mod:`repro.core.kernels` (``_edge_costs``), shared by both host lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arraytypes import Array


@dataclass
class CandidateSet:
    """``C(u)`` in the three forms the join needs.

    ``sorted_ids`` drives functional set logic; the conceptual GPU-side
    bitset (friendly mode) or sorted array (naive mode) only matters for
    cost counting.
    """

    sorted_ids: Array
    _log_size: int = field(init=False)

    def __post_init__(self) -> None:
        n = max(2, len(self.sorted_ids))
        self._log_size = int(np.ceil(np.log2(n)))

    def __len__(self) -> int:
        return len(self.sorted_ids)

    def contains_mask(self, values: Array) -> Array:
        """Vectorized membership test for sorted unique ``values``."""
        if len(self.sorted_ids) == 0 or len(values) == 0:
            return np.zeros(len(values), dtype=bool)
        idx = np.searchsorted(self.sorted_ids, values)
        idx = np.minimum(idx, len(self.sorted_ids) - 1)
        return self.sorted_ids[idx] == values

    def probe_gld(self, num_elements: int, friendly: bool) -> int:
        """Transactions to test ``num_elements`` memberships.

        Friendly mode probes the bitset: exactly one transaction per
        element (Section V).  Naive mode binary-searches the sorted
        array; the top levels stay cached, costing ~2 dependent
        transactions per element.
        """
        if friendly:
            return num_elements
        return num_elements * min(2, self._log_size)
