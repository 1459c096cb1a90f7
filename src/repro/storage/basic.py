"""Basic Representation (Figure 11a): per-label CSR with full offset rows.

Every edge-label partition keeps a row-offset array over the *entire*
vertex set, so lookup is O(1) by direct indexing — but space is
O(|E| + |L_E| x |V|), which the paper shows is unscalable for graphs like
DBpedia with tens of thousands of edge labels.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.arraytypes import Array
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import partition_by_edge_label
from repro.storage.base import (
    Gathered,
    NeighborStore,
    gather_ranges,
    nothing_gathered,
)


class _PerLabelBasic:
    """One label's full-width CSR: offsets over all |V| vertices."""

    def __init__(self, num_vertices: int,
                 items: List[Tuple[int, Array]]) -> None:
        self.offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        chunks = []
        degree = np.zeros(num_vertices, dtype=np.int64)
        for v, nbrs in items:
            degree[v] = len(nbrs)
            chunks.append(nbrs)
        np.cumsum(degree, out=self.offsets[1:])
        self.ci = (np.concatenate(chunks) if chunks
                   else np.empty(0, dtype=np.int64))


class BasicRepresentation(NeighborStore):
    """All edge-label partitions, each with a |V|-wide offset layer."""

    kind = "basic"

    def __init__(self, graph: LabeledGraph) -> None:
        self._n = graph.num_vertices
        self._tables: Dict[int, _PerLabelBasic] = {}
        for lab, part in partition_by_edge_label(graph).items():
            self._tables[lab] = _PerLabelBasic(self._n, part.items())

    def gather(self, vertices: Array, label: int) -> Gathered:
        table = self._tables.get(label)
        if table is None:
            return nothing_gathered(len(vertices))
        # Direct index into the per-label offset array: one transaction
        # fetches the (begin, end) pair.
        begin = table.offsets[vertices]
        return gather_ranges(table.ci, begin,
                             table.offsets[vertices + 1] - begin,
                             np.ones(len(vertices), dtype=np.int64))

    def space_words(self) -> int:
        total = 0
        for table in self._tables.values():
            total += len(table.offsets) + len(table.ci)
        return total
