"""Compressed Representation (Figure 11b): per-label CSR + binary search.

Each edge-label partition stores only its own (non-consecutive) vertex ids
in a sorted "vertex ID" layer; locating ``N(v, l)`` binary-searches that
layer.  Space drops to O(|E|) but locating costs
``ceil(log2(|V(G,l)| + 1)) + 2`` transactions (Section IV).
"""

from __future__ import annotations

import math
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


class _PerLabelCompressed:
    """One label's compressed CSR: vertex-id layer + offsets + ci."""

    def __init__(self, items: List[Tuple[int, Array]]) -> None:
        self.vertex_ids = np.array([v for v, _ in items], dtype=np.int64)
        degrees = np.array([len(nbrs) for _, nbrs in items], dtype=np.int64)
        self.offsets = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.offsets[1:])
        chunks = [nbrs for _, nbrs in items]
        self.ci = (np.concatenate(chunks) if chunks
                   else np.empty(0, dtype=np.int64))


class CompressedRepresentation(NeighborStore):
    """All edge-label partitions with binary-searched vertex-id layers."""

    kind = "compressed"

    def __init__(self, graph: LabeledGraph) -> None:
        self._tables: Dict[int, _PerLabelCompressed] = {}
        for lab, part in partition_by_edge_label(graph).items():
            self._tables[lab] = _PerLabelCompressed(part.items())

    def gather(self, vertices: Array, label: int) -> Gathered:
        table = self._tables.get(label)
        if table is None:
            return nothing_gathered(len(vertices))
        # Paper: ceil(log2(|V(G,l)| + 1)) + 2 transactions — the binary
        # search probes plus the offset pair fetch.  A table exists only
        # for a label that carries edges, so it holds a vertex.
        ids = table.vertex_ids
        pos = np.minimum(np.searchsorted(ids, vertices), len(ids) - 1)
        found = ids[pos] == vertices
        begin = table.offsets[pos]
        return gather_ranges(
            table.ci, begin,
            np.where(found, table.offsets[pos + 1] - begin, 0),
            np.full(len(vertices), math.ceil(math.log2(len(ids) + 1)) + 2,
                    dtype=np.int64))

    def space_words(self) -> int:
        total = 0
        for table in self._tables.values():
            total += (len(table.vertex_ids) + len(table.offsets)
                      + len(table.ci))
        return total
