"""Traditional 3-layer CSR (Figure 10): the baseline storage structure.

One row-offset array over all vertices, one column-index array holding all
neighbor lists, and one edge-value array with the labels.  Extracting
``N(v, l)`` must scan *every* neighbor of ``v`` and check its edge label,
so the cost is O(|N(v)|) transactions-wise and suffers thread
underutilization (threads holding wrong-label neighbors are wasted).
"""

from __future__ import annotations

import numpy as np

from repro.arraytypes import Array
from repro.gpusim.transactions import contiguous_reads
from repro.graph.labeled_graph import LabeledGraph, concat_ranges
from repro.storage.base import Gathered, NeighborStore


class CSRStorage(NeighborStore):
    """Whole-graph CSR with an edge-label layer (the graph's own)."""

    kind = "csr"

    def __init__(self, graph: LabeledGraph) -> None:
        self._graph = graph

    def gather(self, vertices: Array, label: int) -> Gathered:
        offsets, nbr, elab = self._graph.incidence()
        begin = offsets[vertices]
        degree = offsets[vertices + 1] - begin
        at = concat_ranges(begin, degree)
        # A row is sorted by (edge label, neighbor), so each vertex's
        # label-l entries come out sorted.
        keep = elab[at] == label
        row = np.repeat(np.arange(len(vertices), dtype=np.int64), degree)
        lens = np.bincount(row[keep], minlength=len(vertices)).astype(np.int64)
        # One transaction fetches the (begin, end) offset pair; the warp
        # then streams the full neighborhood *and* the parallel
        # edge-label array and discards non-matching entries.
        return Gathered(nbr[at[keep]], np.cumsum(lens) - lens, lens,
                        np.ones(len(vertices), dtype=np.int64),
                        contiguous_reads(degree) * 2, degree)

    def space_words(self) -> int:
        n = self._graph.num_vertices
        m2 = 2 * self._graph.num_edges
        return (n + 1) + m2 + m2  # offsets + column index + edge values
