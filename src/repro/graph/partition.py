"""Edge-label partitioning: ``P(G, l)`` (Section IV of the paper).

For each edge label ``l``, the *edge l-partitioned graph* is the subgraph of
``G`` induced by all edges labeled ``l``; after partitioning, the label
itself is dropped.  PCSR and the other per-label storage structures are all
built from :class:`EdgeLabelPartition` objects.

A partition is held in CSR form (sorted vertex ids, offsets, one flat
neighbor array), cut straight out of the graph's incidence layout: each
vertex's segment there is already sorted by ``(edge label, neighbor)``, so
one stable sort of the entries by label yields every partition's
neighbor lists, sorted, back to back.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.arraytypes import Array
from repro.graph.labeled_graph import LabeledGraph


def _incidence_entries(graph: LabeledGraph) -> Tuple[Array, Array, Array]:
    """The graph's directed incidence entries as ``(src, dst, label)``
    arrays, sorted by ``(src, label, dst)``."""
    offsets, nbr, elab = graph.incidence()
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(offsets))
    return src, nbr, elab


class EdgeLabelPartition:
    """The subgraph of ``G`` induced by edges with one label.

    ``adjacency`` maps vertices to sorted neighbor arrays; vertices with
    an empty array are not part of the partition.

    Attributes
    ----------
    label:
        The edge label this partition corresponds to.
    vertices:
        Sorted array of vertex ids that have at least one incident edge
        with this label.  Note these ids are *not* consecutive, which is
        exactly the problem PCSR's hashed row-offset layer solves.
    offsets:
        ``vertices[i]``'s neighbors are ``nbrs[offsets[i]:offsets[i + 1]]``.
    nbrs:
        Every vertex's sorted neighbor list, back to back in vertex order.
    """

    def __init__(self, label: int, adjacency: Dict[int, Array]) -> None:
        keys = sorted(int(v) for v, arr in adjacency.items() if len(arr))
        lists = [np.asarray(adjacency[v], dtype=np.int64) for v in keys]
        lengths = np.array([len(a) for a in lists], dtype=np.int64)
        self._init_csr(
            label, np.array(keys, dtype=np.int64), lengths,
            np.concatenate(lists) if lists else np.empty(0, dtype=np.int64))

    def _init_csr(self, label: int, vertices: Array, lengths: Array,
                  nbrs: Array) -> None:
        self.label = label
        self.vertices = vertices
        self.offsets = np.zeros(len(vertices) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        self.nbrs = nbrs

    @classmethod
    def _from_entries(cls, label: int, src: Array,
                      dst: Array) -> "EdgeLabelPartition":
        """Partition from directed ``(src, dst)`` entries sorted by
        ``(src, dst)``, as the graph's incidence layout yields them."""
        part = object.__new__(cls)
        vertices, lengths = np.unique(src, return_counts=True)
        part._init_csr(label, vertices, lengths, dst)
        return part

    @classmethod
    def of_label(cls, graph: LabeledGraph,
                 label: int) -> "EdgeLabelPartition":
        """``P(graph, label)`` alone, read straight from the CSR: one
        label compare over the incidence, then each entry's owner by a
        search of the offsets (the other labels are never split)."""
        offsets, nbr, elab = graph.incidence()
        at = np.flatnonzero(elab == label)
        return cls._from_entries(
            label, np.searchsorted(offsets, at, side="right") - 1, nbr[at])

    @property
    def num_vertices(self) -> int:
        """``|V(G, l)|``: vertices incident to at least one l-edge."""
        return len(self.vertices)

    @property
    def num_directed_edges(self) -> int:
        """Total adjacency entries (2x the undirected edge count)."""
        return len(self.nbrs)

    def _index(self, v: int) -> int:
        i = int(np.searchsorted(self.vertices, v))
        return i if i < len(self.vertices) and self.vertices[i] == v else -1

    def has_vertex(self, v: int) -> bool:
        """Whether ``v`` has any incident edge labeled :attr:`label`."""
        return self._index(v) >= 0

    def neighbors(self, v: int) -> Array:
        """``N(v, l)`` for this partition's ``l`` (empty if absent)."""
        i = self._index(v)
        if i < 0:
            return np.empty(0, dtype=np.int64)
        return self.nbrs[self.offsets[i]:self.offsets[i + 1]]

    def items(self) -> List[Tuple[int, Array]]:
        """``(vertex, neighbor array)`` pairs sorted by vertex id."""
        bounds = self.offsets.tolist()
        return [(v, self.nbrs[bounds[i]:bounds[i + 1]])
                for i, v in enumerate(self.vertices.tolist())]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeLabelPartition(label={self.label}, "
            f"|V|={self.num_vertices}, entries={self.num_directed_edges})"
        )


def partition_by_edge_label(graph: LabeledGraph
                            ) -> Dict[int, EdgeLabelPartition]:
    """Split ``graph`` into one :class:`EdgeLabelPartition` per edge label.

    The union of all partitions' adjacency is exactly the graph's
    adjacency; each partition stores sorted neighbor arrays.  One stable
    sort of the incidence entries by label keeps each label's entries in
    ``(vertex, neighbor)`` order.
    """
    src, dst, elab = _incidence_entries(graph)
    order = np.argsort(elab, kind="stable")
    labels, starts = np.unique(elab[order], return_index=True)
    bounds = np.append(starts, len(order)).tolist()
    src, dst = src[order], dst[order]
    return {lab: EdgeLabelPartition._from_entries(
                lab, src[bounds[i]:bounds[i + 1]],
                dst[bounds[i]:bounds[i + 1]])
            for i, lab in enumerate(labels.tolist())}
