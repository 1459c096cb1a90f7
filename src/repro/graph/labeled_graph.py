"""Undirected labeled graphs: the substrate both GSI and all baselines share.

A :class:`LabeledGraph` is immutable once built.  Vertices are dense integer
ids ``0..n-1``; every vertex carries an integer label and every edge carries
an integer label (Definition 1 of the paper).  Internally adjacency is kept
in a CSR-like layout where each vertex's incidence segment is sorted by
``(edge_label, neighbor)`` so that ``N(v, l)`` — the primitive the whole
paper revolves around — is a binary search plus one contiguous slice.

Use :class:`GraphBuilder` to construct graphs incrementally::

    b = GraphBuilder()
    a_vertex = b.add_vertex(label=3)
    other = b.add_vertex(label=5)
    b.add_edge(a_vertex, other, label=1)
    g = b.build()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.arraytypes import Array
from repro.errors import GraphError

Edge = Tuple[int, int, int]  # (u, v, edge_label) with u < v


@dataclass(frozen=True)
class CSRPatchStats:
    """Work accounting for one :meth:`LabeledGraph.apply_changes` call.

    Only *touched* rows count: the CSR splice streams each changed
    vertex's old incidence segment in and its new segment out, so these
    numbers scale with the change set, not with ``|E|``.  (The untouched
    remainder of the arrays is shared wholesale — on a device that is a
    buffer reuse / copy-on-write, not a stream.)
    """

    rows_spliced: int = 0
    #: incidence words read from the touched rows of the old CSR
    words_read: int = 0
    #: incidence words written into the touched rows of the new CSR
    words_written: int = 0

    @property
    def touched_words(self) -> int:
        return self.words_read + self.words_written


class LabeledGraph:
    """An immutable undirected graph with vertex and edge labels.

    Parameters
    ----------
    vertex_labels:
        Sequence of integer labels, one per vertex; its length defines the
        number of vertices.
    edges:
        Iterable of ``(u, v, label)`` triples.  Edges are undirected; at
        most one edge may exist between a vertex pair, and self loops are
        rejected (subgraph isomorphism is defined on simple graphs).
    """

    def __init__(self, vertex_labels: Sequence[int],
                 edges: Iterable[Edge]) -> None:
        self._vlabels = np.asarray(vertex_labels, dtype=np.int64)
        if self._vlabels.ndim != 1:
            raise GraphError("vertex_labels must be one-dimensional")
        n = int(self._vlabels.shape[0])

        if isinstance(edges, np.ndarray):
            edge_arr = np.asarray(edges, dtype=np.int64)
        else:
            edge_list = list(edges)
            edge_arr = (np.asarray(edge_list, dtype=np.int64) if edge_list
                        else np.empty((0, 3), dtype=np.int64))
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 3)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 3:
            raise GraphError("edges must be (u, v, label) triples")

        eu, ev, elab = edge_arr[:, 0], edge_arr[:, 1], edge_arr[:, 2]
        bad = (eu < 0) | (eu >= n) | (ev < 0) | (ev >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphError(
                f"edge ({int(eu[i])}, {int(ev[i])}) references a missing "
                f"vertex")
        loops = eu == ev
        if loops.any():
            i = int(np.argmax(loops))
            raise GraphError(
                f"self loop at vertex {int(eu[i])} is not allowed")

        # Deduplicate on the normalized (min, max) endpoint pair, keeping
        # first-occurrence input order and rejecting conflicting labels.
        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        keys = lo * max(n, 1) + hi
        _, first_idx, inverse = np.unique(keys, return_index=True,
                                          return_inverse=True)
        conflict = elab != elab[first_idx][inverse]
        if conflict.any():
            i = int(np.argmax(conflict))
            j = int(first_idx[int(inverse[i])])
            raise GraphError(
                f"conflicting labels {int(elab[j])} and {int(elab[i])} "
                f"for edge {(int(lo[i]), int(hi[i]))}")
        kept = np.sort(first_idx)
        lo, hi, elab = lo[kept], hi[kept], elab[kept]
        self._edge_map = dict(zip(zip(lo.tolist(), hi.tolist()),
                                  elab.tolist()))

        # Build the CSR-like incidence layout, each segment sorted by
        # (edge_label, neighbor) so N(v, l) is a searchsorted + slice.
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        lab_arr = np.concatenate([elab, elab])
        order = np.lexsort((dst, lab_arr, src))
        src, dst, lab_arr = src[order], dst[order], lab_arr[order]

        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self._offsets, src + 1, 1)
        np.cumsum(self._offsets, out=self._offsets)
        self._nbr = dst
        self._elab = lab_arr

        freq_labels, freq_counts = np.unique(elab, return_counts=True)
        self._edge_label_freq = dict(zip(freq_labels.tolist(),
                                         freq_counts.tolist()))

    # ------------------------------------------------------------------
    # Basic size / label accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``|V(G)|``."""
        return int(self._vlabels.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``|E(G)|``."""
        return len(self._edge_map)

    @property
    def vertex_labels(self) -> Array:
        """Read-only array of vertex labels indexed by vertex id."""
        return self._vlabels

    def vertex_label(self, v: int) -> int:
        """Label of vertex ``v``."""
        return int(self._vlabels[v])

    def distinct_vertex_labels(self) -> List[int]:
        """Sorted list of vertex labels present in the graph."""
        return sorted(int(x) for x in np.unique(self._vlabels))

    def distinct_edge_labels(self) -> List[int]:
        """Sorted list of edge labels present in the graph."""
        return sorted(self._edge_label_freq)

    def edge_label_frequency(self, label: int) -> int:
        """``freq(l)``: how many edges of ``G`` carry ``label``."""
        return self._edge_label_freq.get(label, 0)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        return int(self._offsets[v + 1] - self._offsets[v])

    def neighbors(self, v: int) -> Array:
        """``N(v)``: neighbors of ``v`` (unsorted, grouped by label)."""
        return self._nbr[self._offsets[v]:self._offsets[v + 1]]

    def incident_labels(self, v: int) -> Array:
        """Edge labels aligned with :meth:`neighbors`."""
        return self._elab[self._offsets[v]:self._offsets[v + 1]]

    def incidence(self) -> Tuple[Array, Array, Array]:
        """The read-only CSR incidence layout ``(offsets, neighbors,
        edge_labels)``: vertex ``v``'s segment is
        ``[offsets[v], offsets[v + 1])`` of the other two (bulk readers
        walk many segments at once instead of slicing per vertex)."""
        return self._offsets, self._nbr, self._elab

    def neighbors_by_label(self, v: int, label: int) -> Array:
        """``N(v, l)``: neighbors of ``v`` over ``label`` edges, sorted.

        This is the primitive whose memory cost PCSR optimizes; here it is
        the *functional* version used by every engine for correctness.
        """
        lo, hi = self._offsets[v], self._offsets[v + 1]
        seg = self._elab[lo:hi]
        left = lo + np.searchsorted(seg, label, side="left")
        right = lo + np.searchsorted(seg, label, side="right")
        return self._nbr[left:right]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge exists between ``u`` and ``v``."""
        key = (u, v) if u < v else (v, u)
        return key in self._edge_map

    def edge_label(self, u: int, v: int) -> int:
        """Label of the edge between ``u`` and ``v``.

        Raises :class:`~repro.errors.GraphError` if no such edge exists.
        """
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_map[key]
        except KeyError:
            raise GraphError(f"no edge between {u} and {v}") from None

    def edges(self) -> Iterator[Edge]:
        """Iterate ``(u, v, label)`` with ``u < v`` in insertion order."""
        for (u, v), lab in self._edge_map.items():
            yield (u, v, lab)

    def max_degree(self) -> int:
        """Maximum degree over all vertices (``MD`` in Table III)."""
        if self.num_vertices == 0:
            return 0
        return int(np.max(self._offsets[1:] - self._offsets[:-1]))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the graph is connected (BFS from vertex 0)."""
        n = self.num_vertices
        if n == 0:
            return True
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                w = int(w)
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def subgraph_of_edges(self, keep: Iterable[Edge]) -> "LabeledGraph":
        """New graph with the same vertex set but only ``keep`` edges."""
        return LabeledGraph(self._vlabels.copy(), keep)

    # ------------------------------------------------------------------
    # Incremental construction (the O(changes) commit path)
    # ------------------------------------------------------------------

    def apply_changes(self, inserted: Iterable[Edge],
                      deleted: Iterable[Edge],
                      new_vertex_labels: Sequence[int] = (),
                      ) -> Tuple["LabeledGraph", CSRPatchStats]:
        """New graph = this graph plus a *net* change set, by CSR splice.

        ``inserted`` and ``deleted`` are ``(u, v, label)`` triples net
        against this graph (a relabel appears in both).  Only the rows
        of touched vertices are re-derived — filtered, merged and
        re-sorted by ``(edge_label, neighbor)`` — and spliced into
        copies of the CSR arrays; every untouched row is block-copied
        unchanged.  Work and the returned :class:`CSRPatchStats` scale
        with the change set, which is what makes
        :meth:`repro.dynamic.graph.DynamicGraph.commit` O(changes)
        instead of O(|E|).

        Raises :class:`~repro.errors.GraphError` when a deletion names a
        missing edge (or the wrong label), an insertion duplicates a
        surviving edge, or an endpoint is out of range.
        """
        n_old = self.num_vertices
        extra = np.asarray(list(new_vertex_labels), dtype=np.int64)
        n = n_old + len(extra)

        # --- Normalize + validate the change set (O(changes)). --------
        del_pairs: Dict[Tuple[int, int], int] = {}
        for u, v, lab in deleted:
            u, v, lab = int(u), int(v), int(lab)
            key = (u, v) if u < v else (v, u)
            if key in del_pairs:
                raise GraphError(f"edge {key} deleted twice")
            have = self._edge_map.get(key)
            if have is None:
                raise GraphError(f"no edge between {key[0]} and {key[1]}")
            if have != lab:
                raise GraphError(
                    f"edge {key} carries label {have}, not {lab}")
            del_pairs[key] = lab
        ins_pairs: Dict[Tuple[int, int], int] = {}
        for u, v, lab in inserted:
            u, v, lab = int(u), int(v), int(lab)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(
                    f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise GraphError(f"self loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in ins_pairs:
                raise GraphError(f"edge {key} inserted twice")
            if key in self._edge_map and key not in del_pairs:
                raise GraphError(
                    f"edge {key} already exists; delete it first to "
                    f"relabel")
            ins_pairs[key] = lab

        if not del_pairs and not ins_pairs and not len(extra):
            return self, CSRPatchStats()

        # --- Per-vertex change lists (O(changes)). --------------------
        rem_at: Dict[int, Set[int]] = {}
        add_at: Dict[int, List[Tuple[int, int]]] = {}
        for (lo, hi), _lab in del_pairs.items():
            rem_at.setdefault(lo, set()).add(hi)
            rem_at.setdefault(hi, set()).add(lo)
        for (lo, hi), lab in ins_pairs.items():
            add_at.setdefault(lo, []).append((lab, hi))
            add_at.setdefault(hi, []).append((lab, lo))
        touched = sorted(set(rem_at) | set(add_at)
                         | set(range(n_old, n)))

        # --- Metadata: labels, edge map, label frequencies. -----------
        vlabels = (np.concatenate([self._vlabels, extra]) if len(extra)
                   else self._vlabels)
        edge_map = dict(self._edge_map)
        freq = dict(self._edge_label_freq)
        for key, lab in del_pairs.items():
            del edge_map[key]
            freq[lab] -= 1
            if not freq[lab]:
                del freq[lab]
        for key, lab in ins_pairs.items():
            edge_map[key] = lab
            freq[lab] = freq.get(lab, 0) + 1

        # --- Offsets: adjust touched degrees, re-prefix-sum. ----------
        deg = np.empty(n, dtype=np.int64)
        np.subtract(self._offsets[1:], self._offsets[:-1],
                    out=deg[:n_old])
        deg[n_old:] = 0
        for v in touched:
            deg[v] += (len(add_at.get(v, ()))
                       - len(rem_at.get(v, ())))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=offsets[1:])

        # --- Splice rows: bulk-copy untouched runs, rebuild touched. --
        total = int(offsets[n])
        nbr = np.empty(total, dtype=np.int64)
        elab = np.empty(total, dtype=np.int64)
        words_read = 0
        words_written = 0
        prev = 0  # next untouched vertex to copy from
        for v in touched:
            if prev < v and prev < n_old:
                stop = min(v, n_old)
                o_lo, o_hi = int(self._offsets[prev]), \
                    int(self._offsets[stop])
                d_lo = int(offsets[prev])
                nbr[d_lo:d_lo + (o_hi - o_lo)] = self._nbr[o_lo:o_hi]
                elab[d_lo:d_lo + (o_hi - o_lo)] = self._elab[o_lo:o_hi]
            if v < n_old:
                o_lo, o_hi = int(self._offsets[v]), \
                    int(self._offsets[v + 1])
                seg_n = self._nbr[o_lo:o_hi]
                seg_l = self._elab[o_lo:o_hi]
                words_read += o_hi - o_lo
            else:
                seg_n = seg_l = nbr[:0]
            rem = rem_at.get(v)
            if rem:
                keep = ~np.isin(seg_n,
                                np.fromiter(rem, dtype=np.int64,
                                            count=len(rem)))
                seg_n, seg_l = seg_n[keep], seg_l[keep]
            adds = add_at.get(v)
            if adds:
                add_l = np.array([a[0] for a in adds], dtype=np.int64)
                add_n = np.array([a[1] for a in adds], dtype=np.int64)
                seg_n = np.concatenate([seg_n, add_n])
                seg_l = np.concatenate([seg_l, add_l])
                order = np.lexsort((seg_n, seg_l))
                seg_n, seg_l = seg_n[order], seg_l[order]
            d_lo = int(offsets[v])
            nbr[d_lo:d_lo + len(seg_n)] = seg_n
            elab[d_lo:d_lo + len(seg_l)] = seg_l
            words_written += len(seg_n)
            prev = v + 1
        if prev < n_old:
            o_lo, o_hi = int(self._offsets[prev]), \
                int(self._offsets[n_old])
            d_lo = int(offsets[prev])
            nbr[d_lo:d_lo + (o_hi - o_lo)] = self._nbr[o_lo:o_hi]
            elab[d_lo:d_lo + (o_hi - o_lo)] = self._elab[o_lo:o_hi]

        patched = object.__new__(LabeledGraph)
        patched._vlabels = vlabels
        patched._edge_map = edge_map
        patched._offsets = offsets
        patched._nbr = nbr
        patched._elab = elab
        patched._edge_label_freq = freq
        stats = CSRPatchStats(rows_spliced=len(touched),
                              words_read=words_read,
                              words_written=words_written)
        return patched, stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LabeledGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|LV|={len(set(self._vlabels.tolist()))}, "
            f"|LE|={len(self._edge_label_freq)})"
        )


class GraphBuilder:
    """Mutable accumulator that produces a :class:`LabeledGraph`."""

    def __init__(self) -> None:
        self._vlabels: List[int] = []
        self._edges: List[Edge] = []

    def add_vertex(self, label: int) -> int:
        """Add one vertex with ``label``; returns its id."""
        self._vlabels.append(int(label))
        return len(self._vlabels) - 1

    def add_vertices(self, labels: Iterable[int]) -> List[int]:
        """Add several vertices; returns their ids in order."""
        return [self.add_vertex(lab) for lab in labels]

    def add_edge(self, u: int, v: int, label: int) -> None:
        """Add one undirected labeled edge."""
        self._edges.append((int(u), int(v), int(label)))

    @property
    def num_vertices(self) -> int:
        return len(self._vlabels)

    def build(self) -> LabeledGraph:
        """Freeze into an immutable :class:`LabeledGraph`."""
        return LabeledGraph(self._vlabels, self._edges)


def triangle_query(vlabels: Tuple[int, int, int] = (0, 0, 0),
                   elabels: Tuple[int, int, int] = (0, 0, 0)) -> LabeledGraph:
    """A labeled triangle, the smallest cyclic query; handy in tests."""
    b = GraphBuilder()
    ids = b.add_vertices(vlabels)
    b.add_edge(ids[0], ids[1], elabels[0])
    b.add_edge(ids[1], ids[2], elabels[1])
    b.add_edge(ids[0], ids[2], elabels[2])
    return b.build()


def path_query(vlabels: Sequence[int], elabels: Optional[Sequence[int]] = None
               ) -> LabeledGraph:
    """A labeled path ``v0 - v1 - ... - vk``; handy in tests and examples."""
    if elabels is None:
        elabels = [0] * (len(vlabels) - 1)
    if len(elabels) != len(vlabels) - 1:
        raise GraphError("need exactly len(vlabels) - 1 edge labels")
    b = GraphBuilder()
    ids = b.add_vertices(vlabels)
    for i, lab in enumerate(elabels):
        b.add_edge(ids[i], ids[i + 1], lab)
    return b.build()
