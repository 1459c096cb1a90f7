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

#: a spliced snapshot folds its changed pairs into a fresh base edge map
#: once it holds more than this many
EDGE_CHANGES_FOLD = 2048


def concat_ranges(starts: Array, lengths: Array) -> Array:
    """Indices of the half-open ranges ``[starts[i], starts[i] +
    lengths[i])``, concatenated in order: the gather that reads many
    CSR segments at once."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    skip = np.cumsum(lengths) - lengths - starts
    return np.arange(total, dtype=np.int64) - np.repeat(skip, lengths)


def sorted_lookup(haystack: Array, codes: Array) -> Tuple[Array, Array]:
    """Where each of ``codes`` sits in the sorted ``haystack``: its
    insertion point, and whether it is already there."""
    pos = np.searchsorted(haystack, codes)
    if not len(haystack):
        return pos, np.zeros(len(codes), dtype=bool)
    return pos, haystack[np.minimum(pos, len(haystack) - 1)] == codes


def sorted_unique(values: Array) -> Array:
    """The sorted distinct values of a 1-D array: ``np.unique`` without
    its fixed cost, which dominates on the small arrays of one update
    batch."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def edge_rows(edges: Iterable[Edge]) -> Array:
    """``(u, v, label)`` triples as a ``(k, 3)`` int64 array; an int64
    array passes through without a copy."""
    rows = np.asarray(edges if isinstance(edges, np.ndarray)
                      else list(edges), dtype=np.int64)
    if rows.size == 0:
        return rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise GraphError("edges must be (u, v, label) triples")
    return rows


@dataclass(frozen=True)
class CSRPatchStats:
    """Work accounting for one :meth:`LabeledGraph.apply_changes` call.

    Only *touched* rows count: the CSR splice streams each changed
    vertex's old incidence segment in and its new segment out, so these
    numbers scale with the change set, not with ``|E|``.  (The untouched
    remainder of the arrays is shared wholesale — on a device that is a
    buffer reuse / copy-on-write, not a stream.  The host edge map is
    shared too: the snapshot reads its parent's base map and keeps only
    the pairs changed since that base.)
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

        edge_arr = edge_rows(edges)
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
        self._edge_changes: Dict[Tuple[int, int], Optional[int]] = {}

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
        return len(self._nbr) // 2

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

    # The edge map is a base ``{(u, v): label}`` dict, shared by every
    # snapshot spliced from it and never mutated, plus this graph's own
    # pairs changed since that base (``None`` for a deleted pair); each
    # lookup reads the changes first.

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge exists between ``u`` and ``v``."""
        key = (u, v) if u < v else (v, u)
        if key in self._edge_changes:
            return self._edge_changes[key] is not None
        return key in self._edge_map

    def edge_label(self, u: int, v: int) -> int:
        """Label of the edge between ``u`` and ``v``.

        Raises :class:`~repro.errors.GraphError` if no such edge exists.
        """
        label = self.get_edge_label(u, v)
        if label is None:
            raise GraphError(f"no edge between {u} and {v}")
        return label

    def get_edge_label(self, u: int, v: int) -> Optional[int]:
        """Label of the edge between ``u`` and ``v``, or ``None`` when
        there is none, for callers testing many pairs."""
        key = (u, v) if u < v else (v, u)
        if key in self._edge_changes:
            return self._edge_changes[key]
        return self._edge_map.get(key)

    def edges(self) -> Iterator[Edge]:
        """Iterate ``(u, v, label)`` with ``u < v`` in insertion order:
        a relabeled or re-inserted pair comes at its last insert."""
        changes = self._edge_changes
        for key, lab in self._edge_map.items():
            if key not in changes:
                yield (key[0], key[1], lab)
        for key, changed in changes.items():
            if changed is not None:
                yield (key[0], key[1], changed)

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

    @classmethod
    def _from_csr(cls, vlabels: Array, offsets: Array, nbr: Array,
                  elab: Array, edge_map: Dict[Tuple[int, int], int],
                  edge_label_freq: Dict[int, int],
                  edge_changes: Optional[
                      Dict[Tuple[int, int], Optional[int]]] = None,
                  ) -> "LabeledGraph":
        """A graph from an already valid CSR layout and its metadata,
        skipping validation (the splice and shared-memory attach).
        ``edge_map`` is the base edge map and ``edge_changes`` the pairs
        changed since it (none when not given)."""
        graph = object.__new__(cls)
        graph._vlabels = vlabels
        graph._offsets = offsets
        graph._nbr = nbr
        graph._elab = elab
        graph._edge_map = edge_map
        graph._edge_changes = {} if edge_changes is None else edge_changes
        graph._edge_label_freq = edge_label_freq
        return graph

    def apply_changes(self, inserted: Iterable[Edge],
                      deleted: Iterable[Edge],
                      new_vertex_labels: Sequence[int] = (),
                      ) -> Tuple["LabeledGraph", CSRPatchStats]:
        """New graph = this graph plus a *net* change set, by CSR splice.

        ``inserted`` and ``deleted`` are ``(u, v, label)`` triples net
        against this graph (a relabel appears in both): ``(k, 3)`` int64
        arrays, as :meth:`repro.dynamic.graph.DynamicGraph.commit` passes
        them, or any iterables of triples.  Only the rows of touched
        vertices are re-derived, in whole-batch array passes: one gather
        of the touched rows, one pair-code filter of the deleted entries,
        and one merge of the inserted ones.  The kept entries are already
        in ``(row, edge_label, neighbor)`` order, so only the inserted
        entries are sorted, and each is inserted at its ``searchsorted``
        position.  The untouched rows move into the new arrays with one
        masked copy.  The simulated work and the returned
        :class:`CSRPatchStats` scale with the change set, which is what
        makes
        :meth:`repro.dynamic.graph.DynamicGraph.commit` O(changes)
        instead of O(|E|).

        The edge map is not copied either: the new graph shares this
        graph's base map, which nothing mutates, and holds its own map
        of the pairs changed since that base.  Once those pass
        :data:`EDGE_CHANGES_FOLD`, this call folds them into a fresh
        base with one copy.  ``edges()`` keeps the order a whole-map
        copy would have.

        Raises :class:`~repro.errors.GraphError`, before any splice
        work, when a deletion names a missing edge (or the wrong label)
        or repeats a pair, an insertion repeats a pair or duplicates a
        surviving edge, or an endpoint is out of range.  The checks run
        as batched lookups over the whole change set; only when one
        fails does a per-edge pass (deletions first, then insertions,
        each in input order) find the first bad change to name.
        """
        n_old = self.num_vertices
        extra = np.asarray(list(new_vertex_labels), dtype=np.int64)
        n = n_old + len(extra)
        ins, dels = edge_rows(inserted), edge_rows(deleted)

        # --- Normalize + validate the change set (O(changes)). --------
        d_lo, d_hi = np.minimum(dels[:, 0], dels[:, 1]), \
            np.maximum(dels[:, 0], dels[:, 1])
        i_lo, i_hi = np.minimum(ins[:, 0], ins[:, 1]), \
            np.maximum(ins[:, 0], ins[:, 1])
        del_keys = list(zip(d_lo.tolist(), d_hi.tolist()))
        ins_keys = list(zip(i_lo.tolist(), i_hi.tolist()))
        del_labels, ins_labels = dels[:, 2].tolist(), ins[:, 2].tolist()
        dead = set(del_keys)
        if (len(dead) < len(del_keys)
                or self._labels_of(del_keys) != del_labels
                or (len(ins) and (i_lo.min() < 0 or i_hi.max() >= n
                                  or (i_lo == i_hi).any()))
                or len(set(ins_keys)) < len(ins_keys)
                or any(have is not None and key not in dead for key, have
                       in zip(ins_keys, self._labels_of(ins_keys)))):
            self._raise_first_bad_change(ins.tolist(), dels.tolist(), n)

        if not del_keys and not ins_keys and not len(extra):
            return self, CSRPatchStats()

        # --- Both orientations of every changed edge (O(changes)). ----
        del_src = np.concatenate((d_lo, d_hi))
        del_dst = np.concatenate((d_hi, d_lo))
        ins_src = np.concatenate((i_lo, i_hi))
        ins_dst = np.concatenate((i_hi, i_lo))
        ins_lab = np.concatenate((ins[:, 2], ins[:, 2]))
        touched = sorted_unique(np.concatenate(
            (del_src, ins_src, np.arange(n_old, n, dtype=np.int64))))

        # --- Metadata: labels, changed pairs, label frequencies. -------
        vlabels = (np.concatenate([self._vlabels, extra]) if len(extra)
                   else self._vlabels)
        base = self._edge_map
        changes = self._edge_changes.copy()
        freq = dict(self._edge_label_freq)
        for key, lab in zip(del_keys, del_labels):
            if key in base:
                changes[key] = None
            else:
                del changes[key]
            freq[lab] -= 1
            if not freq[lab]:
                del freq[lab]
        for key, lab in zip(ins_keys, ins_labels):
            # A re-inserted pair moves to the end, where ``edges()``
            # yields it.
            changes.pop(key, None)
            changes[key] = lab
            freq[lab] = freq.get(lab, 0) + 1
        if len(changes) > EDGE_CHANGES_FOLD:
            # ``copy()`` clones the hash table; ``dict()`` would
            # re-insert every key once the map holds deleted slots.
            base = base.copy()
            for key, changed in changes.items():
                base.pop(key, None)
                if changed is not None:
                    base[key] = changed
            changes = {}

        # --- Offsets: adjust touched degrees, re-prefix-sum. ----------
        deg = np.zeros(n, dtype=np.int64)
        deg[:n_old] = np.diff(self._offsets)
        deg += (np.bincount(ins_src, minlength=n)
                - np.bincount(del_src, minlength=n))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=offsets[1:])

        # --- Touched rows: gather, drop deleted pairs, merge inserts. -
        # An entry's row is its position in ``touched``; the old rows
        # are its prefix.
        old_rows = touched[touched < n_old]
        starts = self._offsets[old_rows]
        lens = self._offsets[old_rows + 1] - starts
        at = concat_ranges(starts, lens)
        row = np.repeat(np.arange(len(old_rows), dtype=np.int64), lens)
        seg_n = self._nbr[at]
        seg_l = self._elab[at]
        if len(del_src):
            # (row, neighbor) pair codes identify entries uniquely.
            _, gone = sorted_lookup(
                np.sort(np.searchsorted(touched, del_src) * n + del_dst),
                row * n + seg_n)
            row, seg_n, seg_l = row[~gone], seg_n[~gone], seg_l[~gone]
        if len(ins_src):
            # The kept entries are sorted by (row, label rank, neighbor)
            # codes; sort the inserted ones and merge them in.
            labels = np.array(sorted(freq), dtype=np.int64)

            def codes(rows: Array, labs: Array, nbrs: Array) -> Array:
                return ((rows * len(labels) + np.searchsorted(labels, labs))
                        * n + nbrs)

            add = codes(np.searchsorted(touched, ins_src), ins_lab, ins_dst)
            order = np.argsort(add)
            pos, _ = sorted_lookup(codes(row, seg_l, seg_n), add[order])
            seg_n = np.insert(seg_n, pos, ins_dst[order])
            seg_l = np.insert(seg_l, pos, ins_lab[order])

        # --- Splice: one masked copy of the untouched rows. -----------
        total = int(offsets[n])
        nbr = np.empty(total, dtype=np.int64)
        elab = np.empty(total, dtype=np.int64)
        src = np.ones(len(self._nbr), dtype=bool)
        src[at] = False
        spliced = concat_ranges(offsets[touched], deg[touched])
        dest = np.ones(total, dtype=bool)
        dest[spliced] = False
        nbr[dest] = self._nbr[src]
        elab[dest] = self._elab[src]
        nbr[spliced] = seg_n
        elab[spliced] = seg_l

        patched = LabeledGraph._from_csr(vlabels, offsets, nbr, elab,
                                         base, freq, changes)
        stats = CSRPatchStats(rows_spliced=len(touched),
                              words_read=int(lens.sum()),
                              words_written=len(seg_n))
        return patched, stats

    def _labels_of(self, keys: List[Tuple[int, int]]
                   ) -> List[Optional[int]]:
        """:meth:`get_edge_label` of every normalized pair in ``keys``."""
        changes, base = self._edge_changes, self._edge_map
        return [changes[key] if key in changes else base.get(key)
                for key in keys]

    def _raise_first_bad_change(self, inserted: List[List[int]],
                                deleted: List[List[int]], n: int) -> None:
        """Raise the :class:`~repro.errors.GraphError` of the first bad
        change: deletions first, then insertions, each in input order
        (``n`` counts the new vertices too)."""
        dead: Set[Tuple[int, int]] = set()
        for u, v, lab in deleted:
            key = (u, v) if u < v else (v, u)
            if key in dead:
                raise GraphError(f"edge {key} deleted twice")
            have = self.get_edge_label(*key)
            if have is None:
                raise GraphError(f"no edge between {key[0]} and {key[1]}")
            if have != lab:
                raise GraphError(
                    f"edge {key} carries label {have}, not {lab}")
            dead.add(key)
        born: Set[Tuple[int, int]] = set()
        for u, v, lab in inserted:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(
                    f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise GraphError(f"self loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in born:
                raise GraphError(f"edge {key} inserted twice")
            if self.has_edge(*key) and key not in dead:
                raise GraphError(
                    f"edge {key} already exists; delete it first to "
                    f"relabel")
            born.add(key)

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
