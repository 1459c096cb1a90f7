"""A mutable overlay over an immutable :class:`LabeledGraph` snapshot.

:class:`DynamicGraph` accepts :class:`~repro.dynamic.delta.GraphDelta`
batches and answers the adjacency primitive ``N(v, l)`` *through* the
overlay, so readers always see base-snapshot-plus-pending-updates.
``commit()`` freezes the overlay into a fresh immutable snapshot (the
one every engine and the brute-force oracle understand) and reports the
net change set since the previous commit — exactly what incremental
index maintenance and delta matching consume.

Vertex ids are dense and stable: removing a vertex deletes its incident
edges but keeps its id (it becomes isolated), so match tuples stay
comparable across commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.arraytypes import Array
from repro.dynamic.delta import GraphDelta
from repro.errors import GraphError
from repro.gpusim.constants import LABEL_COMMIT_PATCH
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read
from repro.graph.labeled_graph import (
    CSRPatchStats,
    Edge,
    LabeledGraph,
    sorted_unique,
)

_EMPTY = np.empty(0, dtype=np.int64)


def _no_edges() -> Array:
    return np.empty((0, 3), dtype=np.int64)


def _edge_array(pairs: Dict[Tuple[int, int], int]) -> Array:
    """``pairs`` as ``(u, v, label)`` rows sorted by pair."""
    return np.array(sorted((u, v, lab) for (u, v), lab in pairs.items()),
                    dtype=np.int64).reshape(-1, 3)


@dataclass
class CommitResult:
    """Net effect of one :meth:`DynamicGraph.commit`, as arrays.

    ``inserted`` / ``deleted`` are ``(k, 3)`` int64 rows ``(u, v,
    label)`` with ``u < v``, sorted by pair, *net* against the previous
    snapshot: an edge deleted and re-added with the same label inside
    the window appears in neither; a relabel appears in both (delete
    old label, insert new).  ``touched`` holds, sorted, every vertex
    whose adjacency (hence signature) changed, new vertices included.
    Every maintenance stage reads these arrays; ``inserted_edges``,
    ``deleted_edges`` and ``touched_vertices`` derive the tuple and set
    forms from them.
    """

    snapshot: LabeledGraph
    inserted: Array = field(default_factory=_no_edges)
    deleted: Array = field(default_factory=_no_edges)
    new_vertices: List[int] = field(default_factory=list)
    touched: Array = field(default_factory=lambda: _EMPTY)
    #: CSR-splice accounting for this commit (zero rows == no-op commit)
    patch_stats: CSRPatchStats = field(default_factory=CSRPatchStats)
    #: simulated transactions the commit itself cost (O(changes))
    commit_transactions: int = 0

    @property
    def inserted_edges(self) -> List[Edge]:
        return [tuple(row) for row in self.inserted.tolist()]

    @property
    def deleted_edges(self) -> List[Edge]:
        return [tuple(row) for row in self.deleted.tolist()]

    @property
    def touched_vertices(self) -> Set[int]:
        """Vertices whose adjacency (hence signature) changed."""
        return set(self.touched.tolist())


class DynamicGraph:
    """Mutable graph = base snapshot + overlay of pending updates.

    The overlay is two maps keyed by ``(min, max)`` pair: the edges
    added and the base edges removed, each with its label.  The
    per-vertex view that :meth:`neighbors_by_label` and
    ``remove_vertex`` read is built from them on the first read after a
    mutation, so applying ops keeps only the two maps current.
    """

    def __init__(self, base: LabeledGraph,
                 meter: Optional[MemoryMeter] = None) -> None:
        self._base = base
        #: records commit-path transactions (labeled ``commit_patch``)
        self.meter = meter
        self._extra_labels: List[int] = []
        self._added: Dict[Tuple[int, int], int] = {}
        self._removed: Dict[Tuple[int, int], int] = {}
        #: ``(added, removed)`` by vertex, ``None`` until read after a
        #: mutation (:meth:`_by_vertex`)
        self._vertex_view: Optional[Tuple[Dict[int, Dict[int, int]],
                                          Dict[int, Set[int]]]] = None

    # ------------------------------------------------------------------
    # Read API (the LabeledGraph subset engines and tests need)
    # ------------------------------------------------------------------

    @property
    def base(self) -> LabeledGraph:
        """The snapshot the overlay is relative to."""
        return self._base

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices + len(self._extra_labels)

    @property
    def num_edges(self) -> int:
        return (self._base.num_edges - len(self._removed)
                + len(self._added))

    def vertex_label(self, v: int) -> int:
        nb = self._base.num_vertices
        if v < nb:
            return self._base.vertex_label(v)
        return self._extra_labels[v - nb]

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        if key in self._added:
            return True
        if key in self._removed:
            return False
        return (u < self._base.num_vertices and v < self._base.num_vertices
                and self._base.has_edge(u, v))

    def edge_label(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        if key in self._added:
            return self._added[key]
        if key in self._removed:
            raise GraphError(f"no edge between {u} and {v}")
        return self._base.edge_label(u, v)

    def neighbors_by_label(self, v: int, label: int) -> np.ndarray:
        """``N(v, l)`` through the overlay, sorted."""
        base = (self._base.neighbors_by_label(v, label)
                if v < self._base.num_vertices else _EMPTY)
        by_added, by_removed = self._by_vertex()
        removed = by_removed.get(v)
        added = by_added.get(v)
        if not removed and not added:
            return base
        keep = ([int(w) for w in base if int(w) not in removed]
                if removed else [int(w) for w in base])
        if added:
            keep.extend(w for w, lab in added.items() if lab == label)
        return np.array(sorted(keep), dtype=np.int64)

    def edges(self) -> Iterator[Edge]:
        """All live edges ``(u, v, label)`` with ``u < v``."""
        for u, v, lab in self._base.edges():
            if (u, v) not in self._removed:
                yield (u, v, lab)
        for (u, v), lab in self._added.items():
            yield (u, v, lab)

    @property
    def pending_ops(self) -> int:
        """Net overlay size (edges added + removed + vertices added)."""
        return len(self._added) + len(self._removed) + \
            len(self._extra_labels)

    def _by_vertex(self) -> Tuple[Dict[int, Dict[int, int]],
                                  Dict[int, Set[int]]]:
        """The overlay by vertex: ``added[v]`` maps each neighbor over
        an added edge to its label, ``removed[v]`` holds the neighbors
        over removed edges.  Built on the first read after a mutation."""
        if self._vertex_view is None:
            added: Dict[int, Dict[int, int]] = {}
            removed: Dict[int, Set[int]] = {}
            for (u, v), lab in self._added.items():
                added.setdefault(u, {})[v] = lab
                added.setdefault(v, {})[u] = lab
            for u, v in self._removed:
                removed.setdefault(u, set()).add(v)
                removed.setdefault(v, set()).add(u)
            self._vertex_view = (added, removed)
        return self._vertex_view

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply(self, delta: GraphDelta) -> None:
        """Apply one update batch to the overlay, in operation order.

        Raises :class:`~repro.errors.GraphError` on invalid operations
        (missing endpoints, self loops, duplicate edges, deleting a
        nonexistent edge); the overlay is left in the state reached just
        before the offending operation.
        """
        for op in delta.ops:
            kind = op[0]
            if kind == "add_vertex":
                self._extra_labels.append(int(op[1]))
            elif kind == "add_edge":
                _, u, v, lab = op
                n = self.num_vertices
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(
                        f"edge ({u}, {v}) references a missing vertex")
                if u == v:
                    raise GraphError(
                        f"self loop at vertex {u} is not allowed")
                if self.has_edge(u, v):
                    raise GraphError(
                        f"edge ({u}, {v}) already exists; remove it "
                        f"first to relabel")
                key = (u, v) if u < v else (v, u)
                self._vertex_view = None
                if self._removed.get(key) == lab:
                    # Net no-op: deletion and re-insertion cancel.
                    del self._removed[key]
                else:
                    self._added[key] = lab
            elif kind == "remove_edge":
                _, u, v = op
                if not self.has_edge(u, v):
                    raise GraphError(f"no edge between {u} and {v}")
                key = (u, v) if u < v else (v, u)
                self._vertex_view = None
                if key in self._added:
                    del self._added[key]
                else:
                    self._removed[key] = self._base.edge_label(*key)
            elif kind == "remove_vertex":
                v = op[1]
                if not 0 <= v < self.num_vertices:
                    raise GraphError(f"no vertex {v}")
                incident = [
                    (v, int(w)) for lab in self._incident_labels(v)
                    for w in self.neighbors_by_label(v, lab)
                ]
                inner = GraphDelta(
                    ops=[("remove_edge", a, b) for a, b in incident])
                self.apply(inner)
            else:
                raise GraphError(f"unknown delta operation {kind!r}")

    def discard_pending(self) -> None:
        """Drop every pending operation: the overlay is empty again and
        reads see the base snapshot."""
        self._extra_labels = []
        self._added = {}
        self._removed = {}
        self._vertex_view = None

    def _incident_labels(self, v: int) -> List[int]:
        labels: Set[int] = set()
        if v < self._base.num_vertices:
            labels.update(int(x) for x in self._base.incident_labels(v))
        added = self._by_vertex()[0].get(v)
        if added:
            labels.update(added.values())
        return sorted(labels)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self) -> CommitResult:
        """Freeze the overlay into a fresh snapshot and reset it.

        Returns the new snapshot plus the net change set since the last
        commit, as arrays; the overlay then tracks the new snapshot.
        The snapshot is produced by :meth:`LabeledGraph.apply_changes`
        — a CSR splice of the touched rows only — so a commit costs
        O(changes), not O(|E|); an empty overlay returns the base
        snapshot unchanged.  Commit transactions are recorded into
        ``self.meter`` (when set) under the label ``commit_patch`` and
        reported on the result.

        All or nothing: on any exception before it returns, the
        overlay is discarded and the base snapshot stays current, so no
        op of a failed commit leaks into the next one.
        """
        try:
            result = self._splice()
        except BaseException:
            self.discard_pending()
            raise
        self._base = result.snapshot
        self.discard_pending()
        return result

    def _splice(self) -> CommitResult:
        base = self._base
        inserted = _edge_array(self._added)
        deleted = _edge_array(self._removed)
        if not (len(inserted) or len(deleted) or self._extra_labels):
            return CommitResult(snapshot=base)
        snapshot, stats = base.apply_changes(inserted, deleted,
                                             self._extra_labels)
        # Price the splice: stream the touched rows' old words in and
        # their new words (plus one offset-row update each) back out.
        gld = contiguous_read(stats.words_read)
        gst = (contiguous_read(stats.words_written)
               + contiguous_read(stats.rows_spliced))
        if self.meter is not None:
            self.meter.add_gld(gld, label=LABEL_COMMIT_PATCH)
            self.meter.add_gst(gst)
        new_vertices = np.arange(base.num_vertices, snapshot.num_vertices,
                                 dtype=np.int64)
        return CommitResult(
            snapshot=snapshot, inserted=inserted, deleted=deleted,
            new_vertices=new_vertices.tolist(),
            touched=sorted_unique(np.concatenate(
                (inserted[:, :2].ravel(), deleted[:, :2].ravel(),
                 new_vertices))),
            patch_stats=stats, commit_transactions=gld + gst)


def full_commit_transactions(graph: LabeledGraph) -> int:
    """Transactions for committing by rebuilding the whole CSR snapshot
    (the pre-patch behavior the benchmark compares against): stream the
    edge list in and write both mirrored incidence arrays plus the
    offset array back out."""
    e, n = graph.num_edges, graph.num_vertices
    return (contiguous_read(3 * e)            # read (u, v, label) triples
            + contiguous_read(2 * 2 * e)      # write nbr + elab mirrors
            + contiguous_read(n + 1))         # write the offset array
