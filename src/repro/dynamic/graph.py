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

from repro.dynamic.delta import GraphDelta
from repro.errors import GraphError
from repro.gpusim.constants import LABEL_COMMIT_PATCH
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read
from repro.graph.labeled_graph import CSRPatchStats, Edge, LabeledGraph

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class CommitResult:
    """Net effect of one :meth:`DynamicGraph.commit`.

    ``inserted_edges`` / ``deleted_edges`` are *net* against the
    previous snapshot: an edge deleted and re-added with the same label
    inside the window appears in neither; a relabel appears in both
    (delete old label, insert new).
    """

    snapshot: LabeledGraph
    inserted_edges: List[Edge] = field(default_factory=list)
    deleted_edges: List[Edge] = field(default_factory=list)
    new_vertices: List[int] = field(default_factory=list)
    #: CSR-splice accounting for this commit (zero rows == no-op commit)
    patch_stats: CSRPatchStats = field(default_factory=CSRPatchStats)
    #: simulated transactions the commit itself cost (O(changes))
    commit_transactions: int = 0

    @property
    def touched_vertices(self) -> Set[int]:
        """Vertices whose adjacency (hence signature) changed."""
        touched: Set[int] = set(self.new_vertices)
        for u, v, _ in self.inserted_edges:
            touched.add(u)
            touched.add(v)
        for u, v, _ in self.deleted_edges:
            touched.add(u)
            touched.add(v)
        return touched


class DynamicGraph:
    """Mutable graph = base snapshot + overlay of pending updates."""

    def __init__(self, base: LabeledGraph,
                 meter: Optional[MemoryMeter] = None) -> None:
        self._base = base
        #: records commit-path transactions (labeled ``commit_patch``)
        self.meter = meter
        self._extra_labels: List[int] = []
        # Net overlay vs. the base snapshot, keyed by (min, max) pair.
        self._added: Dict[Tuple[int, int], int] = {}
        self._removed: Set[Tuple[int, int]] = set()
        # Per-vertex overlay adjacency for fast reads.
        self._adj_add: Dict[int, Dict[int, int]] = {}
        self._adj_rem: Dict[int, Set[int]] = {}

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
        removed = self._adj_rem.get(v)
        added = self._adj_add.get(v)
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

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _record_add(self, u: int, v: int, label: int) -> None:
        self._adj_add.setdefault(u, {})[v] = label
        self._adj_add.setdefault(v, {})[u] = label

    def _unrecord_add(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            nbrs = self._adj_add.get(a)
            if nbrs is not None:
                nbrs.pop(b, None)
                if not nbrs:
                    del self._adj_add[a]

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
                if key in self._removed and \
                        self._base.edge_label(*key) == lab:
                    # Net no-op: deletion and re-insertion cancel.
                    self._removed.discard(key)
                    rem_u = self._adj_rem.get(key[0])
                    rem_v = self._adj_rem.get(key[1])
                    if rem_u:
                        rem_u.discard(key[1])
                    if rem_v:
                        rem_v.discard(key[0])
                else:
                    self._added[key] = lab
                    self._record_add(key[0], key[1], lab)
            elif kind == "remove_edge":
                _, u, v = op
                if not self.has_edge(u, v):
                    raise GraphError(f"no edge between {u} and {v}")
                key = (u, v) if u < v else (v, u)
                if key in self._added:
                    del self._added[key]
                    self._unrecord_add(*key)
                else:
                    self._removed.add(key)
                    self._adj_rem.setdefault(key[0], set()).add(key[1])
                    self._adj_rem.setdefault(key[1], set()).add(key[0])
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
        self._removed = set()
        self._adj_add = {}
        self._adj_rem = {}

    def _incident_labels(self, v: int) -> List[int]:
        labels: Set[int] = set()
        if v < self._base.num_vertices:
            labels.update(int(x) for x in self._base.incident_labels(v))
        added = self._adj_add.get(v)
        if added:
            labels.update(added.values())
        return sorted(labels)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self) -> CommitResult:
        """Freeze the overlay into a fresh snapshot and reset it.

        Returns the new snapshot plus the net change set since the last
        commit; the overlay then tracks the new snapshot.  The snapshot
        is produced by :meth:`LabeledGraph.apply_changes` — a CSR splice
        of the touched rows only — so a commit costs O(changes), not
        O(|E|); an empty overlay returns the base snapshot unchanged.
        Commit transactions are recorded into ``self.meter`` (when set)
        under the label ``commit_patch`` and reported on the result.
        """
        base = self._base
        deleted = [(u, v, base.edge_label(u, v))
                   for (u, v) in sorted(self._removed)]
        inserted = [(u, v, lab)
                    for (u, v), lab in sorted(self._added.items())]
        new_vertices = list(range(base.num_vertices, self.num_vertices))

        if not (inserted or deleted or self._extra_labels):
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

        self._base = snapshot
        self.discard_pending()
        return CommitResult(snapshot=snapshot, inserted_edges=inserted,
                            deleted_edges=deleted,
                            new_vertices=new_vertices,
                            patch_stats=stats,
                            commit_transactions=gld + gst)


def full_commit_transactions(graph: LabeledGraph) -> int:
    """Transactions for committing by rebuilding the whole CSR snapshot
    (the pre-patch behavior the benchmark compares against): stream the
    edge list in and write both mirrored incidence arrays plus the
    offset array back out."""
    e, n = graph.num_edges, graph.num_vertices
    return (contiguous_read(3 * e)            # read (u, v, label) triples
            + contiguous_read(2 * 2 * e)      # write nbr + elab mirrors
            + contiguous_read(n + 1))         # write the offset array
