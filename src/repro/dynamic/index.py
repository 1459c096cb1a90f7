"""Incremental maintenance of the engine's offline artifacts.

The paper builds the signature table and PCSR offline and treats them as
immutable; this module keeps both *live* under streaming updates:

* :class:`DynamicSignatureTable` re-encodes only the rows of vertices
  whose adjacency changed (a signature depends solely on the vertex's
  own label and its incident ``(edge label, neighbor label)`` pairs) and
  appends rows for new vertices.  A batch's touched rows are encoded in
  one :func:`~repro.core.signature.encode_rows` pass; the simulated
  cost is still charged per row (one adjacency stream and one row
  write each).
* :class:`DynamicPCSRStorage` applies each committed batch to every
  edge label at once, in one in-place pass over the stacked group layer
  (:meth:`~repro.storage.pcsr.GroupStack.apply`), and rebuilds a
  label's partition only when its occupancy passes the policy threshold
  or its empty-group pool runs dry (Claim 1 starvation); a batch with a
  bad delete raises before anything is written.

Both record their simulated memory transactions into one shared
:class:`~repro.gpusim.meter.MemoryMeter`, so "incremental maintenance
vs. full rebuild" is a measured comparison, not an assertion —
:func:`full_rebuild_transactions` prices the rebuild-everything
alternative in the same units.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.signature import encode_rows, num_words
from repro.core.signature_table import SignatureTable
from repro.dynamic.graph import CommitResult
from repro.errors import StorageError
from repro.gpusim.constants import LABEL_PCSR_REBUILD, LABEL_SIG_MAINTAIN
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read, contiguous_reads
from repro.graph.labeled_graph import (
    Edge,
    LabeledGraph,
    edge_rows,
    sorted_unique,
)
from repro.graph.partition import EdgeLabelPartition
from repro.storage.pcsr import PCSRPartition, PCSRStorage

#: rebuild a partition when keys-per-group exceeds this multiple of the
#: one-to-one design point (1.0 keys per group at build time)
DEFAULT_REBUILD_OCCUPANCY = 1.5

#: compact a partition's ci layer in place when the fraction of dead
#: (relocation-orphaned) words exceeds this
DEFAULT_COMPACT_DEAD_RATIO = 0.25

#: never compact below this many dead words (avoids thrashing tiny
#: partitions where one relocation trips the ratio)
MIN_COMPACT_DEAD_WORDS = 16


class DynamicSignatureTable:
    """Keeps a :class:`SignatureTable` current under graph updates.

    Mutates the wrapped table in place (rows and ``num_vertices``), so
    an engine holding the same instance sees updates immediately.
    """

    def __init__(self, table: SignatureTable, signature_bits: int,
                 meter: Optional[MemoryMeter] = None) -> None:
        self.table = table
        self.signature_bits = signature_bits
        self.meter = meter
        self.rows_updated = 0
        # Geometric over-allocation: the wrapped table's `table` array
        # is a view of this buffer's live prefix, so growing by one
        # vertex is O(1) amortized, not a full-table copy per batch.
        self._buf = table.table

    def row_transactions(self) -> int:
        """Transactions to read or write one table row (layout shape is
        the same either way)."""
        return self._row_write_transactions()

    def _row_write_transactions(self) -> int:
        # Column-first scatters one row across `words` distinct columns
        # (one transaction each); row-first keeps the row contiguous.
        w = num_words(self.signature_bits)
        if self.table.column_first:
            return w
        return max(1, math.ceil(w * 4 / 128))

    def apply(self, graph: LabeledGraph,
              touched_vertices: Iterable[int]) -> int:
        """Re-encode ``touched_vertices`` rows (an array, as
        :attr:`CommitResult.touched`, or any iterable; repeats count
        once) against ``graph``.

        Grows the table first when ``graph`` has new vertices.  Returns
        the number of rows written.
        """
        inner = self.table
        n = graph.num_vertices
        if n > inner.num_vertices:
            if n > len(self._buf):
                capacity = max(n, 2 * len(self._buf))
                buf = np.zeros((capacity, inner.words), dtype=np.uint32)
                buf[:inner.num_vertices] = \
                    self._buf[:inner.num_vertices]
                self._buf = buf
            inner.table = self._buf[:n]
            inner.num_vertices = n
        verts = sorted_unique(
            touched_vertices if isinstance(touched_vertices, np.ndarray)
            else np.fromiter(touched_vertices, dtype=np.int64))
        rows = len(verts)
        if rows:
            inner.table[verts] = encode_rows(graph, verts, self.signature_bits)
            if self.meter is not None:
                # Re-encoding streams each vertex's adjacency (at least
                # one transaction) and writes one table row.
                offsets = graph.incidence()[0]
                streamed = contiguous_reads(offsets[verts + 1]
                                            - offsets[verts])
                self.meter.add_gld(int(np.maximum(1, streamed).sum()),
                                   label=LABEL_SIG_MAINTAIN)
                self.meter.add_gst(rows * self._row_write_transactions())
        self.rows_updated += rows
        return rows


def _directed(edges: Iterable[Edge]) -> np.ndarray:
    """``(u, v, label)`` edges (an array, or triples) as ``(key,
    neighbor, label)`` rows, both orientations of each edge."""
    arr = edge_rows(edges)
    return np.concatenate((arr, arr[:, [1, 0, 2]]))


class DynamicPCSRStorage(PCSRStorage):
    """PCSR over every edge-label partition, maintained in place.

    The read path (``N(v, l)``, transaction accounting) is inherited
    from :class:`~repro.storage.pcsr.PCSRStorage` unchanged — a
    :class:`~repro.core.engine.GSIEngine` joins straight out of this
    store; what this subclass adds is the update path.  Its group layer
    starts with the headroom one growth step leaves (1.5x the rows
    built), so rebuilt and new labels fit in place until the layer
    has grown by half.
    """

    kind = "dynamic-pcsr"
    _grows_in_place = True

    def __init__(self, graph: LabeledGraph, gpn: int = 16,
                 compact_dead_ratio: float = DEFAULT_COMPACT_DEAD_RATIO,
                 meter: Optional[MemoryMeter] = None) -> None:
        super().__init__(graph, gpn=gpn)
        self.compact_dead_ratio = compact_dead_ratio
        self.meter = meter if meter is not None else MemoryMeter()
        self.rebuilds = 0
        self.incremental_ops = 0
        self.compactions = 0
        self.words_reclaimed = 0

    # --- Update path ----------------------------------------------------

    def _rebuild_partition(self, partition: EdgeLabelPartition) -> None:
        """Full Algorithm-1 rebuild of one partition, metered, straight
        into its rows of the group layer."""
        part = PCSRPartition(partition, gpn=self.gpn, stack=self._stack)
        self._parts[partition.label] = part
        self.rebuilds += 1
        # Price the rebuild: stream the old structure out and the new
        # structure (group layer + ci) back in.
        meter = self.meter
        meter.add_gld(contiguous_read(part.groups.size + len(part.ci)),
                      label=LABEL_PCSR_REBUILD)
        meter.add_gst(contiguous_read(part.groups.size)
                      + contiguous_read(len(part.ci)))

    def _maybe_compact(self, label: int) -> None:
        """Fire the dead-space-ratio compaction policy on one partition:
        when relocation-orphaned words exceed ``compact_dead_ratio`` of
        the ci layer (and the floor), slide the live regions together in
        place — the explicit reclamation that bounds ci growth between
        occupancy rebuilds."""
        part = self._parts[label]
        if (part.dead_words() >= MIN_COMPACT_DEAD_WORDS
                and part.dead_ratio() > self.compact_dead_ratio):
            self.words_reclaimed += part.compact(self.meter)
            self.compactions += 1

    def apply_batch(self, graph: LabeledGraph, inserted_edges,
                    deleted_edges) -> None:
        """Apply one committed batch in one maintenance pass.

        ``graph`` is the committed snapshot: this store with the batch
        applied.  ``inserted_edges`` / ``deleted_edges`` are ``(u, v,
        label)`` rows: the commit's ``(k, 3)`` arrays
        (:class:`~repro.dynamic.graph.CommitResult`), or any iterables
        of triples.  The batch's directed ``(key, neighbor, label)``
        entries for every partitioned label go through one
        :meth:`~repro.storage.pcsr.GroupStack.apply` — one chain walk
        over all touched (label, key) pairs, one merge + rewrite of the
        affected group regions.  A label whose new keys would push its
        occupancy past :data:`DEFAULT_REBUILD_OCCUPANCY`, or whose new
        keys starve Claim 1, is left to a rebuild from ``graph``'s
        incidence of that label; a new label's partition is built from
        it the same way.  Both are built straight into their rows of the
        stacked group layer, which shifts only the rows of the labels
        after them (:class:`~repro.storage.pcsr.GroupStack`).
        Afterwards the dead-space policy may compact each applied label.

        All or nothing: a delete on a label that has no partition, or
        of a missing key or neighbor on any label, raises
        :class:`StorageError` before anything is written, built,
        rebuilt or charged.
        :class:`~repro.dynamic.stream.StreamEngine` never reaches it,
        because :meth:`~repro.dynamic.graph.DynamicGraph.apply`
        validates deletes first.
        """
        ins, dels = _directed(inserted_edges), _directed(deleted_edges)
        removed = set(dels[:, 2].tolist())
        unknown = sorted(removed - self._parts.keys())
        if unknown:
            raise StorageError(f"no partition for edge label {unknown[0]}")
        fresh = sorted(set(ins[:, 2].tolist()) - self._parts.keys())
        if fresh:
            ins = ins[~np.isin(ins[:, 2], fresh)]
        rebuild = self._stack.apply(ins, dels, self.meter,
                                    max_occupancy=DEFAULT_REBUILD_OCCUPANCY)
        applied = (set(ins[:, 2].tolist()) | removed) - set(rebuild)
        ops = len(ins) + len(dels)
        if rebuild:
            ops -= int(np.isin(ins[:, 2], rebuild).sum()
                       + np.isin(dels[:, 2], rebuild).sum())
        self.incremental_ops += ops
        for lab in fresh:
            part = PCSRPartition(EdgeLabelPartition.of_label(graph, lab),
                                 gpn=self.gpn, stack=self._stack)
            self._parts[lab] = part
            self.meter.add_gst(contiguous_read(part.groups.size)
                               + contiguous_read(len(part.ci)))
        for lab in rebuild:
            # Left untouched by the pass; the snapshot holds the whole
            # delta.
            self._rebuild_partition(EdgeLabelPartition.of_label(graph, lab))
        for lab in sorted(applied):
            self._maybe_compact(lab)

    def stats(self) -> Dict[str, object]:
        """PCSR health plus maintenance counters (compactions fired,
        rebuilds, words reclaimed) for reports and the CLI."""
        out = super().stats()
        out.update(rebuilds=self.rebuilds,
                   compactions=self.compactions,
                   words_reclaimed=self.words_reclaimed,
                   incremental_ops=self.incremental_ops,
                   compact_dead_ratio=self.compact_dead_ratio)
        return out

    def validate(self) -> Dict[int, list]:
        """Per-label structural violations (empty when healthy)."""
        out = {}
        for lab, part in self._parts.items():
            problems = part.validate()
            if problems:
                out[lab] = problems
        return out


class DynamicIndex:
    """All engine artifacts, kept live under committed update batches."""

    def __init__(self, graph: LabeledGraph, signature_bits: int = 512,
                 column_first: bool = True, gpn: int = 16,
                 compact_dead_ratio: float = DEFAULT_COMPACT_DEAD_RATIO
                 ) -> None:
        self.meter = MemoryMeter()
        self.signature_table = SignatureTable.build(
            graph, signature_bits, column_first=column_first)
        self.signatures = DynamicSignatureTable(
            self.signature_table, signature_bits, meter=self.meter)
        self.storage = DynamicPCSRStorage(
            graph, gpn=gpn, compact_dead_ratio=compact_dead_ratio,
            meter=self.meter)

    def apply_commit(self, commit: CommitResult) -> None:
        """Maintain every artifact for one committed batch: PCSR
        in one maintenance pass over every edge label, then the touched
        signature rows."""
        self.storage.apply_batch(commit.snapshot, commit.inserted,
                                 commit.deleted)
        self.signatures.apply(commit.snapshot, commit.touched)

    @property
    def rebuilds(self) -> int:
        return self.storage.rebuilds

    @property
    def compactions(self) -> int:
        return self.storage.compactions


def full_rebuild_transactions(graph: LabeledGraph,
                              signature_bits: int = 512,
                              gpn: int = 16) -> int:
    """Transactions to rebuild every artifact from scratch (the
    rebuild-and-rerun alternative the benchmark compares against).

    Prices writing the whole signature table plus, per edge-label
    partition, the PCSR group layer and ci — without constructing
    anything.
    """
    words = num_words(signature_bits)
    total = contiguous_read(graph.num_vertices * words)
    per_label_vertices: Dict[int, set] = {}
    per_label_entries: Dict[int, int] = {}
    for u, v, lab in graph.edges():
        per_label_vertices.setdefault(lab, set()).update((u, v))
        per_label_entries[lab] = per_label_entries.get(lab, 0) + 2
    for lab, verts in per_label_vertices.items():
        group_words = max(1, len(verts)) * gpn * 2
        total += contiguous_read(group_words)
        total += contiguous_read(per_label_entries[lab])
    return total
