"""Signature table layout and the cost of scanning it (Fig. 8c vs 8d).

The table itself is identical under both layouts; what differs is the
memory-transaction count of the filtering scan:

* **row-first** (Fig. 8c): thread ``t`` reads the first word of signature
  ``t`` — consecutive threads touch addresses ``N/8`` bytes apart, so a
  warp's 32 reads hit many 128 B segments ("memory access gap").
* **column-first** (Fig. 8d): word ``j`` of all signatures is stored
  contiguously, so a warp's 32 reads of word ``j`` for 32 consecutive
  vertices coalesce into a single transaction.

The scan also exploits the Section VII-B refinement: word 0 (the raw
vertex label) is compared first, and only label-matching vertices read the
remaining words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.arraytypes import Array
from repro.gpusim.constants import (
    CYCLES_PER_GLD,
    CYCLES_PER_OP,
    WARP_SIZE,
)
from repro.gpusim.transactions import strided_read
from repro.graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class ScanCost:
    """Counted cost of filtering one query vertex over the table."""

    gld_transactions: int
    #: per-warp cycles, feeds the kernel scheduler
    warp_task_cycles: Tuple[int, ...]


class SignatureTable:
    """The data-graph signature table plus its scan cost model.

    Parameters
    ----------
    table:
        ``(num_vertices, words)`` uint32 array from
        :func:`repro.core.signature.encode_all`.
    column_first:
        Layout flag; affects cost only, never results.
    """

    def __init__(self, table: Array, column_first: bool = True) -> None:
        self.table = table
        self.column_first = column_first
        self.num_vertices = int(table.shape[0])
        self.words = int(table.shape[1])

    @classmethod
    def build(cls, graph: LabeledGraph, signature_bits: int,
              column_first: bool = True) -> "SignatureTable":
        """Encode all of ``graph`` (the paper does this offline)."""
        from repro.core.signature import encode_all

        return cls(encode_all(graph, signature_bits),
                   column_first=column_first)

    # ------------------------------------------------------------------

    def scan(self, sig_u: Array) -> Tuple[ScanCost, Array]:
        """Filter the table for ``sig_u``: its scan cost and candidates.

        Every warp handles 32 consecutive vertices.  All warps read word 0
        (the label); warps containing at least one label match read the
        remaining ``words - 1`` signature words for comparison.  The
        host follows the same order: one word-0 compare gives the label
        hits, whose warps set the cost, and then only the hits' words
        where ``sig_u`` has bits are read.  Returns the
        :class:`ScanCost` and the sorted candidate vertex ids.
        """
        n, w = self.num_vertices, self.words
        hits = np.flatnonzero(self.table[:, 0] == sig_u[0])
        if n == 0:
            return ScanCost(0, ()), hits
        # Row-first: a warp's 32 same-word reads are strided by the
        # signature width.
        word_tx = 1 if self.column_first else strided_read(WARP_SIZE, w)
        tx = np.full(math.ceil(n / WARP_SIZE), word_tx, dtype=np.int64)
        tx[hits // WARP_SIZE] = w * word_tx
        cycles = tx * CYCLES_PER_GLD + w * CYCLES_PER_OP
        cost = ScanCost(int(tx.sum()), tuple(cycles.tolist()))

        # A hit passes when its row holds every bit of sig_u's tail.
        for j in np.flatnonzero(sig_u[1:]).tolist():
            need = sig_u[j + 1]
            hits = hits[(self.table[hits, j + 1] & need) == need]
        return cost, hits
