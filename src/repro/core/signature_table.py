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
from repro.core.signature import candidate_mask
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

    def filter(self, sig_u: Array) -> Array:
        """Candidate vertex ids for a query signature (functional)."""
        return np.nonzero(candidate_mask(self.table, sig_u))[0]

    def scan_cost(self, sig_u: Array) -> ScanCost:
        """Transaction/cycle cost of one full scan for ``sig_u``.

        Every warp handles 32 consecutive vertices.  All warps read word 0
        (the label); warps containing at least one label match read the
        remaining ``words - 1`` signature words for comparison.
        """
        n, w = self.num_vertices, self.words
        if n == 0:
            return ScanCost(0, ())
        label_hits = self.table[:, 0] == sig_u[0]
        num_warps = math.ceil(n / WARP_SIZE)

        pad = num_warps * WARP_SIZE - n
        hits_padded = np.pad(label_hits, (0, pad))
        warp_has_hit = hits_padded.reshape(num_warps, WARP_SIZE).any(axis=1)

        total_gld = 0
        task_cycles = []
        for warp in range(num_warps):
            if self.column_first:
                word0_tx = 1
                tail_tx = (w - 1) if warp_has_hit[warp] else 0
            else:
                # Row-first: a warp's 32 same-word reads are strided by
                # the signature width.
                word0_tx = strided_read(WARP_SIZE, w)
                tail_tx = ((w - 1) * strided_read(WARP_SIZE, w)
                           if warp_has_hit[warp] else 0)
            tx = word0_tx + tail_tx
            total_gld += tx
            task_cycles.append(tx * CYCLES_PER_GLD + w * CYCLES_PER_OP)
        return ScanCost(total_gld, tuple(task_cycles))
