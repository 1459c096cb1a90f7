"""Edge-oriented GPU join with the two-step output scheme.

This is the shared machinery of GpSM and GunrockSM (Section I, Example 1;
Section VIII).  Both engines:

1. collect *candidate edges* for each query edge — pairs ``(v1, v2)`` with
   matching endpoint labels where ``v2 ∈ N(v1, l)``;
2. join those edge tables along a spanning order of the query;
3. write every join result with the **two-step output scheme**: the join
   pass runs once to count results per warp, a prefix sum assigns output
   offsets, and the *same* join pass runs again to write — doubling the
   join work, which is exactly the overhead GSI's Prealloc-Combine
   removes.

Every kernel cost is scheduled on the same simulated device as GSI, so
Figure 12/13 comparisons are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.result import MatchResult, PhaseBreakdown
from repro.errors import BudgetExceeded, GraphError
from repro.gpusim.constants import (
    CLOCK_GHZ,
    CYCLES_PER_GLD,
    CYCLES_PER_OP,
    LABEL_JOIN,
)
from repro.gpusim.device import Device
from repro.gpusim.transactions import batched_write
from repro.graph.labeled_graph import LabeledGraph, concat_ranges
from repro.storage.base import Gathered

Row = Tuple[int, ...]


@dataclass(frozen=True)
class EdgeJoinCostProfile:
    """Cost-model knobs that differ between GpSM and GunrockSM."""

    candidate_probe_gld: int = 2
    """Transactions per membership probe of a candidate set (both engines
    binary-search sorted arrays; top levels cached)."""

    batched_intermediate_writes: bool = True
    """GpSM writes two-step results coalesced; Gunrock's generic
    filter/advance pipeline materializes frontier elements individually."""

    extra_pass_ops_per_row: int = 0
    """Extra per-row bookkeeping ops (Gunrock's frontier management)."""


class EdgeJoinEngine:
    """Base class: candidate-edge collection + two-step edge joins.

    Subclasses provide the filtering strategy and a cost profile.
    """

    name = "EdgeJoin"

    def __init__(self, graph: LabeledGraph,
                 budget_ms: Optional[float] = None,
                 max_intermediate_rows: Optional[int] = None,
                 storage_kind: str = "csr") -> None:
        self.graph = graph
        self.budget_ms = budget_ms
        self.max_intermediate_rows = max_intermediate_rows
        # GpSM/GunrockSM ship with plain CSR; the paper's conclusion
        # notes any N(v, l)-based matcher can adopt PCSR instead, which
        # `storage_kind="pcsr"` enables (see bench_ablation_pcsr_everywhere).
        from repro.storage.factory import build_storage
        self.store = build_storage(storage_kind, graph)
        self.profile = EdgeJoinCostProfile()

    # -- subclass hook ---------------------------------------------------

    def _filter(self, query: LabeledGraph,
                device: Device) -> Dict[int, np.ndarray]:
        raise NotImplementedError

    # ---------------------------------------------------------------------

    def _edge_order(self, query: LabeledGraph,
                    cand_sizes: Dict[int, int]) -> List[Tuple[int, int, int]]:
        """Spanning-style edge order: grow from the rarest vertex, always
        picking an edge with at least one covered endpoint."""
        edges = list(query.edges())
        if not edges:
            raise GraphError("query has no edges")
        covered: Set[int] = set()
        ordered: List[Tuple[int, int, int]] = []
        remaining = edges[:]

        def edge_score(e: Tuple[int, int, int]) -> float:
            return min(cand_sizes.get(e[0], 0), cand_sizes.get(e[1], 0))

        first = min(remaining, key=edge_score)
        ordered.append(first)
        remaining.remove(first)
        covered.update((first[0], first[1]))
        while remaining:
            connected = [e for e in remaining
                         if e[0] in covered or e[1] in covered]
            nxt = min(connected, key=edge_score)
            ordered.append(nxt)
            remaining.remove(nxt)
            covered.update((nxt[0], nxt[1]))
        return ordered

    def _gather_rows(self, vcol: np.ndarray, label: int, extra_ops: int
                     ) -> Tuple[Gathered, np.ndarray, List[float], int]:
        """One store gather for the distinct vertices of ``vcol`` (one
        per kernel row).  Returns the gather, each row's vertex index
        into it, and the rows' cycles and total GLD: every row locates
        and reads its list, probes the other side's candidates once per
        neighbor and spends one op per streamed element plus
        ``extra_ops``."""
        uniq, inv = np.unique(vcol, return_inverse=True)
        got = self.store.gather(uniq, label)
        tx = (got.locate + got.read
              + got.lens * self.profile.candidate_probe_gld)[inv]
        ops = got.streamed[inv] + extra_ops
        cycles = (tx * CYCLES_PER_GLD + ops * CYCLES_PER_OP).tolist()
        return got, inv, cycles, int(tx.sum())

    def _collect_candidate_edges(self, u1: int, u2: int, label: int,
                                 candidates: Dict[int, np.ndarray],
                                 device: Device) -> List[Tuple[int, int]]:
        """Candidate edge table for one query edge (two-step write)."""
        c1 = np.asarray(candidates[u1], dtype=np.int64)
        got, inv, cycles, gld = self._gather_rows(c1, label, 0)
        # Candidate edges come out row by row, each row's neighbors in
        # list order.
        lens = got.lens[inv]
        nbrs = got.concat[concat_ranges(got.starts[inv], lens)]
        hit = np.isin(nbrs, candidates[u2])
        pairs = list(zip(np.repeat(c1, lens)[hit].tolist(),
                         nbrs[hit].tolist()))
        # Two-step: count pass + write pass, identical read work.
        device.meter.add_gld(2 * gld, label=LABEL_JOIN)
        device.run_kernel(cycles, name=f"cand_edges_{u1}_{u2}_count")
        device.exclusive_prefix_sum([1] * max(1, len(c1)))
        device.run_kernel(cycles, name=f"cand_edges_{u1}_{u2}_write")
        device.meter.add_gst(batched_write(2 * len(pairs)))
        return pairs

    # ---------------------------------------------------------------------

    def _join_extend(self, rows: List[Row], columns: List[int],
                     u_from: int, u_new: int, label: int,
                     candidates: Dict[int, np.ndarray],
                     device: Device) -> List[Row]:
        """Extend M with a new query vertex through one query edge,
        running the per-row work twice (two-step scheme)."""
        col = columns.index(u_from)
        width = len(columns)
        prof = self.profile

        got, inv, cycles, gld_total = self._gather_rows(
            np.array([row[col] for row in rows], dtype=np.int64), label,
            prof.extra_pass_ops_per_row)
        in_cand = np.isin(got.concat, candidates[u_new])
        hits = [got.concat[s:s + n][in_cand[s:s + n]].tolist()
                for s, n in zip(got.starts.tolist(), got.lens.tolist())]
        per_row_results = [[x for x in hits[k] if x not in row]
                           for row, k in zip(rows, inv.tolist())]
        new_rows: List[Row] = []
        gst_total = 0
        # Pass 1: count.
        device.meter.add_gld(gld_total, label=LABEL_JOIN)
        device.run_kernel(cycles, name=f"join_{u_from}_{u_new}_count")
        device.exclusive_prefix_sum([len(f) for f in per_row_results])
        # Pass 2: identical work plus the output writes.
        device.meter.add_gld(gld_total, label=LABEL_JOIN)
        for row, found in zip(rows, per_row_results):
            if found:
                written = (width + 1) * len(found)
                gst_total += (batched_write(written)
                              if prof.batched_intermediate_writes
                              else written)
                for v2 in found:
                    new_rows.append(row + (v2,))
        device.meter.add_gst(gst_total)
        device.run_kernel(cycles, name=f"join_{u_from}_{u_new}_write")
        if (self.max_intermediate_rows is not None
                and len(new_rows) > self.max_intermediate_rows):
            raise BudgetExceeded("intermediate table overflow")
        return new_rows

    def _join_filter(self, rows: List[Row], columns: List[int],
                     u1: int, u2: int, label: int,
                     device: Device) -> List[Row]:
        """Semi-join: keep rows whose (u1, u2) pair is a real l-edge;
        per two-step, the check runs twice."""
        i1, i2 = columns.index(u1), columns.index(u2)
        prof = self.profile
        kept: List[Row] = []
        tx_per_row = prof.candidate_probe_gld
        cycles = [float(tx_per_row * CYCLES_PER_GLD)] * len(rows)
        for row in rows:
            a, b = int(row[i1]), int(row[i2])
            if self.graph.has_edge(a, b) and \
                    self.graph.edge_label(a, b) == label:
                kept.append(row)
        device.meter.add_gld(2 * tx_per_row * len(rows), label=LABEL_JOIN)
        device.run_kernel(cycles, name=f"filter_{u1}_{u2}_count")
        device.exclusive_prefix_sum([1] * max(1, len(rows)))
        device.run_kernel(cycles, name=f"filter_{u1}_{u2}_write")
        width = len(columns)
        device.meter.add_gst(batched_write(width * len(kept)))
        return kept

    # ---------------------------------------------------------------------

    def match(self, query: LabeledGraph) -> MatchResult:
        """All embeddings via candidate-edge collection + two-step joins."""
        device = Device(budget_cycles=(
            self.budget_ms * CLOCK_GHZ * 1e6
            if self.budget_ms is not None else None))
        result = MatchResult(engine=self.name)
        try:
            candidates = self._filter(query, device)
            result.candidate_sizes = {
                u: len(c) for u, c in candidates.items()}
            filter_ms = device.elapsed_ms
            if any(len(c) == 0 for c in candidates.values()):
                result.elapsed_ms = device.elapsed_ms
                result.phases = PhaseBreakdown(filter_ms=filter_ms)
                result.counters = device.meter.snapshot()
                return result

            order = self._edge_order(query, result.candidate_sizes)
            u1, u2, lab = order[0]
            pairs = self._collect_candidate_edges(
                u1, u2, lab, candidates, device)
            rows: List[Row] = [p for p in pairs if p[0] != p[1]]
            columns = [u1, u2]
            for (a, b, lab) in order[1:]:
                if not rows:
                    break
                a_in, b_in = a in columns, b in columns
                if a_in and b_in:
                    rows = self._join_filter(rows, columns, a, b, lab,
                                             device)
                elif a_in:
                    rows = self._join_extend(rows, columns, a, b, lab,
                                             candidates, device)
                    columns.append(b)
                else:
                    rows = self._join_extend(rows, columns, b, a, lab,
                                             candidates, device)
                    columns.append(a)

            perm = np.argsort(np.asarray(columns))
            result.matches = [tuple(int(r[j]) for j in perm) for r in rows]
            result.join_order = columns
            result.elapsed_ms = device.elapsed_ms
            result.phases = PhaseBreakdown(
                filter_ms=filter_ms,
                join_ms=device.elapsed_ms - filter_ms)
        except BudgetExceeded:
            result.matches = []
            result.timed_out = True
            result.elapsed_ms = device.elapsed_ms
        result.counters = device.meter.snapshot()
        return result
