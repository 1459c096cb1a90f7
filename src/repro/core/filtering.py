"""Filtering phase: candidate set generation (Section III-A).

For each query vertex ``u`` the data-graph signature table is scanned in a
massively parallel fashion; vertices whose label equals ``u``'s and whose
signature contains ``S(u)`` (:mod:`repro.core.signature`'s filtering
rule, applied by :meth:`~repro.core.signature_table.SignatureTable.scan`)
form ``C(u)``.  The scan's memory cost depends on the table layout (see
:mod:`repro.core.signature_table`); its *natural load balance* — every
thread reads a fixed-length signature — is why filtering is cheap on GPU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.arraytypes import Array
from repro.core.signature import encode_vertex
from repro.core.signature_table import SignatureTable
from repro.gpusim.constants import LABEL_FILTER
from repro.gpusim.device import Device
from repro.graph.labeled_graph import LabeledGraph

if TYPE_CHECKING:  # avoid a runtime core <-> service import cycle
    from repro.service.plan_cache import CandidateShapeCache


def filter_candidates(query: LabeledGraph, table: SignatureTable,
                      device: Device, signature_bits: int,
                      shape_cache: Optional[CandidateShapeCache] = None
                      ) -> Dict[int, Array]:
    """Compute ``C(u)`` for every query vertex, metering the scan.

    Query signatures are computed online (cheap: |V(Q)| encodings); each
    query vertex then launches one scan kernel over the table.

    ``shape_cache`` (a :class:`~repro.service.plan_cache.
    CandidateShapeCache`) memoizes the *host-side* table scan per
    encoded signature: repeated query labels reuse the candidate array
    and scan cost instead of re-scanning.  The memoized cost is still
    charged to ``device``, so simulated measurements are unchanged.

    Returns a dict mapping query vertex id to a sorted candidate array
    (read-only when it came from the shape cache).
    """
    candidates: Dict[int, Array] = {}
    if shape_cache is not None:
        # Candidate ids are only meaningful against this table; a memo
        # previously bound to a different table is dropped wholesale.
        shape_cache.bind(table)
    for u in range(query.num_vertices):
        sig_u = encode_vertex(query, u, signature_bits)
        key = sig_u.tobytes()
        cached = (shape_cache.lookup(key, owner=table)
                  if shape_cache is not None else None)
        cost, cand = cached if cached is not None else table.scan(sig_u)
        device.meter.add_gld(cost.gld_transactions, label=LABEL_FILTER)
        device.run_kernel(cost.warp_task_cycles, name=f"filter_u{u}")
        if cached is None and shape_cache is not None:
            # Stored only once the kernel has run: a scan the budget
            # aborts (BudgetExceeded from run_kernel) never completed
            # on the simulated device, so it leaves no entry, and the
            # memo holds only scans that a query paid for in full.
            shape_cache.store(key, cost, cand, owner=table)
        candidates[u] = cand
    return candidates


def label_degree_candidates(query: LabeledGraph, graph: LabeledGraph,
                            device: Device,
                            check_neighbor_labels: bool = False
                            ) -> Dict[int, Array]:
    """The GpSM / GunrockSM filtering strategy (used in Table IV).

    Candidates are vertices with the same label and at least the query
    vertex's degree.  With ``check_neighbor_labels=True`` (GpSM's extra
    refinement pass) each surviving candidate additionally must carry all
    of the query vertex's incident edge labels, at the cost of streaming
    its full neighborhood.
    """
    degrees = np.array([graph.degree(v) for v in range(graph.num_vertices)],
                       dtype=np.int64)
    labels = graph.vertex_labels
    candidates: Dict[int, Array] = {}
    for u in range(query.num_vertices):
        mask = (labels == query.vertex_label(u)) & \
               (degrees >= query.degree(u))
        cand = np.nonzero(mask)[0]
        # Scan cost: one label word + one degree word per vertex,
        # coalesced: 2 transactions per warp of 32 vertices.
        num_warps = (graph.num_vertices + 31) // 32
        device.meter.add_gld(2 * num_warps, label=LABEL_FILTER)
        device.run_kernel([2 * 400.0] * num_warps, name=f"ld_filter_u{u}")

        if check_neighbor_labels and len(cand):
            required = set(int(l) for l in query.incident_labels(u))
            keep = []
            extra_tasks = []
            for v in cand:
                v = int(v)
                have = set(int(l) for l in graph.incident_labels(v))
                if required <= have:
                    keep.append(v)
                # Streaming the neighborhood's label array: deg/32 txns.
                tx = max(1, (graph.degree(v) + 31) // 32)
                device.meter.add_gld(tx, label=LABEL_FILTER)
                extra_tasks.append(tx * 400.0)
            if extra_tasks:
                device.run_kernel(extra_tasks, name=f"refine_u{u}")
            cand = np.array(keep, dtype=np.int64)
        candidates[u] = cand
    return candidates
