"""Filtering phase: candidate set generation (Section III-A).

For each query vertex ``u`` the data-graph signature table is scanned in a
massively parallel fashion; vertices whose label equals ``u``'s and whose
signature contains ``S(u)`` (:mod:`repro.core.signature`'s filtering
rule, applied by :meth:`~repro.core.signature_table.SignatureTable.scan`)
form ``C(u)``.  The scan's memory cost depends on the table layout (see
:mod:`repro.core.signature_table`); its *natural load balance* — every
thread reads a fixed-length signature — is why filtering is cheap on GPU.
Every query vertex runs its own scan, and nothing memoizes candidate
sets across vertices or queries, so a kernel's candidates and its
charge always come from the same pass over the current table.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.arraytypes import Array
from repro.core.signature import encode_vertex
from repro.core.signature_table import SignatureTable
from repro.gpusim.constants import LABEL_FILTER
from repro.gpusim.device import Device
from repro.graph.labeled_graph import LabeledGraph


def filter_candidates(query: LabeledGraph, table: SignatureTable,
                      device: Device, signature_bits: int
                      ) -> Dict[int, Array]:
    """Compute ``C(u)`` for every query vertex, metering the scan.

    Query signatures are computed online (cheap: |V(Q)| encodings); each
    query vertex then launches one scan kernel over the table, charged
    from that vertex's own :meth:`~repro.core.signature_table.
    SignatureTable.scan`.

    Returns a dict mapping query vertex id to a sorted candidate array.
    """
    candidates: Dict[int, Array] = {}
    for u in range(query.num_vertices):
        cost, cand = table.scan(encode_vertex(query, u, signature_bits))
        device.meter.add_gld(cost.gld_transactions, label=LABEL_FILTER)
        device.run_kernel(cost.warp_task_cycles, name=f"filter_u{u}")
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
