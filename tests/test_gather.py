"""``NeighborStore.gather`` against per-vertex reference values.

Every store answers ``N(v, l)`` through one read, ``gather``: many
vertices' lists back to back plus each list's charges.  Here random
vertex arrays (hits, misses, repeats, an absent label) are gathered
from every store kind — PCSR at gpn 2 (overflow chains) and 16, a
:class:`DynamicPCSRStorage` after churn, rebuilds and compactions, and
a PCSR store attached from shared memory — and each entry must equal
the reference for that vertex alone:

* the list is ``LabeledGraph.neighbors_by_label`` (sorted-unique);
* PCSR ``locate`` is the groups the scalar chain walk reads
  (:func:`oracle.pcsr_probe`), 0 for a label without a partition;
* CR ``locate`` is ``ceil(log2(n + 1)) + 2`` for the label's ``n``
  vertices, BR's is 1, and both are 0 for an absent label;
* CSR ``locate`` is 1, its ``read`` ``2 * ceil(deg / 32)`` and its
  ``streamed`` ``deg``; the per-label stores read ``ceil(len / 32)``
  and stream ``len``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.dynamic import DynamicGraph, DynamicPCSRStorage
from repro.dynamic.delta import random_update_stream
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.storage import shm
from repro.storage.base import NeighborStore
from repro.storage.factory import build_storage

from oracle import pcsr_probe

ABSENT_LABEL = 99

Subject = Tuple[NeighborStore, LabeledGraph, str]


def _churned() -> Tuple[DynamicPCSRStorage, LabeledGraph]:
    """A gpn-3 dynamic store after a stream that rebuilds and compacts
    (the ``gpn3`` stream of ``test_pcsr_golden.py``)."""
    graph = scale_free_graph(num_vertices=200, edges_per_vertex=3,
                             num_vertex_labels=3, num_edge_labels=3,
                             seed=22)
    dyn = DynamicGraph(graph)
    store = DynamicPCSRStorage(graph, gpn=3)
    for delta in random_update_stream(graph, num_batches=30, batch_size=32,
                                      seed=3):
        dyn.apply(delta)
        commit = dyn.commit()
        store.apply_batch(commit.snapshot, commit.inserted_edges,
                          commit.deleted_edges)
    assert store.compactions and store.rebuilds
    return store, dyn.base


@pytest.fixture(scope="module")
def subjects() -> Iterator[Dict[str, Subject]]:
    graph = scale_free_graph(num_vertices=150, edges_per_vertex=3,
                             num_vertex_labels=3, num_edge_labels=3,
                             seed=41)
    out: Dict[str, Subject] = {
        kind: (build_storage(kind, graph), graph, kind)
        for kind in ("csr", "basic", "compressed")}
    for gpn in (2, 16):
        out[f"pcsr-gpn{gpn}"] = (build_storage("pcsr", graph, gpn=gpn),
                                 graph, "pcsr")
    assert out["pcsr-gpn2"][0].max_chain_length() >= 2
    churned, final = _churned()
    out["dynamic-pcsr"] = (churned, final, "pcsr")
    handle, lease = shm.publish_engine(
        GSIEngine(graph, GSIConfig(gpn=2)), epoch=1)
    try:
        out["shm-pcsr"] = (shm.attach_pcsr(handle.store), graph, "pcsr")
        yield out
    finally:
        lease.release()


def reference(subject: Subject, v: int, label: int
              ) -> Tuple[List[int], int, int, int]:
    """``(list, locate, read, streamed)`` for one vertex."""
    store, graph, kind = subject
    nbrs = graph.neighbors_by_label(v, label).tolist()
    read, streamed = math.ceil(len(nbrs) / 32), len(nbrs)
    present = label in graph.distinct_edge_labels()
    if kind == "csr":
        deg = graph.degree(v)
        return nbrs, 1, 2 * math.ceil(deg / 32), deg
    if kind == "basic":
        return nbrs, int(present), read, streamed
    if kind == "compressed":
        ends = {u for a, b, lab in graph.edges() if lab == label
                for u in (a, b)}
        locate = math.ceil(math.log2(len(ends) + 1)) + 2 if present else 0
        return nbrs, locate, read, streamed
    part = store.partition(label)
    if part is None:
        return nbrs, 0, read, streamed
    reads, begin, end = pcsr_probe(part, v)
    walked = part._ci_buf[begin:end].tolist() if begin >= 0 else []
    assert walked == nbrs, (v, label)
    return nbrs, reads, read, streamed


NAMES = ("csr", "basic", "compressed", "pcsr-gpn2", "pcsr-gpn16",
         "dynamic-pcsr", "shm-pcsr")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gather_equals_per_vertex_reference(subjects, data):
    name = data.draw(st.sampled_from(NAMES), label="store")
    store, graph, _ = subject = subjects[name]
    label = data.draw(st.sampled_from(graph.distinct_edge_labels()
                                      + [ABSENT_LABEL]), label="label")
    drawn = data.draw(st.lists(st.integers(0, graph.num_vertices - 1),
                               max_size=40), label="vertices")
    repeats = data.draw(st.integers(0, len(drawn)), label="repeats")
    vertices = np.array(drawn + drawn[:repeats], dtype=np.int64)

    got = store.gather(vertices, label)
    for field in got:
        assert field.dtype == np.int64
    assert len(got.concat) == int(got.lens.sum())
    assert got.starts.tolist() == (np.cumsum(got.lens)
                                   - got.lens).tolist()
    for i, v in enumerate(vertices.tolist()):
        nbrs, locate, read, streamed = reference(subject, v, label)
        at = slice(got.starts[i], got.starts[i] + got.lens[i])
        assert got.concat[at].tolist() == nbrs, (name, v, label)
        assert (int(got.locate[i]), int(got.read[i]),
                int(got.streamed[i])) == (locate, read, streamed), \
            (name, v, label)
