"""PCSR layout and maintenance charges pinned to golden digests.

The digests in ``pcsr_golden.json`` were recorded from the per-key
implementation of the PCSR build and bulk update (before both became
array passes, and before the labels' group layers were stacked into
one array).  Each digest (:func:`oracle.partition_digest`) covers a
partition's whole live state — the group layer (keys, offsets, GID and
END columns), every key's neighbor extent, ``region_start`` /
``region_cap``, keys per group, the empty-group pool (members and
iteration order, which fixes future chain extensions), the dead-word
count and the key count — and, for stream batches, the batch's
maintenance ``MeterSnapshot`` and commit transactions.  Any change to
where a key, a region or a charge lands fails here.  Each stream must
also hit its listed maintenance events, read from per-label store
state around every batch (:func:`batch_events`).

Re-record (only for a deliberate layout or cost-model change)::

    PYTHONPATH=src python tests/test_pcsr_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest

from repro.core.config import GSIConfig
from repro.dynamic import StreamEngine
from repro.dynamic.delta import random_update_stream
from repro.dynamic.index import DEFAULT_REBUILD_OCCUPANCY
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.storage.pcsr import PCSRStorage, default_hash

from oracle import store_digest

GOLDEN = Path(__file__).with_name("pcsr_golden.json")

#: name -> (gpn, graph args, stream args, events the stream must hit)
STREAMS = {
    "gpn2": (2, dict(num_vertices=150, edges_per_vertex=3,
                     num_vertex_labels=3, num_edge_labels=2, seed=21),
             dict(num_batches=30, batch_size=24, seed=2,
                  new_vertex_fraction=0.1),
             {"relocation", "starvation"}),
    "gpn3": (3, dict(num_vertices=200, edges_per_vertex=3,
                     num_vertex_labels=3, num_edge_labels=3, seed=22),
             dict(num_batches=30, batch_size=32, seed=3),
             {"chain_extension", "relocation", "compaction",
              "occupancy_rebuild", "starvation"}),
    "gpn16": (16, dict(num_vertices=300, edges_per_vertex=4,
                       num_vertex_labels=4, num_edge_labels=3, seed=23),
              dict(num_batches=40, batch_size=48, seed=16),
              {"relocation", "compaction", "occupancy_rebuild"}),
}


def collision_graph() -> LabeledGraph:
    """A star whose 39 leaves put 20 keys in one home group at gpn=16
    (40 keys, 40 groups), forcing build-time overflow chains."""
    leaves: List[int] = []
    v = 1
    while len(leaves) < 20:
        if default_hash(v, 40) == 7:
            leaves.append(v)
        v += 1
    v = 1
    while len(leaves) < 39:
        if v not in leaves and default_hash(v, 40) != 7:
            leaves.append(v)
        v += 1
    n = max(leaves) + 1
    return LabeledGraph([0] * n, [(0, leaf, 1) for leaf in leaves])


def pinned_builds() -> Dict[str, PCSRStorage]:
    out = {"collision-gpn16": PCSRStorage(collision_graph(), gpn=16)}
    for seed, gpn in ((31, 2), (32, 3), (33, 16)):
        graph = scale_free_graph(120, 3, 3, 3, seed=seed)
        out[f"scale-free-{seed}-gpn{gpn}"] = PCSRStorage(graph, gpn=gpn)
    return out


def build_digests() -> Dict[str, Dict[str, str]]:
    return {name: store_digest(store)
            for name, store in pinned_builds().items()}


def _label_state(store: PCSRStorage) -> Dict[int, tuple]:
    """Per label, what a batch's maintenance events are read from: the
    partition object (a rebuild replaces it), its chain links, a copy of
    its region capacities, its keys and its group count."""
    state = {}
    for lab, part in store._parts.items():
        cap = part.gpn - 1
        keys = part.groups[:, :cap, 0]
        state[lab] = (part, int((part.groups[:, cap, 0] >= 0).sum()),
                      part._region_cap.copy(), set(keys[keys >= 0].tolist()),
                      part.num_groups)
    return state


def batch_events(before: Dict[int, tuple],
                 after: Dict[int, tuple]) -> Set[str]:
    """The events one batch hit, from per-label store state around it.

    A label whose partition object changed was rebuilt: past the
    occupancy bound if its keys before plus the keys it gained exceed
    :data:`DEFAULT_REBUILD_OCCUPANCY` per group, else because Claim 1
    starved.  Otherwise a new chain link is a chain extension, and a
    region that held words and grew its capacity was relocated (a
    compaction shrinks capacities to the words in use, never below a
    relocated region's new size)."""
    events: Set[str] = set()
    for lab, (part, links, region_cap, keys, groups) in before.items():
        now, now_links, now_cap, now_keys, _ = after[lab]
        if now is not part:
            gained = len(now_keys - keys)
            events.add("occupancy_rebuild"
                       if (len(keys) + gained) / groups
                       > DEFAULT_REBUILD_OCCUPANCY else "starvation")
            continue
        if now_links > links:
            events.add("chain_extension")
        if ((region_cap > 0) & (now_cap > region_cap)).any():
            events.add("relocation")
    return events


def stream_digests(name: str):
    """Per-batch digests of one stream, plus the events it hit."""
    gpn, graph_args, stream_args, _ = STREAMS[name]
    graph = scale_free_graph(**graph_args)
    stream = random_update_stream(graph, **stream_args)
    engine = StreamEngine(graph, GSIConfig(gpn=gpn, signature_bits=64))
    digests = []
    events: Set[str] = set()
    for delta in stream:
        before = _label_state(engine.index.storage)
        report = engine.apply_batch(delta)
        events |= batch_events(before, _label_state(engine.index.storage))
        m = report.maintenance
        charges = (m.gld, m.gst, m.shared, m.ops, m.kernel_launches,
                   sorted(m.labeled_gld.items()),
                   report.commit_transactions, report.rebuilds,
                   report.compactions)
        h = hashlib.sha256(repr(charges).encode())
        h.update(repr(store_digest(engine.index.storage)).encode())
        digests.append(h.hexdigest()[:16])
        if report.compactions:
            events.add("compaction")
    return digests, events


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fresh_builds_match_golden(golden):
    assert build_digests() == golden["builds"]


def test_pinned_builds_have_overflow_chains():
    stores = pinned_builds()
    for name in ("collision-gpn16", "scale-free-31-gpn2",
                 "scale-free-32-gpn3"):
        assert stores[name].max_chain_length() >= 2, name


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_layout_and_charges_match_golden(golden, name):
    digests, events = stream_digests(name)
    want = golden["streams"][name]
    assert len(digests) == len(want)
    for i, (got, exp) in enumerate(zip(digests, want)):
        assert got == exp, f"{name}: batch {i} diverges from the golden"
    missing = STREAMS[name][3] - events
    assert not missing, f"{name} never hit {sorted(missing)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_pcsr_golden.py --record")
    record = {"builds": build_digests(),
              "streams": {name: stream_digests(name)[0]
                          for name in sorted(STREAMS)}}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name in sorted(STREAMS):
        print(name, sorted(stream_digests(name)[1]))
