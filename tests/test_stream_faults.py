"""A stream batch is all or nothing: a fault injected into each stage.

A fault before the commit returns (in the overlay or inside the commit)
leaves the engine as it was: the overlay is discarded, and the next
batch commits exactly its own ops.  A fault after it (PCSR pass,
rebuild, compaction, signature rows, ``stats()``, seed pass or one
query's delta), ``MemoryError`` and ``KeyboardInterrupt`` alike, marks
the engine failed: every later call raises
:class:`~repro.errors.StreamStateError` naming the batch, so no later
call serves a mix of old and new state.
"""

from __future__ import annotations

import pytest

from repro.dynamic import DynamicGraph, GraphDelta, StreamEngine
from repro.dynamic import stream as stream_module
from repro.dynamic.delta import random_update_stream
from repro.dynamic.index import DynamicPCSRStorage, DynamicSignatureTable
from repro.errors import StreamStateError
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.storage.pcsr import GroupStack, PCSRPartition

from oracle import brute_force_matches

# On this stream the first compaction fires in batch 3 and the first
# rebuild in batch 6; every other stage runs in every batch.
FIRST_RUN = {"compaction": 3, "rebuild": 6}
GRAPH = scale_free_graph(60, 3, 3, 3, seed=3)
STREAM = random_update_stream(GRAPH, 8, 16, seed=3)
QUERIES = [random_walk_query(GRAPH, 3, seed=s) for s in (0, 1)]


def _engine():
    engine = StreamEngine(GRAPH)
    return engine, [engine.register(q) for q in QUERIES]


def _inject(monkeypatch, owner, name, exc, when=lambda *args: True):
    """Make ``owner.name`` raise ``exc`` on its first call that
    ``when`` accepts; every other call runs the real code."""
    real = getattr(owner, name)
    fired = []

    def faulty(*args, **kwargs):
        if not fired and when(*args):
            fired.append(True)
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, faulty)
    return fired


def _fresh_changes(graph):
    """A batch valid against ``graph`` alone: three new edges and two
    deletes."""
    n = graph.num_vertices
    missing = [(u, v) for u in range(n) for v in range(u + 1, n)
               if not graph.has_edge(u, v)]
    delta = GraphDelta.for_graph(graph)
    for u, v in missing[:3]:
        delta.add_edge(u, v, 0)
    for u, v, _ in list(graph.edges())[:2]:
        delta.remove_edge(u, v)
    return delta


# ----------------------------------------------------------------------
# Before the commit returns: the engine stays usable
# ----------------------------------------------------------------------

def _overlay_fault(monkeypatch):
    real = DynamicGraph.apply

    def half_then_raise(self, delta):
        real(self, GraphDelta(ops=delta.ops[:len(delta.ops) // 2]))
        raise KeyboardInterrupt

    monkeypatch.setattr(DynamicGraph, "apply", half_then_raise)
    return KeyboardInterrupt


def _commit_fault(monkeypatch):
    _inject(monkeypatch, LabeledGraph, "apply_changes",
            MemoryError("injected"))
    return MemoryError


@pytest.mark.parametrize("fault", [_overlay_fault, _commit_fault],
                         ids=["overlay", "commit"])
def test_fault_before_the_commit_returns_discards_the_batch(monkeypatch,
                                                            fault):
    engine, qids = _engine()
    engine.apply_batch(STREAM[0])
    before = engine.graph
    live = {qid: engine.matches(qid) for qid in qids}
    raised = fault(monkeypatch)
    with pytest.raises(raised):
        engine.apply_batch(STREAM[1])
    monkeypatch.undo()
    assert engine.graph is before
    assert engine.dynamic.pending_ops == 0
    assert engine.batches_applied == 1
    assert {qid: engine.matches(qid) for qid in qids} == live

    # The next batch commits exactly its own ops, nothing left over.
    delta = _fresh_changes(before)
    alone = DynamicGraph(before)
    alone.apply(delta)
    want = alone.commit()
    report = engine.apply_batch(delta)
    assert (report.num_inserted, report.num_deleted) == \
        (len(want.inserted), len(want.deleted))
    assert list(engine.graph.edges()) == list(want.snapshot.edges())
    for qid, query in zip(qids, QUERIES):
        assert engine.matches(qid) == \
            brute_force_matches(query, engine.graph)


# ----------------------------------------------------------------------
# After the commit returns: every later call raises StreamStateError
# ----------------------------------------------------------------------

#: stage -> (owner, attribute, which call fails)
AFTER_COMMIT = {
    "pcsr pass": (GroupStack, "apply", None),
    "rebuild": (DynamicPCSRStorage, "_rebuild_partition", None),
    "compaction": (PCSRPartition, "compact", None),
    "signature rows": (DynamicSignatureTable, "apply", None),
    "stats": (DynamicPCSRStorage, "stats", None),
    "seed pass": (stream_module, "_seed_pass", None),
    # the second registered query's delta, after the first one applied
    "query delta": (stream_module, "_query_delta",
                    lambda seed, reg: reg.query_id == 1),
}


@pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("stage", sorted(AFTER_COMMIT))
def test_fault_after_the_commit_fails_every_later_call(monkeypatch, stage,
                                                       exc):
    engine, qids = _engine()
    owner, name, when = AFTER_COMMIT[stage]
    fired = _inject(monkeypatch, owner, name, exc("injected"),
                    *([when] if when else []))
    failed = None
    for index, delta in enumerate(STREAM):
        try:
            engine.apply_batch(delta)
        except exc:
            failed = index
            break
    assert fired and failed == FIRST_RUN.get(stage, 0)
    monkeypatch.undo()
    assert engine.batches_applied == failed
    later = {
        "apply_batch": lambda: engine.apply_batch(STREAM[-1]),
        "match": lambda: engine.match(QUERIES[0]),
        "register": lambda: engine.register(QUERIES[0]),
        "unregister": lambda: engine.unregister(qids[0]),
        "matches": lambda: engine.matches(qids[0]),
        "initial_result": lambda: engine.initial_result(qids[0]),
    }
    for call in later.values():
        with pytest.raises(StreamStateError,
                           match=f"^stream batch {failed} failed after"):
            call()
    assert engine.batches_applied == failed
    assert engine.num_registered == len(qids)
