"""Randomized differential fuzz harness for the dynamic subsystem.

:func:`run_fuzz` replays a seeded, profile-shaped random update stream
through a :class:`~repro.dynamic.stream.StreamEngine` while mirroring
every operation into an independent *shadow* (a plain dict of live
edges), and checks after **every** batch that

* the committed snapshot's edge set, vertex labels and CSR arrays equal
  a from-scratch :class:`LabeledGraph` built off the shadow (the
  O(changes) ``apply_changes`` splice vs. the ground-truth rebuild);
* every continuous query's composed live match set equals the
  brute-force oracle on the snapshot, and the per-batch created /
  destroyed deltas are disjoint and consistent with the previous set;
* every PCSR partition validates clean, answers ``N(v, l)`` exactly as
  the snapshot does for every touched vertex, and honors the
  dead-space-ratio compaction bound;
* (optionally) every signature-table row equals a fresh re-encode.

Profiles shape the stream adversarially: ``skewed`` hammers hub
vertices, ``delete_heavy`` drains the graph, ``churn`` deletes and
re-inserts the same pairs (exercising net-change cancellation and slack
reuse), ``adversarial`` mixes empty batches, oversized batches,
same-batch delete+re-add, relabels and hub isolation.

Reproduction workflow: every failure is fully determined by
``(seed, profile)`` plus the size keywords — re-run
``run_fuzz(seed, profile)`` with the values from the failing test id,
e.g. ``pytest "tests/fuzz/test_fuzz_stream.py::test_fuzz_quick[1-churn]"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.signature import encode_vertex
from repro.dynamic import GraphDelta, StreamEngine
from repro.dynamic.index import MIN_COMPACT_DEAD_WORDS
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph

from oracle import brute_force_matches

PROFILES = ("uniform", "skewed", "delete_heavy", "churn", "adversarial")


@dataclass
class FuzzReport:
    """What one :func:`run_fuzz` run did (for meta-assertions)."""

    seed: int
    profile: str
    batches: int = 0
    ops: int = 0
    inserted: int = 0
    deleted: int = 0
    new_vertices: int = 0
    commit_transactions: int = 0
    compactions: int = 0
    rebuilds: int = 0
    checks: int = 0


class _Shadow:
    """Ground-truth mirror of the evolving graph: plain dicts."""

    def __init__(self, graph: LabeledGraph) -> None:
        self.vlabels: List[int] = [int(x) for x in graph.vertex_labels]
        self.edges: Dict[Tuple[int, int], int] = {
            (u, v): lab for u, v, lab in graph.edges()}

    @property
    def num_vertices(self) -> int:
        return len(self.vlabels)

    def rebuild(self) -> LabeledGraph:
        return LabeledGraph(self.vlabels, [
            (u, v, lab) for (u, v), lab in self.edges.items()])

    def incident(self, v: int) -> List[Tuple[int, int]]:
        return [key for key in self.edges if v in key]


def _pick_vertex(rng: np.random.Generator, n: int, skewed: bool) -> int:
    if skewed:
        # Cube the uniform draw: low ids (scale-free hubs) dominate.
        return int(n * float(rng.random()) ** 3) % n
    return int(rng.integers(n))


def _gen_insert(rng, shadow: _Shadow, delta: GraphDelta,
                labels: List[int], skewed: bool) -> bool:
    n = shadow.num_vertices
    for _ in range(30):
        u = _pick_vertex(rng, n, skewed)
        v = _pick_vertex(rng, n, skewed)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in shadow.edges:
            continue
        lab = labels[int(rng.integers(len(labels)))]
        delta.add_edge(key[0], key[1], lab)
        shadow.edges[key] = lab
        return True
    return False


def _gen_delete(rng, shadow: _Shadow, delta: GraphDelta,
                skewed: bool) -> bool:
    if not shadow.edges:
        return False
    keys = sorted(shadow.edges)
    if skewed:
        # Prefer edges incident to the lowest-id (hub) vertices.
        keys.sort(key=lambda k: min(k))
        key = keys[int(len(keys) * float(rng.random()) ** 2)]
    else:
        key = keys[int(rng.integers(len(keys)))]
    delta.remove_edge(*key)
    del shadow.edges[key]
    return True


def _gen_relabel(rng, shadow: _Shadow, delta: GraphDelta,
                 labels: List[int]) -> bool:
    if not shadow.edges:
        return False
    keys = sorted(shadow.edges)
    key = keys[int(rng.integers(len(keys)))]
    new_lab = labels[int(rng.integers(len(labels)))]
    delta.remove_edge(*key)
    delta.add_edge(key[0], key[1], new_lab)
    shadow.edges[key] = new_lab
    return True


def _gen_add_vertex(rng, shadow: _Shadow, delta: GraphDelta,
                    vlabels: List[int], elabels: List[int]) -> None:
    lab = vlabels[int(rng.integers(len(vlabels)))]
    vid = delta.add_vertex(lab)
    shadow.vlabels.append(lab)
    if vid > 0 and float(rng.random()) < 0.8:
        anchor = int(rng.integers(vid))
        elab = elabels[int(rng.integers(len(elabels)))]
        delta.add_edge(anchor, vid, elab)
        shadow.edges[(anchor, vid)] = elab


def _gen_isolate_hub(shadow: _Shadow, delta: GraphDelta) -> bool:
    degree: Dict[int, int] = {}
    for u, v in shadow.edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if not degree:
        return False
    hub = max(sorted(degree), key=degree.get)
    delta.remove_vertex(hub)
    for key in shadow.incident(hub):
        del shadow.edges[key]
    return True


def generate_batch(rng: np.random.Generator, shadow: _Shadow,
                   profile: str, batch_size: int,
                   vlabel_pool: List[int],
                   elabel_pool: List[int]) -> GraphDelta:
    """One profile-shaped update batch, mirrored into ``shadow``."""
    delta = GraphDelta.for_graph(shadow.num_vertices)
    size = batch_size
    if profile == "adversarial":
        roll = float(rng.random())
        if roll < 0.15:
            return delta  # empty batch
        if roll < 0.3:
            size = batch_size * 4  # oversized burst
        elif roll < 0.45 and _gen_isolate_hub(shadow, delta):
            return delta
        elif roll < 0.6 and shadow.edges:
            # Same-batch delete + re-add with the same label: the net
            # change set must cancel to nothing for this pair.
            keys = sorted(shadow.edges)
            key = keys[int(rng.integers(len(keys)))]
            lab = shadow.edges[key]
            delta.remove_edge(*key)
            delta.add_edge(key[0], key[1], lab)
            size = max(1, batch_size // 2)
    skewed = profile == "skewed"
    for _ in range(size):
        roll = float(rng.random())
        if profile == "delete_heavy":
            weights = (0.72, 0.18, 0.05, 0.05)
        elif profile == "churn":
            weights = (0.45, 0.4, 0.1, 0.05)
        else:
            weights = (0.3, 0.5, 0.1, 0.1)
        p_del, p_ins, p_rel, _p_vert = weights
        if roll < p_del:
            if not _gen_delete(rng, shadow, delta, skewed):
                _gen_insert(rng, shadow, delta, elabel_pool, skewed)
        elif roll < p_del + p_ins:
            if not _gen_insert(rng, shadow, delta, elabel_pool, skewed):
                _gen_delete(rng, shadow, delta, skewed)
        elif roll < p_del + p_ins + p_rel:
            _gen_relabel(rng, shadow, delta, elabel_pool)
        else:
            _gen_add_vertex(rng, shadow, delta, vlabel_pool, elabel_pool)
    if profile == "churn" and shadow.edges and float(rng.random()) < 0.5:
        # Extra same-batch remove+re-add of a live pair: exercises the
        # overlay's net-change bookkeeping and PCSR slack reuse.
        _gen_relabel(rng, shadow, delta, elabel_pool)
    return delta


def _check_snapshot(snapshot: LabeledGraph, shadow: _Shadow) -> None:
    assert snapshot.num_vertices == shadow.num_vertices
    assert [int(x) for x in snapshot.vertex_labels] == shadow.vlabels
    assert {(u, v): lab for u, v, lab in snapshot.edges()} == shadow.edges
    rebuilt = shadow.rebuild()
    assert np.array_equal(snapshot._offsets, rebuilt._offsets)
    assert np.array_equal(snapshot._nbr, rebuilt._nbr)
    assert np.array_equal(snapshot._elab, rebuilt._elab)
    assert snapshot._edge_label_freq == rebuilt._edge_label_freq


def _check_pcsr(engine: StreamEngine, snapshot: LabeledGraph,
                touched) -> None:
    storage = engine.index.storage
    assert storage.validate() == {}
    for lab, part in storage._parts.items():
        # Post-op compaction bound: dead space is either under the
        # floor or under the configured ratio.
        assert (part.dead_words() < MIN_COMPACT_DEAD_WORDS
                or part.dead_ratio() <= storage.compact_dead_ratio), (
            f"label {lab}: dead ratio {part.dead_ratio():.3f} above "
            f"threshold with {part.dead_words()} dead words")
    labels = snapshot.distinct_edge_labels()
    for v in touched:
        if v >= snapshot.num_vertices:
            continue
        for lab in labels:
            # As returned: lists are sorted-unique by the store's
            # invariant, which no reader repairs.
            got = storage.neighbors(v, lab)
            want = np.sort(snapshot.neighbors_by_label(v, lab))
            assert np.array_equal(got, want), (
                f"PCSR N({v}, {lab}) diverged from the snapshot")


def _check_signatures(engine: StreamEngine,
                      snapshot: LabeledGraph) -> None:
    bits = engine.config.signature_bits
    table = engine.index.signature_table.table
    assert len(table) == snapshot.num_vertices
    for v in range(snapshot.num_vertices):
        fresh = encode_vertex(snapshot, v, bits)
        assert np.array_equal(table[v], fresh), (
            f"stale signature row for vertex {v}")


def run_fuzz(seed: int, profile: str = "uniform", *,
             num_vertices: int = 28, num_batches: int = 6,
             batch_size: int = 10, query_sizes: Tuple[int, ...] = (2, 3, 4),
             compact_dead_ratio: float = 0.25,
             check_signatures: bool = True) -> FuzzReport:
    """One end-to-end differential fuzz run; raises on any divergence."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    rng = np.random.default_rng(seed * 7919 + PROFILES.index(profile))
    graph = scale_free_graph(num_vertices, 3, 3, 3, seed=seed)
    shadow = _Shadow(graph)
    vlabel_pool = sorted(set(shadow.vlabels)) or [0]
    elabel_pool = graph.distinct_edge_labels() or [0]

    engine = StreamEngine(graph, compact_dead_ratio=compact_dead_ratio)
    queries = [random_walk_query(graph, k, seed=seed + i)
               for i, k in enumerate(query_sizes)]
    qids = [engine.register(q) for q in queries]

    report = FuzzReport(seed=seed, profile=profile)
    for _ in range(num_batches):
        delta = generate_batch(rng, shadow, profile, batch_size,
                               vlabel_pool, elabel_pool)
        before = {qid: engine.matches(qid) for qid in qids}
        batch = engine.apply_batch(delta)
        snapshot = engine.graph

        _check_snapshot(snapshot, shadow)
        # Graphs are fuzz-sized: check every vertex's PCSR adjacency.
        _check_pcsr(engine, snapshot, range(snapshot.num_vertices))
        if check_signatures:
            _check_signatures(engine, snapshot)

        for qid, query in zip(qids, queries):
            live = engine.matches(qid)
            assert live == brute_force_matches(query, snapshot), (
                f"query {qid} diverged from oracle "
                f"(seed={seed}, profile={profile})")
            qd = batch.query_deltas[qid]
            assert not (qd.created & before[qid]), \
                "created overlaps the previous live set"
            assert qd.destroyed <= before[qid], \
                "destroyed contains never-live matches"
            assert live == (before[qid] - qd.destroyed) | qd.created

        report.batches += 1
        report.ops += delta.num_ops
        report.inserted += batch.num_inserted
        report.deleted += batch.num_deleted
        report.new_vertices += batch.num_new_vertices
        report.commit_transactions += batch.commit_transactions
        report.compactions += batch.compactions
        report.rebuilds += batch.rebuilds
        report.checks += 1
    return report
