"""Delta matching checked against its per-seed reference on every batch.

:class:`~repro.dynamic.stream.StreamEngine` seeds every registered
query in one array pass per batch and extends each surviving seed
along a plan compiled at ``register``.  :func:`oracle.
reference_delta_created` keeps the earlier path: every query edge x
inserted edge x orientation checked with the scalar
:func:`oracle.is_candidate`, each seed extended by a backtracker that
rebuilds its BFS order and checks every already-placed neighbor.  For
every fuzz profile, after each batch, each registered query's created
set must equal the reference's on the committed snapshot, and its
destroyed set must equal the live matches that map a query edge onto
a deleted pair.  The batch's net change comes from the two snapshots,
not from the engine.

The queries cover a single vertex, a triangle and a 4-cycle (their
closing edges are back-edge checks), repeated edge labels and random
walks; a query is unregistered and another registered mid-stream, so
the stacked seed rows are rebuilt.  The fuzz batches carry relabels
(a pair deleted and inserted with another label) and new vertices.
"""

from __future__ import annotations

import os
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.core.signature import encode_all
from repro.dynamic import StreamEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph, path_query, triangle_query

from fuzz_harness import PROFILES, _Shadow, generate_batch
from oracle import reference_delta_created

QUICK_SEEDS = (0, 1)
LONG_SEEDS = list(range(int(os.environ.get("GSI_FUZZ_SEEDS", "0"))))

Match = Tuple[int, ...]


def _four_cycle(vlabels: Tuple[int, ...],
                elabels: Tuple[int, ...]) -> LabeledGraph:
    return LabeledGraph(list(vlabels), [
        (i, (i + 1) % 4, lab) for i, lab in enumerate(elabels)])


def _queries(graph: LabeledGraph, seed: int) -> List[LabeledGraph]:
    """Shapes whose labels the fuzz graph (two vertex and two edge
    labels, label 0 the most frequent) matches often."""
    return [
        LabeledGraph([0], []),
        triangle_query((0, 0, 0), (0, 0, 0)),
        triangle_query((0, 1, 0), (0, 1, 0)),
        _four_cycle((0, 0, 0, 0), (0, 0, 0, 0)),
        _four_cycle((0, 1, 0, 1), (0, 1, 0, 1)),
        path_query([1, 0, 1], [1, 1]),
        random_walk_query(graph, 3, seed=seed),
        random_walk_query(graph, 4, seed=seed + 1),
    ]


def _dies(match: Match, query: LabeledGraph,
          dead: Set[Tuple[int, int]]) -> bool:
    return any((min(match[a], match[b]), max(match[a], match[b])) in dead
               for a, b, _ in query.edges())


def replay(seed: int, profile: str, num_vertices: int = 32,
           batches: int = 8, batch_size: int = 12) -> Dict[str, int]:
    """One fuzz stream, every batch's deltas compared with the
    reference; returns what the stream exercised."""
    rng = np.random.default_rng(seed * 6151 + PROFILES.index(profile))
    graph = scale_free_graph(num_vertices, 3, 2, 2, seed=seed)
    shadow = _Shadow(graph)
    vpool = sorted(set(shadow.vlabels)) or [0]
    epool = graph.distinct_edge_labels() or [0]
    engine = StreamEngine(graph)
    bits = engine.config.signature_bits
    queries = _queries(graph, seed)
    registered = {engine.register(q): q for q in queries}
    seen = {"created": 0, "destroyed": 0, "relabels": 0,
            "new_vertices": 0, "cycle_created": 0}
    for i in range(batches):
        # Change the registered set mid-stream, one call per batch:
        # each must restack the seed rows before the next batch.
        if i == batches // 2:
            gone = list(registered)[2]
            engine.unregister(gone)
            del registered[gone]
        if i == batches // 2 + 1:
            extra = triangle_query((0, 0, 1), (0, 1, 1))
            registered[engine.register(extra)] = extra
        before = engine.graph
        live = {qid: engine.matches(qid) for qid in registered}
        report = engine.apply_batch(generate_batch(
            rng, shadow, profile, batch_size, vpool, epool))
        after = engine.graph
        old, new = set(before.edges()), set(after.edges())
        inserted = sorted(new - old)
        dead = {(u, v) for u, v, _ in old - new}
        new_vertices = range(before.num_vertices, after.num_vertices)
        table = encode_all(after, bits)
        where = f"seed {seed} {profile} batch {i}"
        for qid, query in registered.items():
            delta = report.query_deltas[qid]
            want = reference_delta_created(after, table, query, bits,
                                           inserted, new_vertices)
            assert delta.created == want, f"{where} query {qid} created"
            assert delta.destroyed == {
                m for m in live[qid] if _dies(m, query, dead)}, \
                f"{where} query {qid} destroyed"
            seen["created"] += len(want)
            seen["destroyed"] += len(delta.destroyed)
            if query.num_edges > query.num_vertices - 1:
                seen["cycle_created"] += len(want)
        seen["relabels"] += len({(u, v) for u, v, _ in inserted} & dead)
        seen["new_vertices"] += len(new_vertices)
    return seen


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_deltas_match_per_seed_reference(seed, profile):
    replay(seed, profile)


def test_reference_streams_reach_every_path():
    """The quick slice creates and destroys matches, closes cycles
    through back edges, relabels pairs and adds vertices."""
    seen: Dict[str, int] = {}
    for seed in QUICK_SEEDS:
        for profile in PROFILES:
            for key, count in replay(seed, profile).items():
                seen[key] = seen.get(key, 0) + count
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", LONG_SEEDS or [None])
def test_delta_seed_matrix(seed):
    """The CI long slice: every profile, longer streams, bigger graphs."""
    if seed is None:
        pytest.skip("set GSI_FUZZ_SEEDS=N (N>=1) to run the seed matrix")
    for profile in PROFILES:
        replay(seed, profile, num_vertices=40, batches=12, batch_size=16)
