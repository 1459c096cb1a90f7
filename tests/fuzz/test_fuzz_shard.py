"""Fuzz-profile slice for the sharded subsystem.

Replays one seeded, profile-shaped update stream (the same generator
the dynamic-subsystem fuzz harness uses) and, after every batch,
rebuilds a 4-shard scatter-gather engine on the committed snapshot and
checks its match sets against the brute-force oracle and a single
engine over the whole snapshot.  This exercises the halo/ownership
argument against graphs the stream mutates adversarially — hub
isolation, relabels, vertex growth — rather than only against static
generator output.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.shard import ShardedEngine, ShardedGraph

from fuzz_harness import _Shadow, generate_batch
from oracle import brute_force_matches

NUM_SHARDS = 4


def test_fuzz_stream_against_four_shard_engine():
    seed, profile = 5, "churn"
    rng = np.random.default_rng(seed * 7919)
    graph = scale_free_graph(26, 3, 3, 3, seed=seed)
    shadow = _Shadow(graph)
    vpool = sorted(set(shadow.vlabels)) or [0]
    epool = graph.distinct_edge_labels() or [0]
    queries = [random_walk_query(graph, k, seed=seed + i)
               for i, k in enumerate((2, 3, 4))]

    checked = 0
    for _ in range(5):
        generate_batch(rng, shadow, profile, 8, vpool, epool)
        snapshot = shadow.rebuild()
        if snapshot.num_edges == 0:
            continue
        single = GSIEngine(snapshot)
        sharded = ShardedEngine(ShardedGraph(snapshot, NUM_SHARDS,
                                             halo_hops=2))
        report = sharded.run_batch(queries)
        assert report.errors == 0
        for query, item in zip(queries, report.items):
            want = brute_force_matches(query, snapshot)
            assert set(item.result.matches) == want, (
                f"sharded diverged from oracle "
                f"(seed={seed}, profile={profile})")
            assert len(item.result.matches) == len(want)
            assert item.result.match_set() == \
                single.match(query).match_set()
            checked += 1
    assert checked > 0
