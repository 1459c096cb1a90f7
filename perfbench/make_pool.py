"""Regenerate ``pool.json``, the vetted query pool of the benchmark.

The pool holds random-walk queries of 3-7 vertices over the fixed data
graph, each with its reference match-set digest, match count and
simulated cost under ``GSIConfig.gsi_opt()``.  Queries whose join
would exceed ``MAX_MATCHES`` are left out, so no single query can
dominate a run.  The workloads draw their inputs from this pool by
seed; ``query_cold`` checks every answer against the stored digest.

Run from the repository root (takes a few minutes)::

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import harness

CANDIDATES_PER_SIZE = 240
SIZES = (3, 4, 5, 6, 7)
MAX_MATCHES = 200_000
POOL_SEED = 20_200_401


def main() -> int:
    harness.bootstrap_program()
    import numpy as np

    from repro.core.config import GSIConfig
    from repro.core.engine import GSIEngine
    from repro.graph.generators import random_walk_query

    graph = harness.build_graph()
    # the row cap only aborts runaway candidates early; every kept
    # query finished under it, so its answer is the uncapped answer
    capped = dataclasses.replace(GSIConfig.gsi_opt(),
                                 max_intermediate_rows=MAX_MATCHES)
    engine = GSIEngine(graph, capped)
    rng = np.random.default_rng(POOL_SEED)
    seen = set()
    entries = []
    start = time.perf_counter()
    for k in SIZES:
        for _ in range(CANDIDATES_PER_SIZE):
            query = random_walk_query(graph, k,
                                      seed=int(rng.integers(2 ** 31)))
            key = (tuple(int(x) for x in query.vertex_labels),
                   tuple(sorted(query.edges())))
            if key in seen:
                continue
            seen.add(key)
            result = engine.match(query)
            if result.timed_out or result.num_matches > MAX_MATCHES:
                continue
            entries.append({
                "id": len(entries),
                "k": k,
                "labels": [int(x) for x in query.vertex_labels],
                "edges": [[int(u), int(v), int(lab)]
                          for u, v, lab in query.edges()],
                "matches": result.num_matches,
                "digest": harness.match_digest(result.matches),
                "sim_ms": result.elapsed_ms,
                "tx": int(result.counters.gld + result.counters.gst),
            })
        print(f"k={k}: {len(entries)} kept "
              f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)
    harness.POOL_PATH.write_text(json.dumps({
        "graph_digest": harness.graph_digest(graph),
        "max_matches": MAX_MATCHES,
        "queries": entries,
    }, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} queries to {harness.POOL_PATH}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
