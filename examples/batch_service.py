"""Batch service: serve many subgraph queries from one shared engine.

The engine's offline artifacts (signature table, PCSR storage) are built
once; the service executes a whole batch of queries through the
``prepare``/``execute`` path, and a plan cache lets repeated or
isomorphic query shapes skip join-order planning.

Run:  python examples/batch_service.py
"""

import time

from repro import BatchEngine, GSIConfig, GSIEngine, random_walk_query
from repro.graph.generators import scale_free_graph


def main() -> None:
    graph = scale_free_graph(400, 4, 6, 6, seed=9)
    config = GSIConfig.gsi_opt()

    # A multi-user workload: 8 distinct query shapes, each submitted by
    # 4 "users" (32 queries total).
    shapes = [random_walk_query(graph, 5, seed=s) for s in range(8)]
    batch = shapes * 4

    # --- One-at-a-time service: every request pays engine setup. ---
    t0 = time.perf_counter()
    sequential = [GSIEngine(graph, config).match(q) for q in batch]
    sequential_ms = (time.perf_counter() - t0) * 1000.0

    # --- Batch service: artifacts amortized, plans cached. ---
    service = BatchEngine(graph, config)
    t0 = time.perf_counter()
    report = service.run_batch(batch)
    batched_ms = (time.perf_counter() - t0) * 1000.0

    # Batching never changes answers: same matches, same simulated cost.
    for seq_result, batch_result in zip(sequential, report.results):
        assert seq_result.match_set() == batch_result.match_set()
        assert seq_result.elapsed_ms == batch_result.elapsed_ms

    print(f"data graph: |V|={graph.num_vertices} |E|={graph.num_edges}")
    print(f"batch of {len(batch)} queries "
          f"({len(shapes)} distinct shapes x 4 users)")
    print(f"  one-at-a-time  : {sequential_ms:8.1f} ms wall")
    print(f"  batch service  : {batched_ms:8.1f} ms wall "
          f"({sequential_ms / max(batched_ms, 1e-9):.1f}x)")
    print(f"  {report.summary_line()}")
    hits = report.cache.hits
    assert hits > 0, "repeated shapes should hit the plan cache"
    print(f"  {hits} of {report.num_queries} queries reused a cached plan")


if __name__ == "__main__":
    main()
