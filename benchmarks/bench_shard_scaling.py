"""Shard scaling: per-shard work reduction vs. halo replication cost.

Not a paper table — this measures the repo's sharded subsystem.  The
same mesh (road-like) workload is served by a single engine and by
scatter-gather :class:`~repro.shard.ShardedEngine` instances across
shard counts {1, 2, 4, 8} under block-hash ownership.  Three things
are pinned:

* **exactness** — every sharded arm's match sets are identical to the
  single-engine reference (the halo/ownership argument, measured, not
  assumed);
* **per-shard work reduction** — the busiest shard's simulated
  transaction total decreases as the shard count grows (contiguous
  ownership blocks keep halos thin on the mesh, so candidate
  filtering and joining scale with shard size, not |V|);
* **replication overhead** — the halo's vertex/edge replication factor
  is reported per configuration; it *grows* with shard count, which is
  exactly the trade-off a deployment tunes (ROADMAP open item).

The workload is mesh-shaped on purpose: a large-diameter graph is
where partition locality exists to be exploited.  (On small-world
graphs every h-hop halo swallows most of the graph and sharding
degenerates to replication.)

Run ``python benchmarks/bench_shard_scaling.py`` for the table, with
``--quick`` for the CI smoke size, or via pytest for the assertions.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.reporting import render_table
from repro.core.engine import GSIEngine
from repro.graph.generators import mesh_graph, random_walk_query
from repro.shard import ShardedEngine, ShardedGraph

from bench_common import record_report, write_bench_json

SHARD_COUNTS = (1, 2, 4, 8)
HALO_HOPS = 2

MESH_SIDE = int(os.environ.get("GSI_BENCH_SHARD_MESH", "24"))
NUM_QUERIES = int(os.environ.get("GSI_BENCH_SHARD_QUERIES", "6"))


def run_shard_scaling(mesh_side: int = MESH_SIDE,
                      num_queries: int = NUM_QUERIES,
                      seed: int = 3):
    """One full sweep; returns ``(outcomes, reference, table)``.

    ``outcomes[shards]`` carries the report, its match sets, the
    busiest shard's transactions, and replication factors.
    ``reference`` is the single-engine arm (match sets + transactions).
    """
    graph = mesh_graph(mesh_side, mesh_side, 5, 4, seed=seed)
    queries = [random_walk_query(graph, 3 + (s % 3), seed=s)
               for s in range(num_queries)]

    single = GSIEngine(graph)
    reference = {"match_sets": [], "transactions": 0}
    for query in queries:
        result = single.match(query)
        reference["match_sets"].append(result.match_set())
        reference["transactions"] += result.counters.transactions

    outcomes = {}
    rows = []
    for shards in SHARD_COUNTS:
        engine = ShardedEngine(ShardedGraph(graph, shards,
                                            halo_hops=HALO_HOPS))
        report = engine.run_batch(queries)
        info = report.info
        outcomes[shards] = {
            "report": report,
            "match_sets": [item.result.match_set()
                           for item in report.items],
            "max_shard_tx": report.max_shard_transactions,
            "total_tx": report.total_transactions,
            "vertex_replication": info.vertex_replication,
            "edge_replication": info.edge_replication,
        }
        rows.append([
            shards,
            report.max_shard_transactions,
            report.total_transactions,
            f"""{report.max_shard_transactions
                / max(1, reference['transactions']):.2f}""",
            f"{info.vertex_replication:.2f}x",
            f"{info.edge_replication:.2f}x",
            report.total_matches,
        ])
    table = render_table(
        f"shard scaling on a {mesh_side}x{mesh_side} mesh "
        f"({num_queries} queries, halo {HALO_HOPS})",
        ["shards", "max shard tx", "total tx",
         "max/single", "V repl", "E repl", "matches"],
        rows,
        note=f"single-engine reference: "
             f"{reference['transactions']} tx, "
             f"{sum(len(m) for m in reference['match_sets'])} matches; "
             f"per-shard max tx must fall as shards grow while "
             f"match sets stay identical; "
             f"replication is the price the halo pays for "
             f"shard-local exactness")
    return outcomes, reference, table


@pytest.fixture(scope="module")
def scaling():
    outcomes, reference, table = run_shard_scaling()
    record_report("shard_scaling", table)
    return outcomes, reference


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_identical_to_single_engine(scaling, shards):
    outcomes, reference = scaling
    assert outcomes[shards]["match_sets"] == reference["match_sets"], (
        f"{shards}-shard match sets diverged from the single-engine "
        f"reference")


def test_per_shard_work_decreases_with_shard_count(scaling):
    outcomes, _ = scaling
    series = [outcomes[s]["max_shard_tx"] for s in SHARD_COUNTS]
    for smaller, bigger in zip(series, series[1:]):
        assert bigger < smaller, (
            f"per-shard max transactions must decrease as shards grow; "
            f"got {dict(zip(SHARD_COUNTS, series))}")


def test_replication_grows_with_shard_count(scaling):
    outcomes, _ = scaling
    series = [outcomes[s]["vertex_replication"] for s in SHARD_COUNTS]
    assert series[0] == pytest.approx(1.0)
    assert series[-1] > series[0]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="shard scaling benchmark (also runs under pytest "
                    "with assertions)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke size (16x16 mesh, 4 queries)")
    parser.add_argument("--mesh-side", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write BENCH_shard_scaling.json here "
                             "(a directory, or an exact .json path)")
    cli_args = parser.parse_args()

    side = cli_args.mesh_side or (16 if cli_args.quick else MESH_SIDE)
    nq = cli_args.queries or (4 if cli_args.quick else NUM_QUERIES)
    outcomes, reference, report_table = run_shard_scaling(
        mesh_side=side, num_queries=nq)
    print(report_table)
    for shards, out in outcomes.items():
        assert out["match_sets"] == reference["match_sets"], (
            f"{shards} shards diverged from the single-engine reference")
    series = [outcomes[s]["max_shard_tx"] for s in SHARD_COUNTS]
    assert all(b < a for a, b in zip(series, series[1:])), (
        f"per-shard max tx not decreasing: {series}")
    print(f"OK: all {len(outcomes)} sharded arms byte-identical to the "
          f"single engine; per-shard max tx {series} strictly "
          f"decreasing")
    if cli_args.json is not None:
        payload = {
            "bench": "shard_scaling",
            "params": {"mesh_side": side, "queries": nq,
                       "halo_hops": HALO_HOPS},
            "reference_tx": reference["transactions"],
            # "hash/" keeps the arm keys of earlier artifacts, which
            # also carried a "label/" partitioner arm.
            "arms": {
                f"hash/{shards}": {
                    "max_shard_tx": out["max_shard_tx"],
                    "total_tx": out["total_tx"],
                    "vertex_replication": out["vertex_replication"],
                    "edge_replication": out["edge_replication"],
                }
                for shards, out in outcomes.items()
            },
        }
        written = write_bench_json("shard_scaling", payload,
                                   cli_args.json)
        print(f"wrote {written}")
