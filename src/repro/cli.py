"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``datasets``
    List the built-in dataset stand-ins with their Table III statistics.
``match``
    Run one engine on one dataset workload and print per-query results.
``shootout``
    Run several engines on the same workload (a mini Figure 12 row).
``batch``
    Serve a workload through the batch service (worker pool + plan
    cache) and print per-query results plus service-level metrics.
    With ``--shards N`` the workload is served scatter-gather over a
    partitioned, halo-replicated :class:`~repro.shard.ShardedGraph`
    instead of one monolithic engine (identical match sets).
``shard-info``
    Partition one dataset and print the per-shard layout: owned /
    halo vertex counts, edges, and the replication overhead the halo
    costs.
``stream``
    Register continuous queries, replay a random update stream through
    the dynamic subsystem, and print per-batch delta-match results plus
    incremental-maintenance costs.
``serve``
    Run the always-on serving front end: an asyncio NDJSON-over-TCP
    server that micro-batches arriving queries by deadline, dedups
    in-flight identical queries, applies admission control and
    per-tenant quotas, and reports SLO metrics via the ``stats`` RPC
    (see :mod:`repro.serve`).  Runs until interrupted; prints the
    metrics summary on shutdown.
``obs``
    Inspect a span trace recorded with ``--trace-out``: per-span-name
    aggregates, trace-tree connectivity (exit 1 when disconnected),
    and an optional chrome://tracing dump via ``--chrome PATH``.

``batch``, ``stream``, and ``serve`` accept ``--trace-out PATH`` to
record every span the command produces — including spans shipped back
from process-pool workers — as NDJSON under one ``cli.<command>`` root.

Examples::

    python -m repro.cli datasets
    python -m repro.cli match --dataset watdiv --engine gsi-opt --queries 3
    python -m repro.cli shootout --dataset gowalla --queries 3
    python -m repro.cli batch --dataset gowalla --queries 8 --repeat 2
    python -m repro.cli batch --dataset road --shards 4
    python -m repro.cli shard-info --dataset road --shards 8
    python -m repro.cli stream --dataset enron --batches 5 --batch-size 16
    python -m repro.cli serve --dataset gowalla --port 8471 --max-batch 16
    python -m repro.cli batch --dataset enron --shards 2 \\
        --executor process --trace-out trace.ndjson
    python -m repro.cli obs trace.ndjson --chrome trace.json
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional

from repro.bench.reporting import render_table
from repro.bench.runner import (
    baseline_factory,
    gsi_factory,
    run_workload,
    run_workload_batched,
)
from repro.bench.workloads import Workload
from repro.core.config import GSIConfig
from repro.graph import datasets
from repro.graph.stats import graph_stats
from repro.obs.export import write_spans_ndjson
from repro.obs.trace import Tracer, set_tracer

ENGINE_CHOICES = ["gsi", "gsi-opt", "gsi-baseline", "vf3", "cfl",
                  "ullmann", "turbo", "gpsm", "gunrock"]

GSI_CONFIGS = {
    "gsi": GSIConfig.gsi,
    "gsi-opt": GSIConfig.gsi_opt,
    "gsi-baseline": GSIConfig.baseline,
}


def _engine_config(args: argparse.Namespace) -> GSIConfig:
    """The selected preset, with the CLI join-kernel override applied."""
    cfg = GSI_CONFIGS[args.engine]()
    join_kernel = getattr(args, "join_kernel", None)
    if join_kernel is not None:
        cfg = replace(cfg, join_kernel=join_kernel)
    return cfg


def _engine_factory(name: str, join_kernel: Optional[str] = None):
    if name in GSI_CONFIGS:
        cfg = GSI_CONFIGS[name]()
        if join_kernel is not None:
            cfg = replace(cfg, join_kernel=join_kernel)
        return gsi_factory(cfg)
    return baseline_factory(name)


def cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name in datasets.all_names():
        spec = datasets.SPECS[name]
        s = graph_stats(datasets.load(name))
        rows.append([name, spec.graph_type, s.num_vertices, s.num_edges,
                     s.num_vertex_labels, s.num_edge_labels,
                     s.max_degree, f"{s.mean_degree:.1f}"])
    print(render_table(
        "dataset stand-ins (Table III analogs)",
        ["name", "type", "|V|", "|E|", "|LV|", "|LE|", "MD", "avg deg"],
        rows,
        note="paper originals: enron 69K/274K, gowalla 196K/1.9M, "
             "road 14M/16M, WatDiv 10M/109M, DBpedia 22M/170M"))
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    wl = Workload.for_dataset(args.dataset, num_queries=args.queries,
                              query_vertices=args.query_vertices,
                              seed=args.seed)
    factory = _engine_factory(args.engine,
                              getattr(args, "join_kernel", None))
    summary = run_workload(factory, wl, engine_label=args.engine)
    rows = []
    for i, r in enumerate(summary.results):
        rows.append([i, r.num_matches,
                     "timeout" if r.timed_out else f"{r.elapsed_ms:.3f}",
                     r.counters.join_gld, r.counters.gst,
                     r.min_candidate_size])
    print(render_table(
        f"{args.engine} on {args.dataset} "
        f"({args.query_vertices}-vertex queries)",
        ["query", "matches", "ms", "join GLD", "GST", "min |C(u)|"],
        rows,
        note=f"avg {summary.avg_ms:.3f} ms over "
             f"{summary.queries - summary.timeouts} completed queries"))
    return 0


def cmd_shootout(args: argparse.Namespace) -> int:
    wl = Workload.for_dataset(args.dataset, num_queries=args.queries,
                              query_vertices=args.query_vertices,
                              seed=args.seed)
    rows = []
    reference: Optional[int] = None
    agree = True
    for engine in args.engines:
        summary = run_workload(
            _engine_factory(engine, getattr(args, "join_kernel", None)),
            wl, engine_label=engine)
        if summary.timed_out:
            rows.append([engine, "-", "-", "timeout"])
            continue
        if reference is None:
            reference = summary.total_matches
        elif summary.total_matches != reference:
            agree = False
        rows.append([engine, f"{summary.avg_ms:.3f}",
                     summary.total_matches,
                     f"{summary.timeouts}/{summary.queries} timeouts"])
    print(render_table(
        f"engine shoot-out on {args.dataset}",
        ["engine", "avg ms", "matches", "status"],
        rows,
        note="all completing engines found the same matches"
             if agree else "WARNING: match counts disagree!"))
    return 0 if agree else 1


@contextmanager
def _tracing(args: argparse.Namespace) -> Iterator[None]:
    """Install a recording tracer around one traced CLI command.

    A no-op unless the command was given ``--trace-out PATH``;
    otherwise every span the command records — including spans
    shipped back from process-pool workers — lands in PATH as NDJSON
    when the command finishes, under a single ``cli.<command>`` root.
    """
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        yield
        return
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with tracer.span(f"cli.{args.command}",
                         dataset=getattr(args, "dataset", "")):
            yield
    finally:
        set_tracer(previous)
        spans = tracer.finished()
        write_spans_ndjson(spans, trace_out)
        print(f"trace: {len(spans)} spans -> {trace_out}",
              file=sys.stderr)


def _reject_non_positive(name: str, value: int) -> bool:
    """Print a clear error for a flag that must be >= 1."""
    if value is not None and value < 1:
        print(f"error: {name} must be >= 1, got {value}",
              file=sys.stderr)
        return True
    return False


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.service.executors import make_executor

    if (_reject_non_positive("--workers", args.workers)
            or _reject_non_positive("--cache-capacity",
                                    args.cache_capacity)
            or _reject_non_positive("--shards", args.shards)):
        return 2
    wl = Workload.for_dataset(args.dataset, num_queries=args.queries,
                              query_vertices=args.query_vertices,
                              seed=args.seed)
    if args.repeat > 1:
        # Re-submit the same query set; repeats hit the plan cache.
        wl.queries = wl.queries * args.repeat

    sharded = None
    if args.shards is not None:

        from repro.bench.runner import (
            DEFAULT_MAX_ROWS,
            DEFAULT_THRESHOLD_MS,
        )
        from repro.shard import (
            ShardedEngine,
            ShardedGraph,
            halo_hops_for_query_vertices,
        )
        cfg = replace(_engine_config(args),
                      budget_ms=DEFAULT_THRESHOLD_MS,
                      max_intermediate_rows=DEFAULT_MAX_ROWS)
        sg = ShardedGraph(
            wl.graph, args.shards,
            halo_hops=halo_hops_for_query_vertices(args.query_vertices))
        sharded = ShardedEngine(sg, cfg,
                                cache_capacity=args.cache_capacity)

    with _tracing(args), \
            make_executor(args.executor, args.workers) as executor:
        summary, report = run_workload_batched(
            wl, config=_engine_config(args),
            engine_label=f"{args.engine}-batch",
            cache_capacity=args.cache_capacity,
            executor=executor,
            sharded=sharded)
    if sharded is not None:
        sharded.close()  # unlink any published shard segments
    rows = []
    for i, item in enumerate(report.items):
        r = item.result
        rows.append([i, r.num_matches,
                     "timeout" if r.timed_out else f"{r.elapsed_ms:.3f}",
                     f"{item.host_ms:.1f}",
                     "hit" if item.plan_cached else "miss"])
    shard_note = ""
    if report.shard is not None:
        info = report.shard.info
        shard_note = (f" | {info.num_shards} shards "
                      f"(halo {info.halo_hops}, "
                      f"{info.vertex_replication:.2f}x replication), "
                      f"per-shard tx max/total = "
                      f"{report.shard.max_shard_transactions}/"
                      f"{report.shard.total_transactions}")
    print(render_table(
        f"batch service: {args.engine} on {args.dataset} "
        f"({args.executor} executor, {args.workers} workers, "
        f"cache {args.cache_capacity})",
        ["query", "matches", "sim ms", "host ms", "plan"],
        rows,
        note=report.summary_line() + shard_note))
    return 0


def cmd_shard_info(args: argparse.Namespace) -> int:
    from repro.shard import ShardedGraph, halo_hops_for_query_vertices

    if _reject_non_positive("--shards", args.shards):
        return 2
    graph = datasets.load(args.dataset)
    halo = halo_hops_for_query_vertices(args.query_vertices)
    sg = ShardedGraph(graph, args.shards, halo_hops=halo)
    info = sg.info()
    rows = []
    for shard in sg.shards:
        total = shard.num_owned + shard.num_halo
        rows.append([shard.shard_id, shard.num_owned, shard.num_halo,
                     total, shard.graph.num_edges,
                     f"{total / max(1, graph.num_vertices):.2f}"])
    print(render_table(
        f"shard layout: {args.dataset} over {args.shards} shards "
        f"(halo {halo} for "
        f"{args.query_vertices}-vertex queries)",
        ["shard", "owned", "halo", "|V|", "|E|", "frac of G"],
        rows,
        note=f"replication: {info.vertex_replication:.2f}x vertices, "
             f"{info.edge_replication:.2f}x edges over "
             f"|V|={graph.num_vertices} |E|={graph.num_edges}; every "
             f"query of radius <= {halo} is answered shard-locally"))
    return 0


def _reject_non_positive_float(name: str, value) -> bool:
    """Print a clear error for a flag that must be > 0."""
    if value is not None and value <= 0:
        print(f"error: {name} must be > 0, got {value}",
              file=sys.stderr)
        return True
    return False


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.serve import GSIServer
    from repro.service import BatchEngine
    from repro.service.executors import make_executor

    if (_reject_non_positive("--port", args.port)
            or _reject_non_positive("--max-batch", args.max_batch)
            or _reject_non_positive("--max-pending", args.max_pending)
            or _reject_non_positive("--workers", args.workers)
            or _reject_non_positive("--cache-capacity",
                                    args.cache_capacity)
            or _reject_non_positive_float("--max-delay-ms",
                                          args.max_delay_ms)
            or _reject_non_positive_float("--quota-rate",
                                          args.quota_rate)
            or _reject_non_positive_float("--quota-burst",
                                          args.quota_burst)):
        return 2
    graph = datasets.load(args.dataset)

    async def _run() -> None:
        with make_executor(args.executor, args.workers) as executor, \
                BatchEngine(graph, _engine_config(args),
                            cache_capacity=args.cache_capacity,
                            executor=executor) as engine:
            server = GSIServer(
                engine, max_batch=args.max_batch,
                max_delay_ms=args.max_delay_ms,
                max_pending=args.max_pending,
                quota_rate=args.quota_rate,
                quota_burst=args.quota_burst,
                host=args.host, port=args.port)
            async with server:
                print(f"serving {args.dataset} ({args.engine}, "
                      f"{args.executor} executor) on "
                      f"{args.host}:{server.bound_port} | "
                      f"max_batch={args.max_batch} "
                      f"max_delay_ms={args.max_delay_ms} "
                      f"max_pending={args.max_pending} "
                      f"quota={args.quota_rate or 'off'}",
                      flush=True)
                stop = asyncio.Event()
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGINT, signal.SIGTERM):
                    loop.add_signal_handler(sig, stop.set)
                await stop.wait()
                print("shutting down: draining pending batches...",
                      flush=True)
            print(json.dumps(server.stats(), indent=2, sort_keys=True))

    with _tracing(args):
        asyncio.run(_run())
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.dynamic import (
        StreamEngine,
        full_rebuild_transactions,
        random_update_stream,
    )
    from repro.graph.generators import query_workload

    graph = datasets.load(args.dataset)
    rows = []
    total_tx = 0
    total_commit_tx = 0
    health = {}
    with _tracing(args):
        engine = StreamEngine(graph, _engine_config(args),
                              compact_dead_ratio=args.compact_dead_ratio)
        queries = query_workload(graph, args.queries,
                                 args.query_vertices, seed=args.seed)
        qids = [engine.register(q) for q in queries]
        initial = sum(len(engine.matches(qid)) for qid in qids)

        stream = random_update_stream(
            graph, num_batches=args.batches, batch_size=args.batch_size,
            seed=args.seed, delete_fraction=args.delete_fraction)
        for delta in stream:
            report = engine.apply_batch(delta)
            tx = report.maintenance.gld + report.maintenance.gst
            total_tx += tx
            total_commit_tx += report.commit_transactions
            health = report.pcsr
            live = sum(d.num_matches
                       for d in report.query_deltas.values())
            rows.append([report.batch_index,
                         f"+{report.num_inserted}/-{report.num_deleted}",
                         report.num_new_vertices,
                         f"+{report.total_created}/"
                         f"-{report.total_destroyed}",
                         live, report.commit_transactions, tx,
                         report.rebuilds, report.compactions,
                         report.plans_invalidated,
                         f"{report.wall_ms:.1f}"])
    rebuild_tx = full_rebuild_transactions(
        engine.graph, signature_bits=engine.config.signature_bits,
        gpn=engine.config.gpn)
    print(render_table(
        f"stream: {args.queries} continuous queries on {args.dataset} "
        f"({args.batches} batches x {args.batch_size} updates)",
        ["batch", "edges", "+V", "matches", "live", "commit tx",
         "maint tx", "rebuilds", "compact", "plans inv", "ms"],
        rows,
        note=f"{initial} initial matches | commits {total_commit_tx} tx "
             f"(O(changes) CSR splice) + maintenance {total_tx} tx "
             f"over the stream vs "
             f"{rebuild_tx * args.batches} tx for rebuild-per-batch | "
             f"PCSR health: dead {health.get('total_dead_words', 0)}/"
             f"{health.get('total_ci_words', 0)} ci words "
             f"({100.0 * float(health.get('dead_ratio', 0.0)):.1f}%), "
             f"max occupancy "
             f"{float(health.get('max_occupancy', 0.0)):.2f}, "
             f"{health.get('compactions', 0)} compactions, "
             f"{health.get('rebuilds', 0)} rebuilds"))
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        read_spans_ndjson,
        validate_span_tree,
        write_chrome_trace,
    )

    try:
        spans = read_spans_ndjson(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    tree = validate_span_tree(spans)
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        by_name.setdefault(str(span["name"]), []).append(
            float(span["duration_ms"]))
    rows = []
    for name in sorted(by_name):
        durations = by_name[name]
        rows.append([name, len(durations),
                     f"{sum(durations):.2f}",
                     f"{max(durations):.2f}"])
    pids = sorted({int(span.get("pid", 0)) for span in spans})
    verdict = "connected" if tree["connected"] else "DISCONNECTED"
    print(render_table(
        f"span trace: {args.trace}",
        ["span", "count", "total ms", "max ms"],
        rows,
        note=f"{tree['spans']} spans | "
             f"{len(tree['trace_ids'])} trace ids | "
             f"{len(tree['roots'])} roots | "
             f"{len(tree['orphans'])} orphans | "
             f"{len(pids)} processes | {verdict}"))
    if args.chrome:
        path = write_chrome_trace(spans, args.chrome)
        print(f"chrome trace -> {path}")
    return 0 if tree["connected"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="GSI reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset stand-ins")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="gowalla",
                       choices=datasets.all_names())
        p.add_argument("--queries", type=int, default=3)
        p.add_argument("--query-vertices", type=int, default=12)
        p.add_argument("--seed", type=int, default=42)

    def add_join_kernel_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--join-kernel", default=None,
                       choices=["rows", "vector"],
                       help="host-side join lane (default: config/"
                            "GSI_JOIN_KERNEL); both lanes give identical "
                            "matches and simulated transactions")

    def add_executor_args(p: argparse.ArgumentParser, what: str) -> None:
        p.add_argument("--executor", default="serial",
                       choices=["serial", "process"],
                       help=f"how {what} runs: in-process loop, or a "
                            f"process pool over shared memory (true "
                            f"multi-core)")
        p.add_argument("--workers", type=int, default=4,
                       help="process-pool size")

    def add_trace_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a span trace of this command and "
                            "write it to PATH as NDJSON (inspect with "
                            "'python -m repro.cli obs PATH')")

    m = sub.add_parser("match", help="run one engine on one workload")
    add_workload_args(m)
    m.add_argument("--engine", default="gsi-opt", choices=ENGINE_CHOICES)
    add_join_kernel_arg(m)

    s = sub.add_parser("shootout", help="compare engines on one workload")
    add_workload_args(s)
    s.add_argument("--engines", nargs="+", default=["vf3", "gpsm",
                                                    "gunrock", "gsi-opt"],
                   choices=ENGINE_CHOICES)
    add_join_kernel_arg(s)

    b = sub.add_parser("batch",
                       help="serve one workload via the batch service")
    add_workload_args(b)
    b.add_argument("--engine", default="gsi-opt",
                   choices=sorted(GSI_CONFIGS))
    add_executor_args(b, "the joining phase")
    b.add_argument("--cache-capacity", type=int, default=256)
    add_join_kernel_arg(b)
    b.add_argument("--repeat", type=int, default=1,
                   help="submit the query set this many times "
                        "(repeats exercise the plan cache)")
    b.add_argument("--shards", type=int, default=None,
                   help="serve scatter-gather over this many "
                        "partitioned, halo-replicated shards instead "
                        "of one monolithic engine")
    add_trace_arg(b)

    si = sub.add_parser("shard-info",
                        help="partition a dataset and print the "
                             "per-shard layout + replication overhead")
    si.add_argument("--dataset", default="gowalla",
                    choices=datasets.all_names())
    si.add_argument("--shards", type=int, default=4)
    si.add_argument("--query-vertices", type=int, default=12,
                    help="query size the halo depth must cover")

    st = sub.add_parser("stream",
                        help="continuous queries over an update stream")
    add_workload_args(st)
    # gsi-baseline is excluded: the stream engine maintains PCSR in
    # place, so it needs a PCSR-backed config.
    st.add_argument("--engine", default="gsi",
                    choices=["gsi", "gsi-opt"])
    st.add_argument("--batches", type=int, default=5)
    st.add_argument("--batch-size", type=int, default=16)
    st.add_argument("--delete-fraction", type=float, default=0.3)
    st.add_argument("--compact-dead-ratio", type=float, default=0.25,
                    help="compact a PCSR partition's ci region in place "
                         "when dead words exceed this fraction")
    add_join_kernel_arg(st)
    add_trace_arg(st)

    sv = sub.add_parser("serve",
                        help="run the always-on serving front end "
                             "(asyncio NDJSON-over-TCP micro-batching "
                             "server)")
    sv.add_argument("--dataset", default="gowalla",
                    choices=datasets.all_names())
    sv.add_argument("--engine", default="gsi-opt",
                    choices=sorted(GSI_CONFIGS))
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8471)
    sv.add_argument("--max-batch", type=int, default=16,
                    help="dispatch a micro-batch once this many "
                         "distinct queries are pending")
    sv.add_argument("--max-delay-ms", type=float, default=2.0,
                    help="deadline: the oldest pending query waits at "
                         "most this long before its batch dispatches")
    sv.add_argument("--max-pending", type=int, default=256,
                    help="admission bound; beyond it requests are shed "
                         "with an 'overloaded' status")
    sv.add_argument("--quota-rate", type=float, default=None,
                    help="per-tenant token-bucket refill (queries/s); "
                         "omit to disable quotas")
    sv.add_argument("--quota-burst", type=float, default=None,
                    help="per-tenant token-bucket capacity (defaults "
                         "to max(1, quota-rate))")
    add_executor_args(sv, "each micro-batch's joining phase")
    sv.add_argument("--cache-capacity", type=int, default=256)
    add_join_kernel_arg(sv)
    add_trace_arg(sv)

    ob = sub.add_parser("obs",
                        help="inspect a span trace recorded with "
                             "--trace-out: per-span aggregates, tree "
                             "connectivity, optional chrome://tracing "
                             "dump")
    ob.add_argument("trace",
                    help="NDJSON span log written by --trace-out")
    ob.add_argument("--chrome", default=None, metavar="PATH",
                    help="also write a chrome://tracing / Perfetto "
                         "JSON dump to PATH")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "match": cmd_match,
        "shootout": cmd_shootout,
        "batch": cmd_batch,
        "shard-info": cmd_shard_info,
        "stream": cmd_stream,
        "serve": cmd_serve,
        "obs": cmd_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
