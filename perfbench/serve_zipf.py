"""``serve_zipf``: skewed multi-tenant traffic over the TCP front end.

A ``GSIServer`` listens on localhost.  Behind it runs
``BatchEngine(sharded=...)`` over a 2-shard hash ``ShardedEngine``
(halo sized for the largest query with
``halo_hops_for_query_vertices``), on the process executor with 2
workers and the shared-memory data plane, config
``GSIConfig.gsi_opt()``.  The load generator is a closed loop: 2
connections with 4 outstanding requests each, pipelined.  Requests
follow a Zipf skew over 48 query shapes of 3-6 vertices drawn from the
vetted pool (ranks dealt by a fixed seeded permutation, independent of
cost); 25% are renumbered isomorphic copies and 4 tenants share them.
Generous quotas keep the admission path active without refusing
anything.

``sim_ms`` and ``sim_tx`` are not read from the batches the server ran:
in-flight dedup decides which requests execute, and that depends on
timing.  They are the mean simulated cost per request of the seeded
sequence, each request charged at its shape's serial replay, so they
move only when the cost model does.

The generator speaks NDJSON over its own ``asyncio.open_connection``
with a large line limit instead of ``repro.serve.client.GSIClient``:
that client's read loop dies on any response line over asyncio's
64 KiB default limit (see README.md, "Known issues").
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Dict, List, Tuple

import harness
import layers

SHAPES = 48
SIZES = (3, 4, 5, 6)
MAX_MATCHES = 2000
#: the heaviest eligible shapes, included in every seed's catalogue
HEAVY_SHAPES = 6
RENUMBERED_SHARE = 0.25
VARIANTS = 4
TENANTS = 4
ZIPF_EXPONENT = 1.1
CONNECTIONS = 2
OUTSTANDING_PER_CONNECTION = 4
SHARDS = 2
WORKERS = 2
SETUPS = 5
#: the shape catalogue is the same for every seed; the seed drives the
#: request sequence (Zipf draws, renumbered copies, tenants)
CATALOGUE_SEED = 7
#: generous enough that no request is ever refused
QUOTA_RATE = 100_000.0
QUOTA_BURST = 100_000.0
#: client-side line limit: far above any response this workload sends
CLIENT_LINE_LIMIT = 1 << 26
#: requests of the seeded sequence that sim_ms and sim_tx average over
SIM_REQUESTS = 4096


class _Catalogue:
    """The seeded request mix: shapes, renumbered variants, sequence."""

    def __init__(self, pool, seed: int) -> None:
        import numpy as np

        from repro.serve.protocol import query_to_wire
        from repro.service.fingerprint import query_fingerprint
        rng = np.random.default_rng(CATALOGUE_SEED)
        eligible = [e for e in pool
                    if e["k"] in SIZES and e["matches"] <= MAX_MATCHES]
        picks = harness.stratified_pick(eligible, SHAPES, rng,
                                        fixed_top=HEAVY_SHAPES)
        # Zipf ranks follow a seeded permutation of the catalogue, so a
        # shape's popularity says nothing about its cost
        self.shapes = [picks[int(i)] for i in rng.permutation(SHAPES)]
        #: (shape, variant) -> (query, perm, wire dict); variant 0 is
        #: the shape as drawn, the others renumbered copies
        self.variants: Dict[Tuple[int, int], Tuple[Any, Any, Dict]] = {}
        #: canonical digest per (shape, variant) and per exact query
        #: structure, to attribute requests to the batches that ran them
        self.canonical: Dict[Tuple[int, int], str] = {}
        self.digest_of: Dict[Tuple, str] = {}
        for s, entry in enumerate(self.shapes):
            base = harness.query_from_entry(entry)
            for v in range(VARIANTS):
                perm = (np.arange(base.num_vertices) if v == 0
                        else rng.permutation(base.num_vertices))
                query = harness.renumber(base, perm)
                self.variants[(s, v)] = (query, perm, query_to_wire(query))
                digest = query_fingerprint(query).digest
                self.canonical[(s, v)] = digest
                self.digest_of[_structure(query)] = digest
        ranks = np.arange(1, SHAPES + 1, dtype=np.float64)
        probs = ranks ** -ZIPF_EXPONENT
        self.probs = probs / probs.sum()
        self._seed = seed

    def requests(self):
        """Endless seeded stream of (shape, variant, tenant); every call
        starts the same stream afresh."""
        import numpy as np
        rng = np.random.default_rng(self._seed)
        while True:
            shapes = rng.choice(SHAPES, size=1024, p=self.probs)
            renumbered = rng.random(1024) < RENUMBERED_SHARE
            variants = rng.integers(1, VARIANTS, size=1024)
            tenants = rng.integers(0, TENANTS, size=1024)
            for s, r, v, t in zip(shapes, renumbered, variants, tenants):
                yield int(s), int(v) if r else 0, f"tenant{int(t)}"


def _structure(query) -> Tuple:
    return (tuple(int(x) for x in query.vertex_labels),
            tuple(sorted(query.edges())))


class _RecordingEngine:
    """The ``BatchEngine`` handed to ``GSIServer``, wrapped so the
    benchmark times every batch and reads its ``BatchReport``."""

    def __init__(self, inner, catalogue: _Catalogue) -> None:
        self._inner = inner
        self._catalogue = catalogue
        self.detailed = False
        self.batches: List[Dict[str, Any]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def run_batch(self, queries, *args, **kwargs):
        from repro.obs.trace import get_tracer
        with get_tracer().span("bench.serve_zipf.batch",
                               queries=len(queries)) as span:
            start = time.perf_counter()
            report = self._inner.run_batch(queries, *args, **kwargs)
            end = time.perf_counter()
        record: Dict[str, Any] = {"queries": len(queries)}
        if self.detailed:
            record.update(
                start=start, end=end, serve_span=span.parent_id,
                digests={self._catalogue.digest_of.get(_structure(q))
                         for q in queries},
                counters=[r.counters for r in report.results],
                results=report.results,
                cache=report.cache, shard=report.shard)
        self.batches.append(record)
        return report


def _warm_query(graph):
    from repro.graph.labeled_graph import LabeledGraph
    u, v, lab = next(iter(graph.edges()))
    return LabeledGraph([graph.vertex_label(u), graph.vertex_label(v)],
                        [(0, 1, lab)])


def _setup():
    """Graph, shards, engine artifacts, pool spawn, shm publish."""
    from repro.core.config import GSIConfig
    from repro.service import BatchEngine, make_executor
    from repro.shard import ShardedEngine, ShardedGraph
    from repro.shard.sharded_graph import halo_hops_for_query_vertices
    graph = harness.build_graph()
    sharded_graph = ShardedGraph(
        graph, SHARDS, partitioner="hash",
        halo_hops=halo_hops_for_query_vertices(max(SIZES)))
    executor = make_executor("process", max_workers=WORKERS)
    sharded = ShardedEngine(sharded_graph, GSIConfig.gsi_opt())
    engine = BatchEngine(sharded=sharded, executor=executor)
    warm = engine.run_batch([_warm_query(graph)])
    if warm.errors:
        raise harness.BenchError(f"warm-up batch failed: "
                                 f"{warm.items[0].error}")
    return graph, engine, executor, sharded


def _teardown(executor, sharded) -> None:
    executor.shutdown()
    sharded.close()


async def _drive(port: int, catalogue: _Catalogue, requests, seconds,
                 tracer) -> Tuple[List[Dict[str, Any]], float]:
    """The closed loop: every connection keeps its outstanding
    requests in flight until the deadline, then drains."""
    from repro.serve.protocol import (
        decode_message,
        encode_message,
        make_request,
    )
    loop = asyncio.get_running_loop()
    records: List[Dict[str, Any]] = []
    ids = itertools.count()
    start = time.perf_counter()
    deadline = start + seconds

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=CLIENT_LINE_LIMIT)
        pending: Dict[int, asyncio.Future] = {}

        async def read_loop() -> None:
            while True:
                line = await reader.readline()
                if not line:
                    break
                msg = decode_message(line)
                future = pending.pop(msg.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(msg)
            for future in pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection"))

        async def client() -> None:
            while time.perf_counter() < deadline:
                shape, variant, tenant = next(requests)
                rid = next(ids)
                request = make_request("query", rid, tenant=tenant)
                request["query"] = catalogue.variants[(shape, variant)][2]
                future = loop.create_future()
                pending[rid] = future
                span = (tracer.span("bench.serve_zipf.request",
                                    request=rid)
                        if tracer is not None else None)
                sent = time.perf_counter()
                writer.write(encode_message(request))
                await writer.drain()
                msg = await future
                received = time.perf_counter()
                if span is not None:
                    span.end()
                records.append({"shape": shape, "variant": variant,
                                "sent": sent, "received": received,
                                "msg": msg})

        reader_task = asyncio.create_task(read_loop())
        try:
            await asyncio.gather(*(client() for _ in
                                   range(OUTSTANDING_PER_CONNECTION)))
        finally:
            writer.close()
            await writer.wait_closed()
            await reader_task

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return records, time.perf_counter() - start


async def _serve(engine: _RecordingEngine, catalogue: _Catalogue,
                 seconds: float, trace: bool):
    """Run the untraced phase (and, when tracing, a traced one)."""
    from repro.obs.metrics import get_registry
    from repro.obs.trace import Tracer, set_tracer
    from repro.serve import GSIServer
    server = GSIServer(engine, quota_rate=QUOTA_RATE,
                       quota_burst=QUOTA_BURST, port=0)
    await server.start()
    requests = catalogue.requests()
    phases: Dict[str, Any] = {}
    try:
        records, wall = await _drive(
            server.bound_port, catalogue, requests,
            seconds / 2 if trace else seconds, None)
        phases["plain"] = {"records": records, "wall_s": wall}
        if trace:
            tracer = Tracer()
            engine.detailed = True
            first_batch = len(engine.batches)
            stats_before = server.metrics.to_dict()["requests"]
            shipped_before = harness.counter_total(
                get_registry().snapshot(), "gsi_shipped_bytes_total")
            set_tracer(tracer)
            try:
                records, wall = await _drive(server.bound_port, catalogue,
                                             requests, seconds / 2, tracer)
            finally:
                set_tracer(None)
            stats_after = server.metrics.to_dict()["requests"]
            phases["traced"] = {
                "records": records, "wall_s": wall,
                "batches": engine.batches[first_batch:],
                "spans": tracer.finished(),
                "requests": {k: stats_after[k] - stats_before[k]
                             for k in stats_after},
                "shipped_bytes": harness.counter_total(
                    get_registry().snapshot(), "gsi_shipped_bytes_total")
                - shipped_before,
                "max_batch": server.max_batch,
            }
        phases["peak_rss_mb"] = harness.peak_rss_mb(harness.child_pids())
    finally:
        await server.stop()
    return phases


def _replay(catalogue: _Catalogue, graph) -> List[Dict[str, Any]]:
    """Serial in-process replay of every shape on one engine: its
    match-set digest and simulated cost."""
    from repro.core.config import GSIConfig
    from repro.core.engine import GSIEngine
    engine = GSIEngine(graph, GSIConfig.gsi_opt())
    replayed = []
    for s in range(len(catalogue.shapes)):
        result = engine.match(catalogue.variants[(s, 0)][0])
        replayed.append({
            "digest": harness.match_digest(result.matches),
            "sim_ms": float(result.elapsed_ms),
            "tx": float(result.counters.gld + result.counters.gst)})
    return replayed


def _sim_per_request(catalogue: _Catalogue,
                     replayed: List[Dict[str, Any]]) -> Dict[str, float]:
    """Mean simulated cost of the seeded request sequence's first
    ``SIM_REQUESTS`` requests, each charged at its shape's serial
    replay.  Unlike the batches the server ran, which in-flight dedup
    thins out depending on timing, this is fixed by the seed."""
    shapes = [s for s, _, _ in
              itertools.islice(catalogue.requests(), SIM_REQUESTS)]
    return {key: harness.mean([replayed[s][key] for s in shapes])
            for key in ("sim_ms", "tx")}


def _check_responses(records, catalogue: _Catalogue,
                     replayed: List[Dict[str, Any]],
                     out: harness.Outcome) -> int:
    """Every response must equal a serial in-process replay of its
    shape, translated onto the submitted numbering."""
    import numpy as np
    ok = 0
    for rec in records:
        out.attempted += 1
        msg = rec["msg"]
        if msg.get("status") != "ok":
            out.op_failed(f"request {msg.get('id')}: status "
                          f"{msg.get('status')} {msg.get('error', '')}")
            continue
        perm = catalogue.variants[(rec["shape"], rec["variant"])][1]
        matches = msg.get("matches", [])
        if matches:
            matches = np.asarray(matches, dtype=np.int64)[:, perm]
        if harness.match_digest(matches) != replayed[rec["shape"]]["digest"]:
            out.op_failed(f"request {msg.get('id')}: match set differs "
                          f"from the serial replay")
            continue
        ok += 1
    return ok


def _layer_metrics(traced: Dict[str, Any], catalogue: _Catalogue,
                   graph_vertices: int) -> Dict[str, float]:
    spans = traced["spans"]
    metrics = layers.span_metrics(spans)
    batches = traced["batches"]
    tally = layers.CandidateTally()
    counters = []
    owned = raw = 0
    shard_tx: List[int] = []
    replication = 0.0
    for batch in batches:
        for result in batch["results"]:
            tally.add(result)
        counters.extend(batch["counters"])
        shard = batch["shard"]
        if shard is None:
            continue
        for item in shard.items:
            for stat in item.per_shard:
                owned += stat.owned_matches
                raw += stat.raw_matches
        if not shard_tx:
            shard_tx = [0] * len(shard.shard_transactions)
        for i, tx in enumerate(shard.shard_transactions):
            shard_tx[i] += int(tx)
        if shard.info is not None:
            replication = float(shard.info.vertex_replication)
    metrics.update(tally.metrics(graph_vertices))
    metrics.update(layers.cache_metrics(
        harness.merge_cache(b["cache"] for b in batches)))
    metrics.update(harness.sim_layer_metrics(harness.sim_totals(counters)))
    metrics["shard.owned_over_raw"] = owned / raw if raw else 0.0
    metrics["shard.replication"] = replication
    metrics["shard.tx_imbalance"] = (
        max(shard_tx) / harness.mean(shard_tx)
        if shard_tx and sum(shard_tx) else 0.0)
    metrics["executor.shipped_bytes_per_batch"] = (
        traced["shipped_bytes"] / len(batches) if batches else 0.0)
    metrics["serve.batch_fill_mean"] = harness.mean(
        [b["queries"] / traced["max_batch"] for b in batches])
    counts = traced["requests"]
    metrics["serve.dedup_share"] = (
        counts["deduped"] / counts["admitted"] if counts["admitted"]
        else 0.0)
    metrics["serve.shed_share"] = (
        counts["shed"] / counts["received"] if counts["received"]
        else 0.0)
    durations = {s["span_id"]: float(s["duration_ms"]) for s in spans
                 if s["name"] == "serve.batch"}
    queue_ms = []
    for rec in traced["records"]:
        digest = catalogue.canonical[(rec["shape"], rec["variant"])]
        batch = next((b for b in batches
                      if digest in b["digests"]
                      and rec["sent"] <= b["end"] <= rec["received"]),
                     None)
        if batch is None or batch["serve_span"] not in durations:
            continue
        queue_ms.append((rec["received"] - rec["sent"]) * 1000.0
                        - durations[batch["serve_span"]])
    metrics["serve.queue_ms_p50"] = harness.pct(queue_ms, 50)
    metrics["serve.queue_ms_p95"] = harness.pct(queue_ms, 95)
    return metrics


def _check_trace(spans, out: harness.Outcome) -> None:
    """One connected trace: every span's parent recorded, worker spans
    from the shard process pool included."""
    from repro.obs.export import validate_span_tree
    verdict = validate_span_tree(spans)
    if not verdict["connected"]:
        out.problem(f"serve trace not connected: "
                    f"{len(verdict['orphans'])} orphan spans")
    roots = {s["name"] for s in spans if s.get("parent_id") is None}
    if not roots <= {"bench.serve_zipf.request", "serve.batch"}:
        out.problem(f"unexpected root spans {sorted(roots)}")
    if len({s.get("pid") for s in spans}) < 2:
        out.problem("no worker spans from the shard process pool")


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from repro.obs.metrics import get_registry
    from repro.obs.trace import Tracer, set_tracer
    out = harness.Outcome()
    segments_before = harness.shm_segments()
    clock = harness.HostClock()
    setups: List[float] = []
    setup_spans: List[Dict[str, Any]] = []
    published = 0.0
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        tracer = Tracer() if trace and last else None
        bytes_before = harness.counter_total(
            get_registry().snapshot(), "gsi_shm_published_bytes_total")
        if tracer is not None:
            set_tracer(tracer)
        try:
            setup_s, (graph, inner, executor, sharded) = \
                clock.timed(_setup)
        finally:
            set_tracer(None)
        setups.append(setup_s)
        published = harness.counter_total(
            get_registry().snapshot(),
            "gsi_shm_published_bytes_total") - bytes_before
        if tracer is not None:
            setup_spans = tracer.finished()
        if not last:
            _teardown(executor, sharded)
    try:
        catalogue = _Catalogue(harness.load_pool(graph), seed)
        engine = _RecordingEngine(inner, catalogue)
        phases = asyncio.run(_serve(engine, catalogue, seconds, trace))
    finally:
        _teardown(executor, sharded)
    leaked = harness.shm_segments() - segments_before
    if leaked:
        out.problem(f"{len(leaked)} shared-memory segments outlived "
                    f"the run: {sorted(leaked)[:3]}")

    plain = phases["plain"]
    replayed = _replay(catalogue, graph)
    plain_ok = _check_responses(plain["records"], catalogue, replayed, out)
    lat = [(r["received"] - r["sent"]) * 1000.0 for r in plain["records"]]
    plain_ops = plain_ok / plain["wall_s"]
    if not trace:
        sim = _sim_per_request(catalogue, replayed)
        out.metrics = {
            "setup_s": harness.pct(setups, 50),
            "ops_per_s": plain_ops,
            "latency_p50_ms": harness.pct(lat, 50),
            "latency_p95_ms": harness.pct(lat, 95),
            "read_latency_p50_ms": harness.pct(lat, 50),
            "read_latency_p95_ms": harness.pct(lat, 95),
            "peak_rss_mb": phases["peak_rss_mb"],
            "sim_ms": sim["sim_ms"],
            "sim_tx": sim["tx"],
        }
    else:
        traced = phases["traced"]
        traced_ok = _check_responses(traced["records"], catalogue,
                                     replayed, out)
        _check_trace(traced["spans"], out)
        metrics = _layer_metrics(traced, catalogue, graph.num_vertices)
        setup_metrics = layers.span_metrics(setup_spans)
        metrics["shm.publish_ms"] = setup_metrics["shm.publish_ms"]
        metrics["shm.published_bytes"] = published
        metrics["latency_samples"] = float(len(traced["records"]))
        metrics["error_share"] = out.failed / max(1, out.attempted)
        metrics["obs.trace_overhead"] = (
            traced_ok / traced["wall_s"] / plain_ops)
        out.metrics = metrics
    out.info = {"latency_samples": len(lat), "shards": SHARDS,
                "host_speed": clock.factor(),
                "executor": f"process x{WORKERS}, shm plane",
                "connections": CONNECTIONS,
                "outstanding": CONNECTIONS * OUTSTANDING_PER_CONNECTION,
                "config": "gsi_opt"}
    return out
