"""Tests for the always-on serving subsystem (:mod:`repro.serve`).

Covers the wire protocol, deadline micro-batching, concurrent in-flight
dedup (the N-identical-queries → one-execution contract, including the
mid-flight-failure fan-out), admission control, per-tenant quotas, the
metrics snapshot, the TCP front door, and the ``serve`` CLI flags.
"""

import asyncio
import json
import threading

import pytest

from repro.cli import main
from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import scoped_registry
from repro.serve import (
    GSIClient,
    GSIServer,
    ProtocolError,
    ServerMetrics,
    TokenBucket,
    decode_message,
    encode_message,
    make_request,
    query_from_wire,
    query_to_wire,
    translate_result,
)
from repro.service import BatchEngine, PlanCache


@pytest.fixture(scope="module")
def graph():
    return scale_free_graph(200, 3, 5, 5, seed=3)


@pytest.fixture(scope="module")
def queries(graph):
    return [random_walk_query(graph, 4, seed=50 + i) for i in range(8)]


def make_engine(graph, **kwargs):
    return BatchEngine(graph, GSIConfig.gsi_opt(), **kwargs)


def relabeled(query: LabeledGraph) -> LabeledGraph:
    """An isomorphic copy of ``query`` with vertex ids reversed."""
    n = query.num_vertices
    perm = list(reversed(range(n)))  # perm[old] = new
    labels = [0] * n
    for old, new in enumerate(perm):
        labels[new] = query.vertex_label(old)
    edges = [(perm[u], perm[v], lab) for u, v, lab in query.edges()]
    return LabeledGraph(labels, edges)


def run(coro):
    return asyncio.run(coro)


def snapshot_samples(snapshot):
    """``{(name, sorted label items): value}`` for every counter and
    gauge series of a registry snapshot."""
    return {(name, tuple(sorted(entry["labels"].items()))): entry["value"]
            for name, metric in snapshot.items()
            if metric["type"] in ("counter", "gauge")
            for entry in metric["values"]}


def prometheus_samples(text):
    """The same mapping parsed back from Prometheus text (histogram
    series skipped)."""
    kinds = {}
    samples = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            kinds[name] = kind
            continue
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name, _, inner = series.partition("{")
        if kinds.get(name) not in ("counter", "gauge"):
            continue
        labels = tuple(sorted(
            (key, raw.strip('"')) for key, raw in
            (pair.split("=", 1) for pair in inner.rstrip("}").split(",")
             if pair)))
        samples[(name, labels)] = float(value)
    return samples


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_query_round_trip(self, queries):
        for query in queries:
            back = query_from_wire(query_to_wire(query))
            assert list(back.vertex_labels) == \
                list(query.vertex_labels)
            assert set(back.edges()) == set(query.edges())

    def test_frame_round_trip(self, queries):
        msg = make_request("query", 7, tenant="t0",
                           query=queries[0])
        frame = encode_message(msg)
        assert frame.endswith(b"\n")
        assert b"\n" not in frame[:-1]
        assert decode_message(frame) == msg

    @pytest.mark.parametrize("wire", [
        None,
        [],
        {"edges": [[0, 1, 0]]},                         # no labels
        {"vertex_labels": [0], "edges": [[0, 5, 0]]},   # v out of range
        {"vertex_labels": [0, 1], "edges": [[0, 1]]},   # short edge
    ])
    def test_malformed_query_rejected(self, wire):
        with pytest.raises(ProtocolError):
            query_from_wire(wire)

    def test_malformed_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")  # frames must be objects


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: now[0])
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        granted, retry_after_ms = bucket.try_take()
        assert not granted
        assert retry_after_ms == pytest.approx(100.0)
        now[0] += 0.1  # one token refilled at 10 tokens/s
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


# ----------------------------------------------------------------------
# result translation (isomorphic dedup followers)
# ----------------------------------------------------------------------


class TestTranslateResult:
    def test_renumbered_query_same_match_set(self, graph, queries):
        engine = GSIEngine(graph, GSIConfig.gsi_opt())
        cache = make_engine(graph).plan_cache
        query = queries[0]
        twin = relabeled(query)
        leader_fp = cache.fingerprint(query)
        follower_fp = cache.fingerprint(twin)
        assert leader_fp.digest == follower_fp.digest

        translated = translate_result(engine.match(query), leader_fp,
                                      follower_fp)
        assert translated.match_set() == \
            engine.match(twin).match_set()

    def test_identical_mapping_shares_object(self, graph, queries):
        engine = GSIEngine(graph, GSIConfig.gsi_opt())
        cache = make_engine(graph).plan_cache
        fp = cache.fingerprint(queries[0])
        result = engine.match(queries[0])
        assert translate_result(result, fp, fp) is result


# ----------------------------------------------------------------------
# micro-batching
# ----------------------------------------------------------------------


class TestMicroBatching:
    def test_concurrent_submissions_coalesce(self, graph, queries):
        engine = make_engine(graph)

        async def scenario():
            async with GSIServer(engine, max_batch=8,
                                 max_delay_ms=50.0) as server:
                outcomes = await asyncio.gather(
                    *[server.submit(q) for q in queries])
            return server, outcomes

        server, outcomes = run(scenario())
        assert all(o.status == "ok" for o in outcomes)
        # 8 distinct queries submitted in one loop tick with a generous
        # deadline: they travel as one batch, not eight.
        batches = server.metrics.to_dict()["batches"]
        assert batches["executed"] == 1
        assert batches["size_histogram"] == {"8": 1}

    def test_max_batch_splits(self, graph, queries):
        engine = make_engine(graph)

        async def scenario():
            async with GSIServer(engine, max_batch=3,
                                 max_delay_ms=50.0) as server:
                await asyncio.gather(
                    *[server.submit(q) for q in queries])
            return server

        server = run(scenario())
        batches = server.metrics.to_dict()["batches"]
        assert batches["executed"] >= 3  # ceil(8 / 3)
        assert max(map(int, batches["size_histogram"])) <= 3

    def test_deadline_dispatches_underfull_batch(self, graph, queries):
        engine = make_engine(graph)

        async def scenario():
            async with GSIServer(engine, max_batch=64,
                                 max_delay_ms=5.0) as server:
                outcome = await server.submit(queries[0])
            return server, outcome

        server, outcome = run(scenario())
        # One lone query far below max_batch still completes: the
        # max_delay_ms deadline dispatched its underfull batch.
        assert outcome.status == "ok"
        assert server.metrics.to_dict()["batches"]["size_histogram"] == \
            {"1": 1}

    def test_constructor_validation(self, graph):
        engine = make_engine(graph)
        for kwargs in ({"max_batch": 0}, {"max_delay_ms": 0.0},
                       {"max_pending": 0}, {"quota_rate": 0.0},
                       {"quota_burst": 0}):
            with pytest.raises(ValueError):
                GSIServer(engine, **kwargs)


# ----------------------------------------------------------------------
# in-flight dedup
# ----------------------------------------------------------------------


class TestInFlightDedup:
    def test_identical_queries_execute_once(self, graph, queries):
        engine = make_engine(graph)
        calls = []
        real_run_batch = engine.run_batch

        def counting_run_batch(batch):
            calls.append(len(batch))
            return real_run_batch(batch)

        engine.run_batch = counting_run_batch
        query = queries[0]

        async def scenario():
            async with GSIServer(engine, max_batch=16,
                                 max_delay_ms=20.0) as server:
                return await asyncio.gather(
                    *[server.submit(query) for _ in range(6)])

        outcomes = run(scenario())
        assert calls == [1]  # one batch containing ONE distinct query
        assert all(o.status == "ok" for o in outcomes)
        # Byte-identical submissions share the leader's MatchResult
        # object verbatim — not a copy, the same object.
        leaders = [o for o in outcomes if not o.deduped]
        followers = [o for o in outcomes if o.deduped]
        assert len(leaders) == 1 and len(followers) == 5
        for follower in followers:
            assert follower.result is leaders[0].result

    def test_renumbered_followers_translated(self, graph, queries):
        engine = make_engine(graph)
        query = queries[1]
        twin = relabeled(query)
        expected_q = GSIEngine(graph, GSIConfig.gsi_opt()) \
            .match(query).match_set()
        expected_t = GSIEngine(graph, GSIConfig.gsi_opt()) \
            .match(twin).match_set()

        async def scenario():
            async with GSIServer(engine, max_batch=16,
                                 max_delay_ms=20.0) as server:
                return await asyncio.gather(server.submit(query),
                                            server.submit(twin))

        first, second = run(scenario())
        assert engine.plan_cache.fingerprint(query).digest == \
            engine.plan_cache.fingerprint(twin).digest
        assert {first.deduped, second.deduped} == {False, True}
        assert first.result.match_set() == expected_q
        assert second.result.match_set() == expected_t

    def test_midflight_failure_reaches_every_waiter_once(
            self, graph, queries):
        engine = make_engine(graph)

        def failing_run_batch(batch):
            raise RuntimeError("executor pool died mid-flight")

        engine.run_batch = failing_run_batch
        query = queries[2]
        num_waiters = 5

        async def scenario():
            async with GSIServer(engine, max_batch=16,
                                 max_delay_ms=20.0) as server:
                outcomes = await asyncio.gather(
                    *[server.submit(query)
                      for _ in range(num_waiters)])
            return server, outcomes

        server, outcomes = run(scenario())
        assert len(outcomes) == num_waiters
        for outcome in outcomes:
            assert outcome.status == "error"
            assert "executor pool died mid-flight" in outcome.error
        # exactly once: every waiter completed, every one as an error,
        # and the failed query left the dedup window.
        requests = server.metrics.to_dict()["requests"]
        assert requests["completed"] == num_waiters
        assert requests["errors"] == num_waiters
        assert server._inflight == {}

    def test_dedup_window_closes_after_execution(self, graph, queries):
        engine = make_engine(graph)
        query = queries[3]

        async def scenario():
            async with GSIServer(engine, max_batch=4,
                                 max_delay_ms=5.0) as server:
                first = await server.submit(query)
                second = await server.submit(query)
            return server, first, second

        server, first, second = run(scenario())
        # Sequential submissions never overlap in flight: the second is
        # a fresh execution (plan-cached, but not deduped).
        assert not first.deduped and not second.deduped
        assert server.metrics.to_dict()["requests"]["deduped"] == 0
        assert second.plan_cached


# ----------------------------------------------------------------------
# admission control + quotas
# ----------------------------------------------------------------------


class TestAdmission:
    def test_overload_sheds_distinct_queries(self, graph, queries):
        engine = make_engine(graph)
        release = None
        real_run_batch = engine.run_batch

        def gated_run_batch(batch):
            release.wait()
            return real_run_batch(batch)

        engine.run_batch = gated_run_batch

        async def scenario():
            import threading
            nonlocal release
            release = threading.Event()
            async with GSIServer(engine, max_batch=1,
                                 max_delay_ms=1.0,
                                 max_pending=2) as server:
                # First query dispatches and blocks the (gated) batch
                # runner; the queue is empty again.
                blocked = asyncio.ensure_future(
                    server.submit(queries[0]))
                await asyncio.sleep(0.05)
                # Two more distinct queries fill max_pending...
                fills = [asyncio.ensure_future(server.submit(q))
                         for q in queries[1:3]]
                await asyncio.sleep(0)
                # ...so the next distinct query is shed immediately,
                # while a dedup follower of a pending query still rides
                # for free.
                shed = await server.submit(queries[3])
                follower = asyncio.ensure_future(
                    server.submit(queries[1]))
                release.set()
                done = await asyncio.gather(blocked, *fills, follower)
            return server, shed, done

        server, shed, done = run(scenario())
        assert shed.status == "overloaded"
        assert server.metrics.to_dict()["requests"]["shed"] == 1
        assert [o.status for o in done] == ["ok"] * 4
        assert done[-1].deduped  # the follower joined, not shed

    def test_quota_rejects_with_retry_hint(self, graph, queries):
        engine = make_engine(graph)

        async def scenario():
            async with GSIServer(engine, max_batch=4,
                                 max_delay_ms=5.0,
                                 quota_rate=0.001,
                                 quota_burst=2) as server:
                a = await server.submit(queries[0], tenant="busy")
                b = await server.submit(queries[1], tenant="busy")
                c = await server.submit(queries[2], tenant="busy")
                d = await server.submit(queries[3], tenant="calm")
            return server, a, b, c, d

        server, a, b, c, d = run(scenario())
        assert a.status == "ok" and b.status == "ok"
        assert c.status == "quota_exceeded"
        assert c.retry_after_ms > 0
        assert d.status == "ok"  # quotas are per tenant
        metrics = server.metrics.to_dict()
        assert metrics["requests"]["quota_rejected"] == 1
        tenants = metrics["tenants"]
        assert tenants["busy"]["quota_rejected"] == 1
        assert tenants["calm"]["quota_rejected"] == 0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_snapshot_is_json_serializable(self, graph, queries):
        engine = make_engine(graph)

        async def scenario():
            async with GSIServer(engine, max_batch=4,
                                 max_delay_ms=5.0) as server:
                before = server.stats()
                await asyncio.gather(
                    *[server.submit(q, tenant=f"t{i % 2}")
                      for i, q in enumerate(queries)])
                return before, server.stats()

        before, stats = run(scenario())
        # storage health is read when asked, not carried by a batch
        assert before["metrics"]["storage"]["kind"] == "pcsr"
        payload = json.loads(json.dumps(stats))  # must not raise
        metrics = payload["metrics"]
        assert metrics["storage"]["kind"] == "pcsr"
        assert metrics["requests"]["completed"] == len(queries)
        assert set(metrics["tenants"]) == {"t0", "t1"}
        for series in metrics["tenants"].values():
            lat = series["latency_ms"]
            assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert metrics["cache"]["lookups"] > 0
        assert sum(metrics["batches"]["size_histogram"].values()) == \
            metrics["batches"]["executed"]

    def test_sequential_servers_report_their_own_traffic(
            self, graph, queries):
        engine = make_engine(graph)

        async def serve(batch):
            async with GSIServer(engine, max_batch=4,
                                 max_delay_ms=5.0) as server:
                await asyncio.gather(
                    *[server.submit(q, tenant="t") for q in batch])
            return server.metrics.to_dict()

        first = run(serve(queries[:3]))
        second = run(serve(queries[3:4]))
        assert first["requests"]["completed"] == 3
        assert second["requests"]["received"] == 1
        assert second["requests"]["completed"] == 1
        assert second["batches"]["size_histogram"] == {"1": 1}
        assert second["tenants"]["t"]["completed"] == 1
        assert second["cache"]["lookups"] == 1
        assert second["queue"]["max_depth"] == 1

    def test_reservoir_is_bounded(self):
        metrics = ServerMetrics(PlanCache(), reservoir=8)
        for i in range(100):
            metrics.record_completed("t", float(i), error=False)
        assert len(metrics._tenants["t"]) <= 8
        assert metrics.to_dict()["requests"]["completed"] == 100


# ----------------------------------------------------------------------
# TCP front door
# ----------------------------------------------------------------------


class TestTcp:
    def test_end_to_end_query_stats_ping(self, graph, queries):
        engine = make_engine(graph)
        expected = GSIEngine(graph, GSIConfig.gsi_opt()) \
            .match(queries[0]).match_set()

        async def scenario():
            async with GSIServer(engine, max_batch=4,
                                 max_delay_ms=5.0,
                                 port=0) as server:
                async with GSIClient("127.0.0.1",
                                     server.bound_port) as client:
                    assert await client.ping()
                    responses = await asyncio.gather(
                        *[client.query(queries[0], tenant="tcp")
                          for _ in range(3)])
                    stats = await client.stats()
            return responses, stats

        responses, stats = run(scenario())
        for response in responses:
            assert response["status"] == "ok"
            assert {tuple(m) for m in response["matches"]} == expected
        assert sum(r["deduped"] for r in responses) == 2
        assert stats["metrics"]["requests"]["completed"] == 3
        assert stats["metrics"]["storage"]["kind"] == "pcsr"

    def test_stats_registry_and_metrics_text_agree(self, graph,
                                                   queries):
        """One mixed-tenant workload with a dedup, a shed, a quota
        rejection and an engine error: the ``stats`` RPC, the registry
        snapshot and the ``metrics`` text report the same counts."""
        engine = make_engine(graph)
        release = threading.Event()
        real_run_batch = engine.run_batch

        def gated_run_batch(batch):
            release.wait()
            return real_run_batch(batch)

        engine.run_batch = gated_run_batch
        disconnected = LabeledGraph([0, 1, 2], [(0, 1, 0)])

        async def scenario():
            async with GSIServer(engine, max_batch=2, max_delay_ms=1.0,
                                 max_pending=2, quota_rate=0.001,
                                 quota_burst=2, port=0) as server:
                async with GSIClient("127.0.0.1",
                                     server.bound_port) as client:
                    def send(query, tenant):
                        return asyncio.ensure_future(
                            client.query(query, tenant=tenant))

                    try:
                        # The first query dispatches and blocks the
                        # runner; two distinct ones fill max_pending.
                        sent = [send(queries[0], "a")]
                        await asyncio.sleep(0.05)
                        sent += [send(queries[1], "b"),
                                 send(disconnected, "c")]
                        await asyncio.sleep(0.05)
                        shed = await client.query(queries[3], tenant="a")
                        sent.append(send(queries[1], "c"))  # follower
                        await asyncio.sleep(0.05)
                        rejected = await client.query(queries[4],
                                                      tenant="a")
                    finally:
                        release.set()
                    done = await asyncio.gather(*sent)
                    stats = await client.stats()
                    text = await client.metrics()
            return shed, rejected, done, stats, text

        with scoped_registry() as registry:
            shed, rejected, done, stats, text = run(scenario())
            snapshot = registry.snapshot()
        assert shed["status"] == "overloaded"
        assert rejected["status"] == "quota_exceeded"
        assert [r["status"] for r in done] == ["ok", "ok", "error", "ok"]
        assert done[-1]["deduped"]

        metrics = stats["metrics"]
        assert metrics["requests"] == {
            "received": 6, "admitted": 4, "completed": 4, "errors": 1,
            "deduped": 1, "shed": 1, "quota_rejected": 1}
        assert metrics["batches"]["size_histogram"] == {"1": 1, "2": 1}
        assert metrics["queue"] == {"depth": 0, "max_depth": 2}
        replay = GSIEngine(graph, GSIConfig.gsi_opt())
        served = [replay.match(q) for q in queries[:2]]
        assert metrics["transactions"]["gld"] == \
            sum(r.counters.gld for r in served)
        assert metrics["transactions"]["gst"] == \
            sum(r.counters.gst for r in served)
        assert metrics["total_simulated_ms"] == \
            served[0].elapsed_ms + served[1].elapsed_ms

        # The registry snapshot and the metrics text hold the same
        # series, and the stats RPC reads the same counts out of them.
        samples = snapshot_samples(snapshot)
        assert prometheus_samples(text) == samples
        requests = {}
        for (name, labels), value in samples.items():
            if name == "gsi_serve_requests_total":
                labels = dict(labels)
                requests[(labels["tenant"], labels["result"])] = value
        for tenant, series in metrics["tenants"].items():
            assert series["completed"] == (requests.get((tenant, "ok"), 0)
                                           + requests.get((tenant, "error"),
                                                          0))
            for key, result in (("errors", "error"), ("deduped", "deduped"),
                                ("shed", "shed"),
                                ("quota_rejected", "quota_rejected")):
                assert series[key] == requests.get((tenant, result), 0)
        for result in ("received", "admitted"):
            assert metrics["requests"][result] == sum(
                value for (_, r), value in requests.items() if r == result)
        sizes = {dict(labels)["size"]: value
                 for (name, labels), value in samples.items()
                 if name == "gsi_serve_batches_total"}
        assert sizes == metrics["batches"]["size_histogram"]
        assert metrics["batches"]["executed_queries"] == \
            sum(int(size) * n for size, n in sizes.items())
        for kind in ("gld", "gst"):
            assert metrics["transactions"][kind] == \
                samples[("gsi_serve_transactions_total", (("kind", kind),))]
        assert metrics["total_simulated_ms"] == \
            samples[("gsi_serve_simulated_ms_total", ())]

    def test_malformed_frames_answered_not_fatal(self, graph, queries):
        engine = make_engine(graph)

        async def scenario():
            async with GSIServer(engine, max_batch=4,
                                 max_delay_ms=5.0,
                                 port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.bound_port)
                writer.write(b"this is not json\n")
                writer.write(encode_message(
                    {"op": "warp", "id": 1}))
                writer.write(encode_message(
                    {"op": "query", "id": 2,
                     "query": {"vertex_labels": [0],
                               "edges": [[0, 5, 0]]}}))
                writer.write(encode_message(
                    make_request("ping", 3)))
                await writer.drain()
                frames = [decode_message(await reader.readline())
                          for _ in range(4)]
                writer.close()
                await writer.wait_closed()
            return frames

        frames = run(scenario())
        by_id = {f["id"]: f for f in frames}
        assert by_id[None]["status"] == "error"
        assert "unknown op" in by_id[1]["error"]
        assert by_id[2]["status"] == "error"
        assert by_id[3]["status"] == "ok" and by_id[3]["pong"]

    @pytest.fixture(scope="class")
    def large_response_case(self):
        """A path query whose response is ~269 KB of JSON, four times
        asyncio's 64 KiB default stream limit."""
        big_graph = scale_free_graph(300, 3, 1, 1, seed=3)
        path = LabeledGraph([0, 0, 0], [(0, 1, 0), (1, 2, 0)])
        expected = GSIEngine(big_graph, GSIConfig.gsi_opt()) \
            .match(path).match_set()
        assert len(expected) == 18786
        return big_graph, path, expected

    def test_large_response_round_trips(self, large_response_case):
        big_graph, path, expected = large_response_case

        async def scenario():
            async with GSIServer(make_engine(big_graph),
                                 port=0) as server:
                async with GSIClient("127.0.0.1",
                                     server.bound_port) as client:
                    return await client.query(path)

        response = run(scenario())
        assert response["status"] == "ok"
        assert response["num_matches"] == len(expected)
        assert {tuple(m) for m in response["matches"]} == expected

    def test_over_limit_frame_fails_pending_requests(
            self, large_response_case, monkeypatch):
        """A frame beyond the client's line limit fails every pending
        request with a ProtocolError (not a misleading "server closed
        the connection"), and the connection stays usable."""
        from repro.serve import client as client_module
        monkeypatch.setattr(client_module, "RESPONSE_LINE_LIMIT", 4096)
        big_graph, path, _ = large_response_case

        async def scenario():
            async with GSIServer(make_engine(big_graph),
                                 port=0) as server:
                async with GSIClient("127.0.0.1",
                                     server.bound_port) as client:
                    with pytest.raises(ProtocolError,
                                       match="line limit"):
                        await client.query(path)
                    return await client.ping()

        assert run(scenario())


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------


class TestServeCli:
    @pytest.mark.parametrize("flags", [
        ["--port", "-1"],
        ["--max-batch", "0"],
        ["--max-delay-ms", "0"],
        ["--max-pending", "-5"],
        ["--quota-rate", "0"],
        ["--quota-burst", "-1"],
        ["--workers", "0"],
        ["--cache-capacity", "0"],
    ])
    def test_non_positive_flags_exit_2(self, flags, capsys):
        assert main(["serve", "--dataset", "enron"] + flags) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_defaults_parse(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["serve"])
        assert args.dataset == "gowalla"
        assert args.max_batch == 16
        assert args.max_delay_ms == 2.0
        assert args.executor == "serial"

    def test_bad_executor_rejected(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "gpu"])
