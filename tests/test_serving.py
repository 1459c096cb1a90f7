"""Tests for the always-on serving subsystem (:mod:`repro.serve`).

Covers the wire protocol, deadline micro-batching, concurrent in-flight
dedup (the N-identical-queries → one-execution contract, including the
mid-flight-failure fan-out), admission control, per-tenant quotas, the
metrics snapshot, the TCP front door, and the ``serve`` CLI flags.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
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
from repro.service import BatchEngine


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
        assert server.metrics.batches == 1
        assert server.metrics.batch_size_histogram == {8: 1}

    def test_max_batch_splits(self, graph, queries):
        engine = make_engine(graph)

        async def scenario():
            async with GSIServer(engine, max_batch=3,
                                 max_delay_ms=50.0) as server:
                await asyncio.gather(
                    *[server.submit(q) for q in queries])
            return server

        server = run(scenario())
        assert server.metrics.batches >= 3  # ceil(8 / 3)
        assert max(server.metrics.batch_size_histogram) <= 3

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
        assert server.metrics.batch_size_histogram == {1: 1}

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
        assert server.metrics.completed == num_waiters
        assert server.metrics.errors == num_waiters
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
        assert server.metrics.deduped == 0
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
        assert server.metrics.shed == 1
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
        assert server.metrics.quota_rejected == 1
        tenants = server.metrics.to_dict()["tenants"]
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

    def test_reservoir_is_bounded(self):
        metrics = ServerMetrics(reservoir=8)
        for i in range(100):
            metrics.record_completed("t", float(i), error=False)
        series = metrics._tenants["t"]
        assert len(series.latencies_ms) <= 8
        assert metrics.completed == 100


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
