"""Always-on serving front end over the batch service.

A :class:`GSIServer` turns the one-shot
:class:`~repro.service.batch.BatchEngine` into a persistent service
shaped like a modern inference server:

* **Deadline micro-batching.** Arriving queries are coalesced into
  batches of at most ``max_batch`` requests; the first request in a
  forming batch waits at most ``max_delay_ms`` before the batch is
  dispatched regardless of fill.  Batches execute on a worker thread
  through ``BatchEngine.run_batch`` (and therefore through the
  executor layer — serial, or a process pool over the shm data plane)
  while the event loop keeps accepting traffic, so the next batch
  fills while the current one runs (continuous batching).
* **In-flight dedup.** Every query is fingerprinted with the plan
  cache's canonical (isomorphism-invariant) fingerprint.  A request
  whose fingerprint matches a query already queued *or executing* joins
  that query's waiter list instead of occupying a batch slot: one
  execution fans its result out to every waiter.  Waiters that
  submitted a byte-identical query share the leader's
  :class:`~repro.core.result.MatchResult` object verbatim; isomorphic
  but differently numbered waiters receive the result translated
  through the two canonical mappings (identical match *sets* under
  renumbering).  Queries the canonicalizer deems uncacheable bypass
  dedup entirely.
* **Admission control.** At most ``max_pending`` distinct queries may
  be queued; beyond that requests are shed immediately with an
  ``overloaded`` status (never silently dropped, never unbounded
  memory).  Dedup followers ride for free — joining an in-flight query
  adds no execution work, so it is never shed.
* **Per-tenant quotas.** An optional token bucket per tenant
  (``quota_rate`` tokens/s refill, ``quota_burst`` capacity) rejects
  over-quota requests with ``quota_exceeded`` and a ``retry_after_ms``
  hint before they touch the queue.
* **SLO metrics.** Each request outcome, served batch and queue
  move is counted once in the process obs registry (exported by the
  ``metrics`` op); a :class:`~repro.serve.metrics.ServerMetrics`
  keeps the per-tenant p50/p95/p99 latency windows and reads the
  counts since the server was created back for the ``stats`` RPC,
  together with storage health read from the engine when the RPC is
  served.

Two front doors share one implementation: :meth:`GSIServer.submit` is
the in-process async interface (benchmarks, tests, embedding), and
:meth:`GSIServer.start` optionally binds the newline-delimited-JSON TCP
listener described in :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.result import MatchResult
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.export import prometheus_text
from repro.obs.trace import get_tracer
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    query_from_wire,
)
from repro.service.batch import BatchEngine, json_sanitize
from repro.service.fingerprint import QueryFingerprint

DEFAULT_MAX_BATCH = 16
DEFAULT_MAX_DELAY_MS = 2.0
DEFAULT_MAX_PENDING = 256
DEFAULT_TENANT = "default"


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s refill, ``burst`` cap.

    ``try_take`` is called from the event loop only, so no lock; the
    clock is injectable for deterministic tests.
    """

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def try_take(self) -> Tuple[bool, float]:
        """``(granted, retry_after_ms)``; refills lazily on each call."""
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate * 1000.0


def translate_result(result: MatchResult,
                     leader_fp: QueryFingerprint,
                     follower_fp: QueryFingerprint) -> MatchResult:
    """Renumber a deduped result onto an isomorphic follower's query.

    Both queries share a canonical form; composing the follower's
    vertex->canonical mapping with the leader's canonical->vertex
    inverse yields the follower->leader vertex bijection, through which
    matches, candidate sizes, and the join order are re-indexed.  The
    match *set* is identical up to that renumbering; simulated
    measurements are shared with the leader (one execution happened).
    Byte-identical queries have identical mappings and are returned
    as-is (the exact same object).
    """
    if follower_fp.mapping == leader_fp.mapping:
        return result
    inv_leader = leader_fp.inverse()  # canonical id -> leader vertex
    f2l = [inv_leader[c] for c in follower_fp.mapping]
    l2f = [0] * len(f2l)
    for v, u in enumerate(f2l):
        l2f[u] = v
    return MatchResult(
        matches=[tuple(m[u] for u in f2l) for m in result.matches],
        elapsed_ms=result.elapsed_ms,
        timed_out=result.timed_out,
        counters=result.counters,
        phases=result.phases,
        candidate_sizes={l2f[u]: size
                         for u, size in result.candidate_sizes.items()},
        join_order=[l2f[u] for u in result.join_order],
        engine=result.engine)


@dataclass
class ServeOutcome:
    """What one submitted request came back with (either front door)."""

    status: str  # "ok" | "error" | "overloaded" | "quota_exceeded"
    result: Optional[MatchResult] = None
    error: Optional[str] = None
    deduped: bool = False
    plan_cached: bool = False
    host_ms: float = 0.0
    retry_after_ms: float = 0.0

    def to_wire(self, request_id) -> dict:
        """The response frame for this outcome (see the protocol)."""
        msg: dict = {"id": request_id, "status": self.status}
        if self.status == "ok":
            assert self.result is not None
            msg.update({
                "matches": [list(m) for m in self.result.matches],
                "num_matches": self.result.num_matches,
                "elapsed_ms": self.result.elapsed_ms,
                "timed_out": self.result.timed_out,
                "plan_cached": self.plan_cached,
                "deduped": self.deduped,
                "host_ms": self.host_ms,
            })
        elif self.status == "error":
            msg["error"] = self.error or "unknown error"
        elif self.status == "quota_exceeded":
            msg["retry_after_ms"] = self.retry_after_ms
        return msg


@dataclass
class _Waiter:
    """One admitted request waiting on a leader's execution."""

    future: "asyncio.Future"
    fingerprint: Optional[QueryFingerprint]
    tenant: str
    arrival: float
    deduped: bool


@dataclass
class _PendingQuery:
    """One distinct in-flight query: a leader plus its dedup waiters."""

    query: LabeledGraph
    fingerprint: Optional[QueryFingerprint]
    arrival: float
    waiters: List[_Waiter] = field(default_factory=list)


class GSIServer:
    """Persistent asyncio serving front end over one ``BatchEngine``.

    Parameters
    ----------
    engine:
        The batch service to execute through (its plan cache, executor,
        and — when configured — sharded backend all apply unchanged).
    max_batch:
        Micro-batch fill target; a batch dispatches as soon as this
        many distinct queries are pending.
    max_delay_ms:
        Deadline: the oldest pending query waits at most this long
        before its (possibly underfull) batch dispatches.
    max_pending:
        Admission bound on queued distinct queries; beyond it requests
        are shed with ``overloaded``.
    quota_rate / quota_burst:
        Optional per-tenant token bucket (tokens/s, bucket capacity).
        ``None`` disables quotas.
    host / port:
        TCP bind address for :meth:`start`; ``port=None`` serves
        in-process only (``submit``).  ``port=0`` binds an ephemeral
        port (tests), readable from :attr:`bound_port` after start.
    """

    def __init__(self, engine: BatchEngine,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_delay_ms: float = DEFAULT_MAX_DELAY_MS,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 quota_rate: Optional[float] = None,
                 quota_burst: Optional[float] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms <= 0:
            raise ValueError(
                f"max_delay_ms must be > 0, got {max_delay_ms}")
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        if quota_rate is not None and quota_rate <= 0:
            raise ValueError(
                f"quota_rate must be > 0, got {quota_rate}")
        if quota_burst is not None and quota_burst < 1:
            raise ValueError(
                f"quota_burst must be >= 1, got {quota_burst}")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay_ms = float(max_delay_ms)
        self.max_pending = max_pending
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.host = host
        self.port = port
        self.metrics = ServerMetrics(engine.plan_cache)
        self.bound_port: Optional[int] = None

        self._pending: Deque[_PendingQuery] = deque()
        self._inflight: Dict[str, _PendingQuery] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._batcher: Optional[asyncio.Task] = None
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the batcher (and the TCP listener when ``port`` set)."""
        if self._running:
            raise RuntimeError("server already started")
        self._running = True
        self._wakeup = asyncio.Event()
        self._batcher = asyncio.create_task(self._batch_loop(),
                                            name="gsi-serve-batcher")
        if self.port is not None:
            self._tcp_server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port)
            self.bound_port = \
                self._tcp_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain pending batches."""
        if not self._running:
            return
        self._running = False
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        # Server.wait_closed() does not wait for live connections; close
        # their transports and await the handlers so shutdown leaves no
        # orphan tasks behind.
        connections = dict(self._connections)
        for writer in connections.values():
            writer.close()
        if connections:
            await asyncio.gather(*connections,
                                 return_exceptions=True)
        assert self._wakeup is not None
        self._wakeup.set()  # wake the batcher so it can drain and exit
        if self._batcher is not None:
            await self._batcher
            self._batcher = None

    async def __aenter__(self) -> "GSIServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # submission path (shared by TCP and in-process callers)
    # ------------------------------------------------------------------

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.quota_rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            burst = (self.quota_burst if self.quota_burst is not None
                     else max(1.0, self.quota_rate))
            bucket = self._buckets[tenant] = TokenBucket(
                self.quota_rate, burst)
        return bucket

    async def submit(self, query: LabeledGraph,
                     tenant: str = DEFAULT_TENANT) -> ServeOutcome:
        """Admit one query and await its result (in-process front door).

        Must be called from the server's event loop.  Applies, in
        order: per-tenant quota, in-flight dedup, and the admission
        bound; admitted requests resolve when their micro-batch
        completes.
        """
        if not self._running:
            raise RuntimeError("server is not running")
        arrival = time.monotonic()
        self.metrics.record(tenant, "received")

        bucket = self._bucket(tenant)
        if bucket is not None:
            granted, retry_after_ms = bucket.try_take()
            if not granted:
                self.metrics.record(tenant, "quota_rejected")
                return ServeOutcome(status="quota_exceeded",
                                    retry_after_ms=retry_after_ms)

        fingerprint = self.engine.plan_cache.fingerprint(query)
        digest = fingerprint.digest if fingerprint is not None else None

        leader = self._inflight.get(digest) if digest is not None else None
        if leader is None:
            # A new distinct query: admission control applies.
            if len(self._pending) >= self.max_pending:
                self.metrics.record(tenant, "shed")
                return ServeOutcome(status="overloaded")
            leader = _PendingQuery(query=query, fingerprint=fingerprint,
                                   arrival=arrival)
            self._pending.append(leader)
            if digest is not None:
                self._inflight[digest] = leader
            self.metrics.record_queue_depth(len(self._pending))
            deduped = False
        else:
            deduped = True

        loop = asyncio.get_running_loop()
        waiter = _Waiter(future=loop.create_future(),
                         fingerprint=fingerprint, tenant=tenant,
                         arrival=arrival, deduped=deduped)
        leader.waiters.append(waiter)
        self.metrics.record(tenant, "admitted")
        if deduped:
            self.metrics.record(tenant, "deduped")
        assert self._wakeup is not None
        self._wakeup.set()
        return await waiter.future

    # ------------------------------------------------------------------
    # micro-batcher
    # ------------------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Coalesce pending queries into deadline micro-batches."""
        assert self._wakeup is not None
        while self._running or self._pending:
            if not self._pending:
                self._wakeup.clear()
                if not self._running:
                    break
                await self._wakeup.wait()
                continue
            deadline = (self._pending[0].arrival
                        + self.max_delay_ms / 1000.0)
            while (self._running
                   and len(self._pending) < self.max_batch):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(),
                                           timeout=remaining)
                except asyncio.TimeoutError:
                    break
            batch: List[_PendingQuery] = []
            while self._pending and len(batch) < self.max_batch:
                batch.append(self._pending.popleft())
            self.metrics.record_queue_depth(len(self._pending))
            await self._execute_batch(batch)

    async def _execute_batch(self, batch: List[_PendingQuery]) -> None:
        """Run one micro-batch off-loop and fan results to waiters."""
        queries = [p.query for p in batch]
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        parent = tracer.current_context()

        def run_traced():
            # The batch runs on a worker thread whose span stack is
            # empty; parent it explicitly so the engine's spans nest
            # under this dispatch instead of rooting a second tree.
            with tracer.span("serve.batch", parent=parent,
                             queries=len(queries)) as span:
                report = self.engine.run_batch(queries)
                span.set_attribute("matches", report.total_matches)
            return report

        try:
            report = await loop.run_in_executor(None, run_traced)
        except Exception as exc:  # noqa: BLE001 - a dead executor pool
            # must fail this batch's waiters, not kill the server.
            self._fan_out_failure(batch,
                                  f"{type(exc).__name__}: {exc}")
            return
        self.metrics.record_batch(report)
        for pending, item in zip(batch, report.items):
            self._retire(pending)
            for waiter in pending.waiters:
                if item.error is not None:
                    outcome = ServeOutcome(status="error",
                                           error=item.error,
                                           deduped=waiter.deduped)
                else:
                    result = item.result
                    if (waiter.deduped
                            and waiter.fingerprint is not None
                            and pending.fingerprint is not None):
                        result = translate_result(
                            result, pending.fingerprint,
                            waiter.fingerprint)
                    outcome = ServeOutcome(
                        status="ok", result=result,
                        plan_cached=item.plan_cached,
                        deduped=waiter.deduped)
                self._resolve(waiter, outcome)

    def _retire(self, pending: _PendingQuery) -> None:
        """Close the dedup window for one executed query."""
        fp = pending.fingerprint
        if fp is not None and self._inflight.get(fp.digest) is pending:
            del self._inflight[fp.digest]

    def _fan_out_failure(self, batch: List[_PendingQuery],
                         message: str) -> None:
        """Batch-wide failure: every waiter hears about it exactly once."""
        for pending in batch:
            self._retire(pending)
            for waiter in pending.waiters:
                self._resolve(waiter, ServeOutcome(
                    status="error", error=message,
                    deduped=waiter.deduped))

    def _resolve(self, waiter: _Waiter, outcome: ServeOutcome) -> None:
        outcome.host_ms = (time.monotonic() - waiter.arrival) * 1000.0
        self.metrics.record_completed(
            waiter.tenant, outcome.host_ms,
            error=outcome.status != "ok")
        if not waiter.future.done():  # client may have disconnected
            waiter.future.set_result(outcome)

    # ------------------------------------------------------------------
    # TCP front door
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The ``stats`` RPC payload: config + metrics snapshot, with
        the engine's storage health read now
        (:meth:`~repro.service.batch.BatchEngine.storage_stats`)."""
        metrics = self.metrics.to_dict()
        metrics["storage"] = json_sanitize(self.engine.storage_stats())
        return {
            "server": {
                "max_batch": self.max_batch,
                "max_delay_ms": self.max_delay_ms,
                "max_pending": self.max_pending,
                "quota_rate": self.quota_rate,
                "quota_burst": self.quota_burst,
                "executor": self.engine.executor.name,
                "sharded": self.engine.sharded is not None,
            },
            "metrics": metrics,
        }

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Serve one NDJSON connection; requests may be pipelined."""
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._connections[conn_task] = writer
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []

        async def respond(msg: dict) -> None:
            async with write_lock:
                writer.write(encode_message(msg))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_message(line)
                except ProtocolError as exc:
                    await respond({"id": None, "status": "error",
                                   "error": str(exc)})
                    continue
                # Each request is served by its own task so a filling
                # micro-batch never blocks later frames on the same
                # connection (pipelining is what feeds batches).
                tasks.append(asyncio.create_task(
                    self._serve_request(request, respond)))
                tasks = [t for t in tasks if not t.done()]
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            if conn_task is not None:
                self._connections.pop(conn_task, None)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(self, request: dict, respond) -> None:
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "ping":
                await respond({"id": request_id, "status": "ok",
                               "pong": True})
                return
            if op == "stats":
                # The storage read walks the whole store; keep it off
                # the event loop like a batch.
                stats = await asyncio.to_thread(self.stats)
                await respond({"id": request_id, "status": "ok",
                               "stats": stats})
                return
            if op == "metrics":
                text = prometheus_text(self.metrics.registry.snapshot())
                await respond({"id": request_id, "status": "ok",
                               "text": text})
                return
            if op != "query":
                raise ProtocolError(
                    f"unknown op {op!r}; expected one of "
                    f"('query', 'stats', 'metrics', 'ping')")
            query = query_from_wire(request.get("query"))
            tenant = str(request.get("tenant", DEFAULT_TENANT))
            outcome = await self.submit(query, tenant=tenant)
            await respond(outcome.to_wire(request_id))
        except ProtocolError as exc:
            await respond({"id": request_id, "status": "error",
                           "error": str(exc)})
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to tell it
