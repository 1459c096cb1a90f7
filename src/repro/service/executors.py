"""Pluggable parallel execution for the query services.

The batch service and the stream engine both fan work out over
embarrassingly parallel per-query units — joining a prepared query, or
delta-matching one continuous query against a shared batch seed.  This
module abstracts *how* that fan-out happens behind one
:class:`QueryExecutor` protocol with two implementations:

* :class:`SerialExecutor` — an in-process loop.  The reference
  executor and the default everywhere: zero concurrency, zero
  overhead, bit-for-bit deterministic.
* :class:`ProcessExecutor` — a :class:`~concurrent.futures.
  ProcessPoolExecutor` over the shared-memory data plane.  True
  multi-core parallelism for the Python/numpy-heavy joining phase.

Both produce *identical results in submission order*: executors change
wall-clock only, never match sets, simulated measurements, or
transaction totals (each query runs on its own simulated device whose
accounting is deterministic).

Shipping contract (ProcessExecutor)
-----------------------------------

:meth:`QueryExecutor.execute_prepared` ships
:class:`~repro.core.engine.PreparedQuery` objects to the workers, so
everything a prepared query carries must pickle: the query
:class:`~repro.graph.labeled_graph.LabeledGraph` (numpy arrays), the
candidate arrays, the :class:`~repro.core.plan.JoinPlan` (tuples), and
the simulated :class:`~repro.gpusim.device.Device` mid-flight (plain
counters — no locks, no handles).

The data-graph-sized artifacts never ride in those pickles.  The
executor publishes the served engine's CSR arrays, signature-table
rows, and PCSR layers into named :mod:`multiprocessing.shared_memory`
segments (:mod:`repro.storage.shm`) and ships only a compact
:class:`~repro.storage.shm.EngineArtifactsHandle` — segment names +
dtypes + shapes + an epoch — inside the :class:`EngineBuildSpec` the
pool initializer receives.  Workers attach the segments read-only by
name and memoize the attach per publication, so what crosses the pipe
is O(handle) bytes regardless of ``|G|``.  The executor owns the
segments: they are re-published when the engine spec changes and
unlinked on :meth:`ProcessExecutor.shutdown` (with an ``atexit``
backstop), including after broken-pool recovery.  Engines whose store
is a hand-injected subclass fall back to a worker-side deterministic
store rebuild from the attached graph + config.  Either way a
worker-side engine executes a prepared query bit-for-bit like the
parent's engine would.

A batch splits statically: :meth:`~QueryExecutor.execute_prepared`
into ``2 x workers`` equal-count chunks, :meth:`~QueryExecutor.
map_tasks` into one chunk per worker (its ``shared`` context pickles
once per chunk).

When to use which
-----------------

Serial is the default for every service and the determinism oracle.
The process pool is for multi-core hosts whose per-query joins are
heavy relative to shipping a prepared query and its result.  Three
other options lost to these two on a 2-core host and were removed:

* a thread pool ran a 24-query batch at 0.88-0.94x of serial under
  both join lanes, and stream deltas at 0.91x;
* packing chunks by candidate mass (LPT) was 16-22% slower than
  static equal-count chunks on a 48-query process batch;
* pickling the whole graph to workers instead of publishing it was
  within 2% of shared memory on warm batches and 2.2x slower on the
  first batch at ``|V| = 4000``.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine, PreparedQuery
from repro.core.result import MatchResult
from repro.errors import ConfigError
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import absorb_snapshot, get_registry, scoped_registry
from repro.obs.trace import get_tracer, set_tracer, shipped_spans
from repro.storage.shm import (
    BlockLease,
    EngineArtifactsHandle,
    attach_engine,
    publish_engine,
)

DEFAULT_EXECUTOR_WORKERS = 4

#: the names accepted by :func:`make_executor` (and the CLI flag)
EXECUTOR_KINDS = ("serial", "process")

#: environment override for the process pool start method (fork/spawn)
START_METHOD_ENV = "GSI_EXECUTOR_START_METHOD"

#: monotonic epochs for engine publications (bumped per re-publish)
_PLANE_EPOCHS = itertools.count(1)


@dataclass(frozen=True)
class EngineBuildSpec:
    """Everything needed to reconstruct a serving engine.

    Two forms:

    * ``artifacts`` set — a compact
      :class:`~repro.storage.shm.EngineArtifactsHandle`; the worker
      attaches the published shared-memory segments read-only by name.
      ``graph`` is ``None`` so the spec pickles in O(handle) bytes.
      This is the form :class:`ProcessExecutor` ships.
    * ``graph`` set — the recipe the artifacts are derived from:
      :meth:`build` rebuilds the offline artifacts (signature table +
      storage structure) from the graph and config.  An
      :class:`EngineHandle` keys its publication on this form.

    Both builds are deterministic, so a worker-built engine executes a
    prepared query bit-for-bit like the parent's engine would.
    """

    graph: Optional[LabeledGraph]
    config: GSIConfig
    artifacts: Optional[EngineArtifactsHandle] = None

    def build(self) -> GSIEngine:
        if self.artifacts is not None:
            return attach_engine(self.artifacts, self.config)
        if self.graph is None:
            # A spec whose handle was stripped (or one built with
            # neither form) must fail here, not as an AttributeError
            # deep inside signature encoding.
            raise ConfigError(
                "EngineBuildSpec carries neither artifacts nor a graph; "
                "a worker cannot rebuild the engine")
        return GSIEngine(self.graph, self.config)


@dataclass
class EngineHandle:
    """A live engine plus the spec to rebuild it elsewhere.

    The serial executor executes on ``engine`` directly; the process
    executor publishes ``engine`` once per distinct ``spec`` and ships
    the resulting handle to its workers instead.
    """

    engine: GSIEngine
    spec: EngineBuildSpec

    @classmethod
    def for_engine(cls, engine: GSIEngine) -> "EngineHandle":
        return cls(engine=engine,
                   spec=EngineBuildSpec(engine.graph, engine.config))


@dataclass
class ExecutedQuery:
    """Outcome of executing one prepared query (joins a ``BatchItem``).

    ``spans`` carries trace spans recorded inside a process worker
    back across the pickle boundary; the process executor absorbs
    them into the coordinator's tracer before returning, so the field
    is empty again by the time callers see it.
    """

    index: int
    result: MatchResult
    error: Optional[str] = None
    execute_ms: float = 0.0
    spans: List[Dict[str, Any]] = field(default_factory=list)


#: (submission index, prepared query) pairs fed to an executor
PreparedTask = Tuple[int, PreparedQuery]


def _execute_one(engine: GSIEngine, index: int, prepared: PreparedQuery,
                 error_label: str) -> ExecutedQuery:
    """Execute one prepared query, converting failures to per-item
    errors (shared by every executor so error semantics are uniform)."""
    start = time.perf_counter()
    try:
        result = engine.execute(prepared)
        error = None
    except Exception as exc:  # noqa: BLE001 - one bad query must never
        # abort the rest of the batch; report it per item.
        result = MatchResult(engine=error_label)
        error = f"{type(exc).__name__}: {exc}"
    return ExecutedQuery(index=index, result=result, error=error,
                         execute_ms=(time.perf_counter() - start) * 1000.0)


class QueryExecutor(ABC):
    """How per-query work units run: serially or on worker processes.

    Two entry points cover both services:

    * :meth:`execute_prepared` — the batch path: run the joining phase
      of already-prepared queries, returning outcomes in submission
      order.
    * :meth:`map_tasks` — the generic path (stream delta matching):
      apply a module-level function to payloads, sharing one
      batch-constant context object, results in payload order.
    """

    name: str = "abstract"
    workers: int = 1

    @abstractmethod
    def execute_prepared(self, handle: EngineHandle,
                         tasks: Sequence[PreparedTask],
                         error_label: str = "GSI"
                         ) -> List[ExecutedQuery]:
        """Run the joining phase of ``tasks``; submission order kept."""

    @abstractmethod
    def map_tasks(self, fn: Callable[[Any, Any], Any],
                  payloads: Sequence[Any],
                  shared: Any = None) -> List[Any]:
        """``[fn(shared, p) for p in payloads]``, possibly in parallel.

        ``fn`` must be a module-level callable and ``shared``/payloads
        picklable for the process executor; results keep payload order.
        """

    def shutdown(self) -> None:
        """Release pooled resources (idempotent; executor stays usable —
        pools are recreated lazily on the next call)."""

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class SerialExecutor(QueryExecutor):
    """The reference executor: a plain in-process loop."""

    name = "serial"

    def execute_prepared(self, handle: EngineHandle,
                         tasks: Sequence[PreparedTask],
                         error_label: str = "GSI"
                         ) -> List[ExecutedQuery]:
        with get_tracer().span("executor.execute_prepared",
                               executor=self.name, tasks=len(tasks)):
            return [_execute_one(handle.engine, index, prepared,
                                 error_label)
                    for index, prepared in tasks]

    def map_tasks(self, fn: Callable[[Any, Any], Any],
                  payloads: Sequence[Any],
                  shared: Any = None) -> List[Any]:
        return [fn(shared, payload) for payload in payloads]


# ----------------------------------------------------------------------
# Process pool: per-worker engine bootstrap + chunked work shipping
# ----------------------------------------------------------------------

#: per-worker-process serving engine, built once by the pool initializer
_WORKER_ENGINE: Optional[GSIEngine] = None


def _process_worker_init(spec: Optional[EngineBuildSpec]) -> None:
    """Pool initializer: bootstrap this worker's engine exactly once.

    The spec is pickled once per worker (not per query) and carries
    only shared-memory handles; the worker attaches the published
    artifacts, so no data-graph-sized artifact crosses the pipe.

    Fork-mode workers inherit the coordinator's process globals —
    including a recording tracer, whose spans would silently die with
    the worker.  Reset to the null tracer so worker spans go through
    the explicit shipping path (:func:`repro.obs.trace.shipped_spans`)
    and re-parent in the coordinator, identically under fork and spawn.
    """
    set_tracer(None)
    global _WORKER_ENGINE
    _WORKER_ENGINE = spec.build() if spec is not None else None


def _process_execute_chunk(error_label: str,
                           tasks: List[PreparedTask]
                           ) -> Tuple[List[ExecutedQuery],
                                      Dict[str, Any]]:
    """Worker-side joining phase over one pickled chunk.

    Trace spans recorded during each execution ship back on the
    :class:`ExecutedQuery` (re-parented under the coordinator's tree
    via the ``TraceContext`` that pickled in with the prepared query);
    the chunk's metric deltas ship as one mergeable snapshot.
    """
    engine = _WORKER_ENGINE
    if engine is None:
        raise RuntimeError(
            "process worker has no engine; the pool was created without "
            "an EngineBuildSpec")
    executed: List[ExecutedQuery] = []
    with scoped_registry() as registry:
        for index, prepared in tasks:
            with shipped_spans(prepared.trace) as spans:
                item = _execute_one(engine, index, prepared,
                                    error_label)
            item.spans = spans
            executed.append(item)
    return executed, registry.snapshot()


def _process_map_chunk(fn: Callable[[Any, Any], Any], shared: Any,
                       payloads: List[Any]) -> List[Any]:
    """Worker-side generic map over one pickled chunk (``shared`` is
    pickled once per chunk, not once per payload)."""
    return [fn(shared, payload) for payload in payloads]


def _process_engine_probe(_shared: Any, _payload: Any) -> Tuple[int, int]:
    """(pid, id of the worker engine) — lets tests prove the per-worker
    bootstrap happened once, not once per query."""
    import os

    return os.getpid(), 0 if _WORKER_ENGINE is None else id(_WORKER_ENGINE)


class ProcessExecutor(QueryExecutor):
    """Worker processes with a one-time per-worker engine bootstrap.

    The pool is created lazily and kept alive across calls, so repeated
    batches amortize both process spawn and engine attach.  A call for
    a *different* engine publishes it into shared memory, tears the
    pool down and rebuilds it for the new engine.

    Parameters
    ----------
    max_workers:
        Worker process count.
    start_method:
        Multiprocessing start method for the pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` defers to the
        ``GSI_EXECUTOR_START_METHOD`` environment variable, then the
        platform default.

    After each call :attr:`last_shipment` holds what actually crossed
    the pipe — ``{"call", "context_bytes", "chunks"}`` where
    ``context_bytes`` is the pickled size of the batch-constant context
    (the engine spec for :meth:`execute_prepared`, ``shared`` for
    :meth:`map_tasks`).  Benchmarks persist it to show the per-batch
    context is O(handle), not O(|G|), once the pool is warm.
    """

    name = "process"

    def __init__(self, max_workers: int = DEFAULT_EXECUTOR_WORKERS,
                 start_method: Optional[str] = None) -> None:
        self.workers = max(1, max_workers)
        self.start_method = (start_method
                             or os.environ.get(START_METHOD_ENV) or None)
        self.last_shipment: Optional[Dict[str, Any]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_spec: Optional[EngineBuildSpec] = None
        # The current publication — (source spec, handle spec) plus the
        # lease keeping its segments alive.
        self._plane_memo: Optional[
            Tuple[EngineBuildSpec, EngineBuildSpec]] = None
        self._plane_lease: Optional[BlockLease] = None
        # Guards lazy creation/teardown under concurrent callers.  Note
        # that a spec *change* still tears down the old pool, so one
        # ProcessExecutor should serve one engine at a time; concurrent
        # same-spec callers are fine.
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------

    def _ensure_pool(self, spec: Optional[EngineBuildSpec]
                     ) -> ProcessPoolExecutor:
        """The live pool, (re)created when the engine spec changes.

        ``spec=None`` (generic :meth:`map_tasks` work) reuses whatever
        pool exists — a worker engine sitting unused is harmless.
        """
        with self._pool_lock:
            if self._pool is not None and (
                    spec is None or spec == self._pool_spec):
                return self._pool
            old, self._pool = self._pool, None
            if old is not None:
                old.shutdown(wait=True)
            kwargs = {}
            if self.start_method is not None:
                kwargs["mp_context"] = multiprocessing.get_context(
                    self.start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init, initargs=(spec,),
                **kwargs)
            self._pool_spec = spec
            return self._pool

    def _shared_spec(self, handle: EngineHandle) -> EngineBuildSpec:
        """The handle spec to ship for ``handle``'s engine.

        The engine's artifacts are published into shared segments once
        per engine: the publication is memoized on the source spec, so
        repeated batches against the same engine reuse both the
        segments and (via spec equality in :meth:`_ensure_pool`) the
        worker pool.  A different engine re-publishes under a fresh
        epoch and releases the old lease — existing worker mappings
        stay valid on Linux, but new attaches of the retired handles
        fail loudly.
        """
        with self._pool_lock:
            if (self._plane_memo is not None
                    and self._plane_memo[0] == handle.spec):
                return self._plane_memo[1]
        artifacts, lease = publish_engine(handle.engine,
                                          epoch=next(_PLANE_EPOCHS))
        shared = EngineBuildSpec(graph=None, config=handle.spec.config,
                                 artifacts=artifacts)
        with self._pool_lock:
            old_lease, self._plane_lease = self._plane_lease, lease
            self._plane_memo = (handle.spec, shared)
        if old_lease is not None:
            old_lease.release()
        return shared

    @staticmethod
    def _chunks(items: List[Any], parts: int) -> List[List[Any]]:
        """Equal-count slices of ``items``, at most ``parts`` of them."""
        size = max(1, math.ceil(len(items) / parts))
        return [items[i:i + size] for i in range(0, len(items), size)]

    def shutdown(self) -> None:
        """Tear down the pool and unlink any shared segments this
        executor published (idempotent; executor stays usable — the
        next call republishes and recreates the pool lazily)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_spec = None
            lease, self._plane_lease = self._plane_lease, None
            self._plane_memo = None
        if lease is not None:
            lease.release()
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------

    def _run_chunked(self,
                     spec_factory: Callable[
                         [], Optional[EngineBuildSpec]],
                     submit: Callable[[ProcessPoolExecutor, List[Any]],
                                      Any],
                     chunks: List[List[Any]]) -> List[List[Any]]:
        """Submit chunks and gather results in submission order.

        A dead worker (OOM-killed, segfault) breaks the whole pool; the
        broken pool is discarded and the call retried once on a fresh
        one, so a long-lived service recovers from transient worker
        death instead of failing every subsequent batch.  ``spec_factory``
        is re-evaluated per attempt: the recovery :meth:`shutdown` also
        unlinked this executor's shared segments, so the retry must
        re-publish under fresh names rather than ship stale handles.
        """
        for attempt in (0, 1):
            try:
                # submit() also raises BrokenProcessPool when a worker
                # died while the pool was idle; keep it inside the
                # retry scope so an idle-broken pool is replaced too.
                pool = self._ensure_pool(spec_factory())
                futures = [submit(pool, chunk) for chunk in chunks]
                return [future.result() for future in futures]
            except BrokenProcessPool:
                # Never hand a dead pool (or retired segments) to the
                # next call.
                self.shutdown()
                if attempt == 1:
                    raise
        raise AssertionError("unreachable")

    def execute_prepared(self, handle: EngineHandle,
                         tasks: Sequence[PreparedTask],
                         error_label: str = "GSI"
                         ) -> List[ExecutedQuery]:
        tasks = list(tasks)
        if not tasks:
            return []
        shipped_spec: List[EngineBuildSpec] = []

        def spec_factory() -> EngineBuildSpec:
            spec = self._shared_spec(handle)
            shipped_spec.append(spec)
            return spec

        tracer = get_tracer()
        with tracer.span("executor.execute_prepared",
                         executor=self.name, tasks=len(tasks)) as span:
            chunks = self._chunks(tasks, self.workers * 2)
            span.set_attribute("chunks", len(chunks))
            results = self._run_chunked(
                spec_factory,
                lambda pool, chunk: pool.submit(
                    _process_execute_chunk, error_label, chunk),
                chunks)
        self.last_shipment = {
            "call": "execute_prepared",
            "context_bytes": len(pickle.dumps(shipped_spec[-1])),
            "chunks": len(chunks),
        }
        get_registry().counter(
            "gsi_shipped_bytes_total",
            "pickled batch-constant context bytes shipped to "
            "process workers").inc(
                self.last_shipment["context_bytes"],
                kind="execute_prepared")
        executed: List[ExecutedQuery] = []
        for chunk_executed, snapshot in results:
            absorb_snapshot(snapshot)
            executed.extend(chunk_executed)
        for item in executed:
            if item.spans:
                tracer.absorb(item.spans)
                item.spans = []
        return executed

    def map_tasks(self, fn: Callable[[Any, Any], Any],
                  payloads: Sequence[Any],
                  shared: Any = None) -> List[Any]:
        payloads = list(payloads)
        if not payloads:
            return []
        # One chunk per worker, not 2x: ``shared`` (for stream batches
        # the delta context, for shards the shard context) is pickled
        # per chunk, so fewer chunks halve the shipping cost.
        with get_tracer().span("executor.map_tasks",
                               executor=self.name,
                               tasks=len(payloads)) as span:
            chunks = self._chunks(payloads, self.workers)
            span.set_attribute("chunks", len(chunks))
            results = self._run_chunked(
                lambda: None,
                lambda pool, chunk: pool.submit(
                    _process_map_chunk, fn, shared, chunk),
                chunks)
        self.last_shipment = {
            "call": "map_tasks",
            "context_bytes": len(pickle.dumps(shared)),
            "chunks": len(chunks),
        }
        get_registry().counter(
            "gsi_shipped_bytes_total",
            "pickled batch-constant context bytes shipped to "
            "process workers").inc(
                self.last_shipment["context_bytes"],
                kind="map_tasks")
        return [item for res in results for item in res]


def make_executor(kind: str,
                  max_workers: int = DEFAULT_EXECUTOR_WORKERS
                  ) -> QueryExecutor:
    """Build an executor by name (the CLI's ``--executor`` values).

    Arguments are validated eagerly: an unknown ``kind`` or a
    non-positive ``max_workers`` raise :class:`ValueError` here,
    instead of surfacing later as an opaque pool failure mid-batch.
    (:class:`ProcessExecutor` itself keeps its historical clamp-to-1
    behavior for direct construction.)  ``max_workers`` only sizes the
    process pool.
    """
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of "
            f"{EXECUTOR_KINDS}")
    if max_workers <= 0:
        raise ValueError(
            f"max_workers must be >= 1, got {max_workers}")
    if kind == "serial":
        return SerialExecutor()
    return ProcessExecutor(max_workers=max_workers)
