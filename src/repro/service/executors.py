"""Pluggable parallel execution for the query services.

The batch service and the sharded coordinator fan work out over
embarrassingly parallel per-query units — joining a prepared query on
an engine or on a shard.  This module abstracts *how* that fan-out
happens behind one :class:`QueryExecutor` protocol with a single entry
point, :meth:`QueryExecutor.map_tasks`, and two implementations:

* :class:`SerialExecutor` — an in-process loop.  The reference
  executor and the default everywhere: zero concurrency, zero
  overhead, bit-for-bit deterministic.
* :class:`ProcessExecutor` — a :class:`~concurrent.futures.
  ProcessPoolExecutor`.  True multi-core parallelism for the
  Python/numpy-heavy joining phase.

Both produce *identical results in submission order*: executors change
wall-clock only, never match sets, simulated measurements, or
transaction totals (each query runs on its own simulated device whose
accounting is deterministic).

Shipping contract (ProcessExecutor)
-----------------------------------

:meth:`~QueryExecutor.map_tasks` splits the payloads statically into
one equal-count chunk per worker and pickles, per chunk, the task
function (by reference, so it must be module-level), the chunk's
payloads and the batch-constant ``shared`` context.  The executor
knows nothing about engines or shared memory.  Payloads must pickle:
a :class:`~repro.core.engine.PreparedQuery` carries the query graph
and candidate arrays (numpy), the :class:`~repro.core.plan.JoinPlan`
(tuples) and the simulated :class:`~repro.gpusim.device.Device`
mid-flight (plain counters — no locks, no handles).

Engines reach tasks one way: through an :class:`EngineContext` handed
out by the :class:`EngineFanout` of the service that owns them — one
engine for the batch service, one per shard for the sharded
coordinator.  In process the context holds the live engines.  For a
process pool the fan-out first publishes every engine's artifacts —
CSR arrays, signature-table rows, PCSR layers — into named
:mod:`multiprocessing.shared_memory` segments
(:mod:`repro.storage.shm`), and the context pickles as the config plus
one compact :class:`~repro.storage.shm.EngineArtifactsHandle` per
engine (segment names + dtypes + shapes + an epoch): O(handle) bytes
regardless of ``|G|``.  A worker attaches an engine the first time one
of its tasks needs it and caches it per ``(epoch, engine)``.  The
owning service publishes on its first process batch and unlinks the
segments on ``close()`` (with an ``atexit`` backstop); every
publication takes a fresh epoch, a republication after ``close()``
included, and attaching a retired handle raises
:class:`~repro.storage.shm.StaleHandleError`.  Engines whose store is
not a plain PCSR store rebuild it worker-side from the attached graph
+ config.  Either way a worker-side engine executes a prepared query
bit-for-bit like the parent's engine would.

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

The stream engine does not use an executor: its per-query delta
matching through a 2-worker process pool took 14.5-16.0 s per 200
update batches against 7.8-9.4 s in process, so it runs in process.
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
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, set_tracer
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


@dataclass
class ExecutedQuery:
    """Outcome of executing one prepared query (joins a ``BatchItem``).

    ``spans`` carries trace spans recorded inside a process worker
    back across the pickle boundary; the service that fanned the query
    out absorbs them into the coordinator's tracer.
    """

    index: int
    result: MatchResult
    error: Optional[str] = None
    execute_ms: float = 0.0
    spans: List[Dict[str, Any]] = field(default_factory=list)


def _execute_one(engine: GSIEngine, index: int, prepared: PreparedQuery,
                 error_label: str) -> ExecutedQuery:
    """Execute one prepared query, converting failures to per-item
    errors (shared by every task function so error semantics are
    uniform)."""
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
    """How per-query work units run: serially or on worker processes."""

    name: str = "abstract"
    workers: int = 1

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

    def map_tasks(self, fn: Callable[[Any, Any], Any],
                  payloads: Sequence[Any],
                  shared: Any = None) -> List[Any]:
        with get_tracer().span("executor.map_tasks", executor=self.name,
                               tasks=len(payloads)):
            return [fn(shared, payload) for payload in payloads]


# ----------------------------------------------------------------------
# Engine fan-out: the one way an engine reaches a task function
# ----------------------------------------------------------------------

#: monotonic fan-out epochs (one per engine set)
_EPOCHS = itertools.count(1)

#: per-worker-process engine cache, keyed (epoch, engine ordinal)
_WORKER_ENGINES: Dict[Tuple[int, int], GSIEngine] = {}


class EngineContext:
    """Batch-constant fan-out context: the engines tasks run on.

    A task function asks for :meth:`engine` by ordinal (``0`` for the
    batch service, the shard id for shards).  In process the context
    holds the live engines.  Pickling drops them and ships the config
    plus one :class:`~repro.storage.shm.EngineArtifactsHandle` per
    engine; a worker attaches an engine only when one of its tasks
    needs it and caches it per ``(epoch, ordinal)``, so repeated
    batches attach nothing and no worker holds engines it never
    executes.
    """

    def __init__(self, epoch: int, config: GSIConfig,
                 engines: Optional[Sequence[GSIEngine]],
                 handles: Tuple[EngineArtifactsHandle, ...] = ()
                 ) -> None:
        self.epoch = epoch
        self.config = config
        self.engines = engines
        self.handles = handles

    def __getstate__(self) -> Dict[str, Any]:
        return {"epoch": self.epoch, "config": self.config,
                "handles": self.handles}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.engines = None

    def engine(self, ordinal: int) -> GSIEngine:
        if self.engines is not None:
            return self.engines[ordinal]
        key = (self.epoch, ordinal)
        engine = _WORKER_ENGINES.get(key)
        if engine is None:
            # One engine set per worker at a time keeps memory bounded:
            # a new epoch evicts every older epoch's engines.
            for stale in [k for k in _WORKER_ENGINES if k[0] != self.epoch]:
                del _WORKER_ENGINES[stale]
            engine = attach_engine(self.handles[ordinal], self.config)
            _WORKER_ENGINES[key] = engine
        return engine


class EngineFanout:
    """A service's engines and their shared-memory publication.

    :meth:`context` hands a :class:`ProcessExecutor` the handle-based
    context — publishing every engine on the first process batch and
    reusing that publication afterwards — and any other executor the
    live engines.  Every publication takes a fresh epoch, a
    republication after :meth:`close` included, so a worker misses its
    cache, attaches the live segments and evicts the retired engines;
    a worker holding stale handles fails loudly instead of serving
    superseded arrays.
    """

    #: gsilint GSI003: concurrent first batches race to publish
    _GUARDED_BY_LOCK = ("_shared", "_leases")

    def __init__(self, engines: Sequence[GSIEngine],
                 config: GSIConfig) -> None:
        self.engines = list(engines)
        self.config = config
        #: the epoch of the current publication (0 before the first)
        self.epoch = 0
        self._local = EngineContext(self.epoch, config, self.engines)
        self._lock = threading.Lock()
        self._shared: Optional[EngineContext] = None
        self._leases: List[BlockLease] = []

    def context(self, executor: QueryExecutor) -> EngineContext:
        if not isinstance(executor, ProcessExecutor):
            return self._local
        with self._lock:
            if self._shared is None:
                self.epoch = next(_EPOCHS)
                handles = []
                for engine in self.engines:
                    handle, lease = publish_engine(engine,
                                                   epoch=self.epoch)
                    handles.append(handle)
                    self._leases.append(lease)
                self._shared = EngineContext(self.epoch, self.config,
                                             None, tuple(handles))
            return self._shared

    def close(self) -> None:
        """Unlink the publication (idempotent).  The engines stay
        usable; the next process batch republishes."""
        with self._lock:
            leases, self._leases = self._leases, []
            self._shared = None
        for lease in leases:
            lease.release()


# ----------------------------------------------------------------------
# Process pool: chunked work shipping
# ----------------------------------------------------------------------


def _process_worker_init() -> None:
    """Pool initializer.

    Fork-mode workers inherit the coordinator's process globals —
    including a recording tracer, whose spans would silently die with
    the worker.  Reset to the null tracer so worker spans go through
    the explicit shipping path (:func:`repro.obs.trace.shipped_spans`)
    and re-parent in the coordinator, identically under fork and spawn.
    """
    set_tracer(None)


def _process_map_chunk(fn: Callable[[Any, Any], Any], shared: Any,
                       payloads: List[Any]) -> List[Any]:
    """Worker-side map over one pickled chunk (``shared`` is pickled
    once per chunk, not once per payload)."""
    return [fn(shared, payload) for payload in payloads]


def _check_workers(max_workers: int) -> int:
    if max_workers <= 0:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return max_workers


class ProcessExecutor(QueryExecutor):
    """A persistent pool of worker processes.

    The pool is created lazily and kept alive across calls — whatever
    services and engines they serve — so repeated batches amortize
    process spawn.

    Parameters
    ----------
    max_workers:
        Worker process count (``>= 1``).
    start_method:
        Multiprocessing start method for the pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` defers to the
        ``GSI_EXECUTOR_START_METHOD`` environment variable, then the
        platform default.

    After each call :attr:`last_shipment` holds what actually crossed
    the pipe — ``{"call", "context_bytes", "chunks"}`` where
    ``context_bytes`` is the pickled size of ``shared``.  Benchmarks
    persist it to show the per-batch context is O(handle), not O(|G|).
    """

    name = "process"

    def __init__(self, max_workers: int = DEFAULT_EXECUTOR_WORKERS,
                 start_method: Optional[str] = None) -> None:
        self.workers = _check_workers(max_workers)
        self.start_method = (start_method
                             or os.environ.get(START_METHOD_ENV) or None)
        self.last_shipment: Optional[Dict[str, Any]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        # Guards lazy pool creation/teardown under concurrent callers.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                kwargs = {}
                if self.start_method is not None:
                    kwargs["mp_context"] = multiprocessing.get_context(
                        self.start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_process_worker_init, **kwargs)
            return self._pool

    def shutdown(self) -> None:
        """Stop the pool (idempotent; executor stays usable — the next
        call recreates the pool lazily)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def map_tasks(self, fn: Callable[[Any, Any], Any],
                  payloads: Sequence[Any],
                  shared: Any = None) -> List[Any]:
        payloads = list(payloads)
        if not payloads:
            return []
        with get_tracer().span("executor.map_tasks",
                               executor=self.name,
                               tasks=len(payloads)) as span:
            # One chunk per worker: ``shared`` is pickled per chunk, so
            # more chunks would multiply the shipping cost.
            size = math.ceil(len(payloads) / self.workers)
            chunks = [payloads[i:i + size]
                      for i in range(0, len(payloads), size)]
            span.set_attribute("chunks", len(chunks))
            results = self._run_chunks(fn, shared, chunks)
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

    def _run_chunks(self, fn: Callable[[Any, Any], Any], shared: Any,
                    chunks: List[List[Any]]) -> List[List[Any]]:
        """Submit chunks and gather results in submission order.

        A dead worker (OOM-killed, segfault) breaks the whole pool; the
        broken pool is discarded and the call retried once on a fresh
        one, so a long-lived service recovers from transient worker
        death instead of failing every subsequent batch.  Recovery
        replaces only the pool: ``shared`` still names live segments,
        which the owning service keeps until its ``close()``.
        """
        for attempt in (0, 1):
            try:
                # submit() also raises BrokenProcessPool when a worker
                # died while the pool was idle; keep it inside the
                # retry scope so an idle-broken pool is replaced too.
                pool = self._ensure_pool()
                futures = [pool.submit(_process_map_chunk, fn, shared,
                                       chunk) for chunk in chunks]
                return [future.result() for future in futures]
            except BrokenProcessPool:
                # Never hand a dead pool to the next call.
                self.shutdown()
                if attempt == 1:
                    raise
        raise AssertionError("unreachable")


def make_executor(kind: str,
                  max_workers: int = DEFAULT_EXECUTOR_WORKERS
                  ) -> QueryExecutor:
    """Build an executor by name (the CLI's ``--executor`` values).

    Arguments are validated eagerly: an unknown ``kind`` or a
    non-positive ``max_workers`` raise :class:`ValueError` here,
    instead of surfacing later as an opaque pool failure mid-batch.
    ``max_workers`` only sizes the process pool.
    """
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of "
            f"{EXECUTOR_KINDS}")
    _check_workers(max_workers)
    if kind == "serial":
        return SerialExecutor()
    return ProcessExecutor(max_workers=max_workers)
