"""Tracing core: spans, tracers, and cross-process trace contexts.

One :class:`Tracer` collects :class:`Span` records for a single trace
tree.  Spans are context managers timed with ``time.perf_counter`` and
carry structured attributes (query fingerprint, shard id, executor
kind, kernel lane).  Nesting is tracked per thread, so the serial
executor parents spans automatically on any thread; process workers get
a :class:`TraceContext` — the ``(trace_id, span_id)`` pair that pickles
with each ``PreparedQuery`` task — record spans locally under
:func:`shipped_spans`, and ship the finished span dicts back with their
results, where the coordinator re-parents them into one coherent tree
via :meth:`Tracer.absorb`.

The module-global tracer defaults to :class:`NullTracer`, whose
``span()`` returns a shared inert span: the disabled path is one
virtual call and no allocation, so instrumentation can stay in hot
paths permanently.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Type


def _new_id() -> str:
    """A fresh 64-bit hex id for traces and spans."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The picklable propagation handle: trace id + parent span id.

    This is everything a remote worker needs to record spans that
    re-parent correctly when shipped back to the coordinator.
    """

    trace_id: str
    span_id: str


class Span:
    """One timed operation in a trace.

    Use as a context manager (``with tracer.span("phase") as sp:``) or
    call :meth:`end` explicitly — gsilint rule GSI006 enforces that one
    of the two happens.  Timing uses ``perf_counter`` for duration and
    ``time.time`` for the wall-clock start (so spans from different
    processes line up on one timeline).
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id",
                 "attributes", "duration_ms", "_tracer", "_start_perf",
                 "_start_wall", "_ended", "_entered")

    def __init__(self, tracer: Optional["Tracer"], name: str,
                 trace_id: str, parent_id: Optional[str],
                 attributes: Dict[str, Any]) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.duration_ms = 0.0
        self._tracer = tracer
        self._start_perf = time.perf_counter()
        self._start_wall = time.time()
        self._ended = False
        self._entered = False

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one structured attribute to the span."""
        self.attributes[key] = value

    def context(self) -> TraceContext:
        """The :class:`TraceContext` for children of this span."""
        return TraceContext(self.trace_id, self.span_id)

    def end(self) -> None:
        """Finalize the span and hand it to the owning tracer."""
        if self._ended:
            return
        self._ended = True
        self.duration_ms = (time.perf_counter()
                            - self._start_perf) * 1000.0
        if self._tracer is not None:
            self._tracer._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON/pickle-ready record (the NDJSON line, one per span)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": self._start_wall * 1000.0,
            "duration_ms": self.duration_ms,
            "pid": os.getpid(),
            "attrs": dict(self.attributes),
        }

    def __enter__(self) -> "Span":
        self._entered = True
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self.end()


class _SpanStack(threading.local):
    """Per-thread stack of active spans (automatic parenting)."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class Tracer:
    """Collects the spans of one trace tree.

    Thread-safe: several threads (the server's batch-runner thread and
    its event loop, say) record into the same tracer concurrently;
    nesting is tracked per thread and the finished-span list is
    lock-guarded.
    """

    #: gsilint GSI003: worker threads end spans while the coordinator
    #: absorbs shipped ones; every touch goes through self._lock
    _GUARDED_BY_LOCK = ("_finished",)

    def __init__(self, trace_id: Optional[str] = None,
                 parent: Optional[TraceContext] = None) -> None:
        if parent is not None and trace_id is None:
            trace_id = parent.trace_id
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self._root_parent = parent.span_id if parent is not None else None
        self._lock = threading.Lock()
        self._finished: List[Dict[str, Any]] = []
        self._active = _SpanStack()

    # -- recording ----------------------------------------------------

    def span(self, name: str, parent: Optional[TraceContext] = None,
             **attributes: Any) -> Span:
        """Open a span; parent is the innermost active span on this
        thread unless an explicit :class:`TraceContext` is given."""
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
        elif self._active.stack:
            parent_id = self._active.stack[-1].span_id
        else:
            parent_id = self._root_parent
        return Span(self, name, self.trace_id, parent_id, attributes)

    def _push(self, span: Span) -> None:
        self._active.stack.append(span)

    def _finish(self, span: Span) -> None:
        stack = self._active.stack
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._finished.append(span.to_dict())

    # -- reading / merging --------------------------------------------

    def current_context(self) -> Optional[TraceContext]:
        """Propagation context of the innermost active span, if any."""
        if self._active.stack:
            return self._active.stack[-1].context()
        if self._root_parent is not None:
            return TraceContext(self.trace_id, self._root_parent)
        return None

    def absorb(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Merge spans shipped back from a remote worker."""
        if not span_dicts:
            return
        with self._lock:
            self._finished.extend(span_dicts)

    def finished(self) -> List[Dict[str, Any]]:
        """Snapshot of all finished span dicts, in end order."""
        with self._lock:
            return list(self._finished)


class NullSpan(Span):
    """The shared inert span the disabled path hands out."""

    def __init__(self) -> None:
        super().__init__(None, "", "", None, {})

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def end(self) -> None:
        return None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        return None


class NullTracer(Tracer):
    """Tracing disabled: every call is a no-op returning shared
    objects, so instrumented hot paths pay near-zero overhead."""

    def __init__(self) -> None:
        super().__init__(trace_id="")
        self._null_span = NullSpan()

    def span(self, name: str, parent: Optional[TraceContext] = None,
             **attributes: Any) -> Span:
        return self._null_span

    def current_context(self) -> Optional[TraceContext]:
        return None

    def absorb(self, span_dicts: List[Dict[str, Any]]) -> None:
        return None

    def finished(self) -> List[Dict[str, Any]]:
        return []


_NULL_TRACER = NullTracer()
_ACTIVE_TRACER: Tracer = _NULL_TRACER


def get_tracer() -> Tracer:
    """The process-global tracer (a :class:`NullTracer` by default)."""
    return _ACTIVE_TRACER


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` globally (None restores the null tracer);
    returns the previously installed tracer."""
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer if tracer is not None else _NULL_TRACER
    return previous


def tracing_active() -> bool:
    """True when a recording (non-null) tracer is installed."""
    return not isinstance(_ACTIVE_TRACER, NullTracer)


def current_trace_context() -> Optional[TraceContext]:
    """Propagation context of the active tracer, or None when
    disabled — the value stamped onto picklable carriers."""
    return _ACTIVE_TRACER.current_context()


@contextmanager
def shipped_spans(ctx: Optional[TraceContext]
                  ) -> Iterator[List[Dict[str, Any]]]:
    """Collect spans for shipping across a process boundary.

    Inside a process worker (no recording tracer installed) this
    installs a fresh :class:`Tracer` bound to ``ctx`` for the duration
    of the block and fills the yielded list with the finished span
    dicts afterwards — the worker returns that list with its results.
    When ``ctx`` is None (tracing disabled) or a recording tracer is
    already active (the serial executor in the coordinator),
    spans land in the active tracer directly and the list stays empty.
    """
    out: List[Dict[str, Any]] = []
    if ctx is None or tracing_active():
        yield out
        return
    local = Tracer(parent=ctx)
    previous = set_tracer(local)
    try:
        yield out
    finally:
        set_tracer(previous)
        out.extend(local.finished())
