"""Zero-copy shared-memory data plane for process executors.

Without it, a process executor re-pickles the data-graph-sized payload
— CSR arrays, signature-table rows, PCSR ci words — to every worker
chunk, so on large graphs the *shipping* is the cost even though
workers cache built engines.  This module moves the big arrays into
named :mod:`multiprocessing.shared_memory` segments owned by the
parent (:class:`~repro.service.executors.EngineFanout` holds the
leases); what crosses the pipe is a compact picklable *handle* —
segment names + dtypes + shapes + an epoch — and workers attach
read-only by name, once per engine set (the executors cache attached
engines per epoch).  Steady-state batches therefore ship O(handle)
bytes instead of O(|G|).

Layers
------

* **Blocks** — :class:`BlockHandle` names one shared segment holding one
  whole ndarray.  The parent owns every block it creates in a
  registry; a :class:`BlockLease` unlinks its blocks on release (with
  an ``atexit`` backstop, so a crashed run never leaks ``/dev/shm``
  entries).
* **Handles** — :class:`GraphHandle` (the CSR arrays),
  :class:`SignatureHandle` (table rows + layout flag),
  :class:`PCSRStoreHandle` (the stacked group layer of every edge
  label, its region arrays and every label's live ci prefix, one block
  each), and the composite the executors ship,
  :class:`EngineArtifactsHandle`.

Attach semantics
----------------

Workers attach with :func:`attach_graph` / :func:`attach_engine`.
Every array attaches as a zero-copy read-only view over its segment.
Each call attaches afresh; repeated batches over one publication attach
nothing because the executors cache attached engines per
``(epoch, engine)`` (:class:`~repro.service.executors.EngineContext`).
Attached objects keep their ``SharedMemory`` mappings alive via a
``_shm_refs`` attribute; on Linux an owner-side unlink leaves existing
mappings valid, so a worker mid-batch is never yanked — only *new*
attaches of a retired publication fail, raising
:class:`StaleHandleError` (chained from the underlying
``FileNotFoundError``) instead of silently reading stale arrays.

Attach-side processes must not let the ``resource_tracker`` adopt
segments they merely attached (a worker killed by ``os._exit`` would
otherwise trip spurious leak warnings and unlinks at tracker shutdown);
:func:`_attach_untracked` uses ``track=False`` where available
(Python >= 3.13) and unregisters after attach elsewhere.

Reconstruction contracts
------------------------

Attached objects are rebuilt without ever shipping Python containers:

* ``LabeledGraph`` — the CSR arrays (offsets included) attach as they
  are, and the edge map and ``_edge_label_freq`` are re-derived
  vectorized from them: one base map holding every live edge, with no
  changed pairs on top (a spliced parent's shared base and changes are
  never shipped).  Insertion order of the rebuilt edge map, and so of
  ``edges()``, differs from the parent's, which is immaterial
  worker-side: joins read arrays, and ``has_edge`` / ``edge_label``
  are order-insensitive.
* ``PCSRStorage`` — ships its :class:`~repro.storage.pcsr.GroupStack`
  (the live rows of the stacked ``groups``, ``region_start`` and
  ``region_cap``, never a dynamic store's headroom) as one block each
  and every label's live ci prefix back to back in a fourth, whatever
  the number of edge labels; each partition is rebuilt as a view of its
  rows and of its ci slice, and the attached stack walks the chains
  the first time its health is read.  Keys per group are derived
  from the group layer (key slots fill contiguously from slot 0 — a
  ``validate()`` invariant) and each label's ``_empty_pool`` is exactly
  its zero-key groups (chain extension targets receive a key
  immediately and keys are never evicted).  Worker-side stores are
  read-only: probes and neighbor reads never mutate.

Differential testing asserts process-executor results byte-identical to
the in-process serial arm across the batch and sharded paths.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.arraytypes import Array
from repro.core.signature_table import SignatureTable
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage.pcsr import (
    _EMPTY_SLOT,
    GroupStack,
    PCSRPartition,
    PCSRStorage,
)

if TYPE_CHECKING:  # runtime import stays inside attach_engine (the
    # core package imports storage; a top-level import would cycle)
    from repro.core.config import GSIConfig
    from repro.core.engine import GSIEngine


class StaleHandleError(RuntimeError):
    """A handle names a shared segment its owner already unlinked.

    Raised on attach of a retired publication — e.g. a worker holding a
    stale-epoch :class:`EngineArtifactsHandle` after the owning engine
    rebuilt.  The fix is always to re-publish and re-ship the handle;
    silently serving the old arrays is never an option because the
    mapping is gone.
    """


# ----------------------------------------------------------------------
# Owner-side block registry (unlink on release; atexit backstop)
# ----------------------------------------------------------------------

_LOCK = threading.Lock()
_OWNED: Dict[str, shared_memory.SharedMemory] = {}


@dataclass(frozen=True)
class BlockHandle:
    """One shared segment holding one whole ndarray."""

    name: str
    dtype: str
    shape: Tuple[int, ...]


def _create_block(arr: Array) -> BlockHandle:
    """Copy ``arr`` into a fresh named segment owned by this process."""
    arr = np.ascontiguousarray(arr)
    name = f"gsi{os.getpid():x}_{uuid.uuid4().hex[:12]}"
    seg = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(1, arr.nbytes))
    if arr.nbytes:
        Array(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
    with _LOCK:
        _OWNED[name] = seg
    registry = get_registry()
    registry.counter(
        "gsi_shm_segments_total",
        "Shared-memory segments published.").inc(1.0)
    registry.counter(
        "gsi_shm_published_bytes_total",
        "Bytes copied into fresh shared-memory segments.").inc(
            float(arr.nbytes))
    return BlockHandle(name=name, dtype=str(arr.dtype),
                       shape=tuple(int(s) for s in arr.shape))


def _release(names: Iterable[str]) -> None:
    with _LOCK:
        # A name already gone was force-released (atexit raced).
        dead = [_OWNED.pop(name) for name in names if name in _OWNED]
    for seg in dead:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
        seg.close()


def owned_segment_names() -> Tuple[str, ...]:
    """Names of every live segment this process owns (leak checks)."""
    with _LOCK:
        return tuple(sorted(_OWNED))


@atexit.register
def _cleanup_owned_segments() -> None:  # pragma: no cover - process exit
    """Backstop: unlink whatever leases were never released."""
    with _LOCK:
        dead = list(_OWNED.values())
        _OWNED.clear()
    for seg in dead:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        seg.close()


class BlockLease:
    """Owner-side hold on the shared blocks of one publication.

    Publications hand one of these back; :meth:`release` (idempotent)
    unlinks every block the lease names.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self._names = tuple(names)
        self._released = False

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        _release(self._names)

    def __enter__(self) -> "BlockLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


# ----------------------------------------------------------------------
# Attach-side primitives
# ----------------------------------------------------------------------


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach by name without adopting the segment into the resource
    tracker.  Only the *owner* may be tracked: a tracked attach would
    warn (and unlink early) when a worker exits, and — because forked
    workers and in-process attaches share the owner's tracker — an
    attach-then-``unregister`` would strip the owner's own registration
    instead.  On Python >= 3.13 ``track=False`` says this directly; on
    older versions registration is suppressed for the duration of the
    attach (the GIL makes the swap safe for our single-threaded attach
    paths, and any concurrent attach wants the suppression too)."""
    try:
        return shared_memory.SharedMemory(name=name, create=False,
                                          track=False)
    except TypeError:  # Python < 3.13 has no track kwarg
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


def _attach_block(block: BlockHandle
                  ) -> Tuple[Array, shared_memory.SharedMemory]:
    try:
        seg = _attach_untracked(block.name)
    except FileNotFoundError as exc:
        raise StaleHandleError(
            f"shared block {block.name!r} is gone — its publication was "
            f"retired (owner closed or rebuilt); re-publish and ship a "
            f"fresh handle") from exc
    arr = Array(block.shape, dtype=np.dtype(block.dtype),
                     buffer=seg.buf)
    arr.flags.writeable = False
    return arr, seg


# ----------------------------------------------------------------------
# Publications: graphs, signature tables, PCSR stores
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphHandle:
    """A :class:`LabeledGraph` as its four shared CSR blocks."""

    vlabels: BlockHandle
    offsets: BlockHandle
    nbr: BlockHandle
    elab: BlockHandle

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.vlabels.name, self.offsets.name, self.nbr.name,
                self.elab.name)


@dataclass(frozen=True)
class SignatureHandle:
    """A :class:`SignatureTable` as one shared block of rows."""

    table: BlockHandle
    column_first: bool

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.table.name,)


@dataclass(frozen=True)
class PCSRStoreHandle:
    """A :class:`PCSRStorage` as one block per stacked array, every
    label's live ci back to back in one more, and per-label ints (label
    order)."""

    gpn: int
    labels: Tuple[int, ...]
    num_groups: Tuple[int, ...]
    ci_len: Tuple[int, ...]
    dead_words: Tuple[int, ...]
    groups: BlockHandle
    region_start: BlockHandle
    region_cap: BlockHandle
    ci: BlockHandle

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.groups.name, self.region_start.name,
                self.region_cap.name, self.ci.name)


@dataclass(frozen=True)
class EngineArtifactsHandle:
    """Everything a worker needs to serve a :class:`GSIEngine` without
    receiving the payload: graph + signature table (+ PCSR store when
    the parent serves PCSR; other store kinds rebuild deterministically
    from the attached graph)."""

    epoch: int
    graph: GraphHandle
    signature: SignatureHandle
    store: Optional[PCSRStoreHandle]

    @property
    def names(self) -> Tuple[str, ...]:
        names = self.graph.names + self.signature.names
        if self.store is not None:
            names = names + self.store.names
        return names


def _publish_graph_blocks(graph: LabeledGraph) -> GraphHandle:
    offsets, nbr, elab = graph.incidence()
    return GraphHandle(vlabels=_create_block(graph.vertex_labels),
                       offsets=_create_block(offsets),
                       nbr=_create_block(nbr),
                       elab=_create_block(elab))


def publish_graph(graph: LabeledGraph
                  ) -> Tuple[GraphHandle, BlockLease]:
    """Place a graph's CSR arrays into shared blocks."""
    handle = _publish_graph_blocks(graph)
    return handle, BlockLease(handle.names)


def _publish_pcsr_blocks(store: PCSRStorage) -> PCSRStoreHandle:
    stack = store._stack
    return PCSRStoreHandle(
        gpn=store.gpn,
        labels=tuple(int(p.label) for p in stack.parts),
        num_groups=tuple(p.num_groups for p in stack.parts),
        ci_len=tuple(p._ci_len for p in stack.parts),
        dead_words=tuple(p._dead_words for p in stack.parts),
        groups=_create_block(stack.groups),
        region_start=_create_block(stack.region_start),
        region_cap=_create_block(stack.region_cap),
        ci=_create_block(np.concatenate(
            [np.empty(0, dtype=np.int64)] + [p.ci for p in stack.parts])))


def publish_engine(engine: GSIEngine, *, epoch: int
                   ) -> Tuple[EngineArtifactsHandle, BlockLease]:
    """Publish a live :class:`GSIEngine`'s artifacts under one lease.

    PCSR stores ship as blocks; any other store kind (or an injected
    subclass) is omitted and rebuilt deterministically worker-side from
    the attached graph + config.
    """
    with get_tracer().span("shm.publish_engine", epoch=epoch) as span:
        handle = EngineArtifactsHandle(
            epoch=epoch, graph=_publish_graph_blocks(engine.graph),
            signature=SignatureHandle(
                table=_create_block(engine.signature_table.table),
                column_first=engine.signature_table.column_first),
            store=(_publish_pcsr_blocks(engine.store)
                   if type(engine.store) is PCSRStorage else None))
        span.set_attribute("segments", len(handle.names))
    return handle, BlockLease(handle.names)


# ----------------------------------------------------------------------
# Attach: worker-side reconstruction
# ----------------------------------------------------------------------


def attach_graph(handle: GraphHandle) -> LabeledGraph:
    """Reconstruct a read-only :class:`LabeledGraph` from shared blocks."""
    arrays, segs = zip(*(_attach_block(block) for block in (
        handle.vlabels, handle.offsets, handle.nbr, handle.elab)))
    vlabels, offsets, nbr, elab = arrays
    # Vectorized metadata rebuild from the CSR arrays: each undirected
    # edge appears once with src < dst.
    src = np.repeat(np.arange(len(vlabels), dtype=np.int64),
                    np.diff(offsets))
    mask = src < nbr
    lo, hi, lab = src[mask], nbr[mask], elab[mask]
    labels, counts = np.unique(lab, return_counts=True)
    graph = LabeledGraph._from_csr(
        vlabels, offsets, nbr, elab,
        dict(zip(zip(lo.tolist(), hi.tolist()), lab.tolist())),
        dict(zip(labels.tolist(), counts.tolist())))
    graph._shm_refs = list(segs)  # keep the mappings alive with the graph
    return graph


def attach_signature(handle: SignatureHandle) -> SignatureTable:
    """Reconstruct a read-only :class:`SignatureTable`."""
    table, seg = _attach_block(handle.table)
    sig = SignatureTable(table, column_first=handle.column_first)
    sig._shm_refs = [seg]
    return sig


def attach_pcsr(handle: PCSRStoreHandle) -> PCSRStorage:
    """Reconstruct a read-only :class:`PCSRStorage`."""
    arrays, segs = zip(*(_attach_block(block) for block in (
        handle.groups, handle.region_start, handle.region_cap, handle.ci)))
    groups, region_start, region_cap, ci = arrays
    # Key slots fill contiguously from slot 0 (a validate() invariant),
    # and a group is in the empty pool iff it holds no keys: chain
    # extension targets receive a key immediately and keys are never
    # evicted, so both containers are derivable from the group layer.
    kpg = (groups[:, :handle.gpn - 1, 0] != _EMPTY_SLOT).sum(
        axis=1).astype(np.int64)
    parts = []
    base = word = 0
    for label, num_groups, ci_len, dead_words in zip(
            handle.labels, handle.num_groups, handle.ci_len,
            handle.dead_words):
        part = object.__new__(PCSRPartition)
        part.gpn = handle.gpn
        part.label = label
        part.num_groups = num_groups
        part._ci_buf = ci[word:word + ci_len]
        part._ci_len = ci_len
        part._dead_words = dead_words
        own = kpg[base:base + num_groups]
        part._num_keys = int(own.sum())
        part._empty_pool = set(np.flatnonzero(own == 0).tolist())
        parts.append(part)
        base += num_groups
        word += ci_len
    store = object.__new__(PCSRStorage)
    store.gpn = handle.gpn
    store._stack = GroupStack.over(
        parts, handle.gpn, (groups, region_start, region_cap, kpg))
    store._parts = {p.label: p for p in parts}
    store._shm_refs = list(segs)
    return store


def attach_engine(handle: EngineArtifactsHandle,
                  config: Optional[GSIConfig]) -> "GSIEngine":
    """Build a worker-side :class:`GSIEngine` over attached artifacts."""
    from repro.core.engine import GSIEngine

    graph = attach_graph(handle.graph)
    signature = attach_signature(handle.signature)
    store = (attach_pcsr(handle.store) if handle.store is not None
             else None)
    return GSIEngine(graph, config, signature_table=signature,
                     store=store)
