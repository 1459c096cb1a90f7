"""Zero-copy shared-memory data plane for process executors.

The process executor's historical defect: every batch re-pickled the
data-graph-sized payload — CSR arrays, signature-table rows, PCSR ci
words — to each worker chunk (``_DeltaContext`` for streams, the
engine context for batches and shards), so on large graphs the
*shipping* was the cost even though workers cached built engines.
This module moves the big arrays into named
:mod:`multiprocessing.shared_memory` segments owned by the parent
(:class:`~repro.service.executors.EngineFanout` and the stream engine
hold the leases); what crosses the pipe is a compact
picklable *handle* — segment names + dtypes + shapes + an epoch — and
workers attach read-only by name, memoizing the attach per publication.
Steady-state batches therefore ship O(handle) bytes instead of O(|G|).

Layers
------

* **Blocks** — :class:`BlockHandle` names one shared segment holding one
  contiguous ndarray.  The parent owns every block it creates in a
  refcounted registry; :class:`BlockLease` objects hold references and
  unlink segments when the last reference drops (with an ``atexit``
  backstop, so a crashed run never leaks ``/dev/shm`` entries).
* **Publications** — :class:`ArrayPublication` is one logical array
  split into vertex-range chunks (:data:`DEFAULT_CHUNK` rows each).
  Chunking is what makes *patch* publications O(changes): a new
  snapshot re-publishes only the chunks containing touched vertices and
  re-leases the untouched chunks by name (refcount bump, no copy).
* **Handles** — :class:`GraphHandle` (CSR arrays, shipped as
  shift-invariant *degrees*; attach rebuilds offsets by prefix sum),
  :class:`SignatureHandle` (table rows + layout flag),
  :class:`PCSRStoreHandle` (per-partition group arrays + live ci
  prefix), and the two composites the executors ship:
  :class:`EngineArtifactsHandle` (batch/shard path) and
  :class:`GraphSnapshotHandle` (stream path).

Attach semantics
----------------

Workers attach with :func:`attach_graph` / :func:`attach_snapshot` /
:func:`attach_engine`.  Single-chunk publications attach as true
zero-copy read-only views over the segment; multi-chunk publications
concatenate into worker-private memory once and are memoized (LRU per
handle), so repeated batches over the same publication attach nothing.
Attached objects keep their ``SharedMemory`` mappings alive via a
``_shm_refs`` attribute; on Linux an owner-side unlink leaves existing
mappings valid, so a worker mid-batch is never yanked — only *new*
attaches of a retired publication fail, raising :class:`StaleHandleError`
(chained from the underlying ``FileNotFoundError``) instead of silently
reading stale arrays.

Attach-side processes must not let the ``resource_tracker`` adopt
segments they merely attached (a worker killed by ``os._exit`` would
otherwise trip spurious leak warnings and unlinks at tracker shutdown);
:func:`_attach_untracked` uses ``track=False`` where available
(Python >= 3.13) and unregisters after attach elsewhere.

Reconstruction contracts
------------------------

Attached objects are rebuilt without ever shipping Python containers:

* ``LabeledGraph`` — offsets are the prefix sum of the shipped degrees
  (offsets themselves shift under patches; degrees of untouched rows do
  not), and ``_edge_map`` / ``_edge_label_freq`` are re-derived
  vectorized from the CSR arrays.  Insertion order of the rebuilt edge
  map differs from the parent's, which is immaterial worker-side: joins
  read arrays, and ``has_edge`` / ``edge_label`` are order-insensitive.
* ``PCSRPartition`` — ships ``groups``, the live ci prefix and the
  region arrays; ``_keys_per_group`` is derived from the group layer
  (key slots fill contiguously from slot 0 — a ``validate()``
  invariant) and ``_empty_pool`` is exactly the zero-key groups (chain
  extension targets receive a key immediately and keys are never
  evicted).  Worker-side stores are read-only: probes and neighbor
  reads never mutate.

Differential testing asserts process-executor results byte-identical to
the in-process serial arm across the batch, stream, and sharded paths.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.arraytypes import Array
from repro.core.signature_table import SignatureTable
from repro.errors import StorageError
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage.pcsr import _EMPTY_SLOT, PCSRPartition, PCSRStorage

if TYPE_CHECKING:  # runtime import stays inside attach_engine (the
    # core package imports storage; a top-level import would cycle)
    from repro.core.config import GSIConfig
    from repro.core.engine import GSIEngine

#: rows per publication chunk; the patch-sharing granularity
DEFAULT_CHUNK = 4096


class StaleHandleError(RuntimeError):
    """A handle names a shared segment its owner already unlinked.

    Raised on attach of a retired publication — e.g. a worker holding a
    stale-epoch :class:`EngineArtifactsHandle` after the owning engine
    rebuilt.  The fix is always to re-publish and re-ship the handle;
    silently serving the old arrays is never an option because the
    mapping is gone.
    """


# ----------------------------------------------------------------------
# Owner-side block registry (refcounted; unlink at zero; atexit backstop)
# ----------------------------------------------------------------------

_LOCK = threading.Lock()
_OWNED: Dict[str, shared_memory.SharedMemory] = {}
_REFS: Dict[str, int] = {}


@dataclass(frozen=True)
class BlockHandle:
    """One shared segment holding one contiguous ndarray."""

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
        _REFS[name] = 1
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


def _retain(names: Iterable[str]) -> None:
    with _LOCK:
        for name in names:
            if name not in _REFS:
                raise StorageError(
                    f"cannot retain unowned shared block {name!r}")
            _REFS[name] += 1


def _release(names: Iterable[str]) -> None:
    dead: List[shared_memory.SharedMemory] = []
    with _LOCK:
        for name in names:
            refs = _REFS.get(name)
            if refs is None:
                continue  # already force-released (atexit raced)
            if refs > 1:
                _REFS[name] = refs - 1
            else:
                del _REFS[name]
                dead.append(_OWNED.pop(name))
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
        _REFS.clear()
    for seg in dead:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        seg.close()


class BlockLease:
    """Owner-side reference on a set of shared blocks.

    Publications hand one of these back; :meth:`release` (idempotent)
    drops the references, unlinking any block whose refcount reaches
    zero.  Blocks shared between a patched publication and its
    predecessor carry one reference per lease, so releasing the old
    snapshot's lease never unlinks chunks the new snapshot still uses.
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
            f"retired (owner shut down, rebuilt, or committed a new "
            f"epoch); re-publish and ship a fresh handle") from exc
    arr = Array(block.shape, dtype=np.dtype(block.dtype),
                     buffer=seg.buf)
    arr.flags.writeable = False
    return arr, seg


@dataclass(frozen=True)
class ArrayPublication:
    """One logical array as an ordered tuple of chunk blocks."""

    blocks: Tuple[BlockHandle, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(b.name for b in self.blocks)


def _attach_publication(pub: ArrayPublication
                        ) -> Tuple[Array,
                                   List[shared_memory.SharedMemory]]:
    """Attach a publication: a zero-copy view for single-chunk, one
    worker-private concatenation for multi-chunk."""
    pairs = [_attach_block(block) for block in pub.blocks]
    segs = [seg for _, seg in pairs]
    if len(pairs) == 1:
        return pairs[0][0], segs
    arr = np.concatenate([a for a, _ in pairs])
    arr.flags.writeable = False
    return arr, segs


# ----------------------------------------------------------------------
# Publications: graphs, signature tables, PCSR stores
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphHandle:
    """A :class:`LabeledGraph` as shared CSR blocks.

    Degrees ship instead of offsets: offsets shift cumulatively under
    patches while untouched rows' degrees (and row contents) do not, so
    degree chunks are reusable across snapshots.  ``nbr`` / ``elab``
    chunks are row-aligned to the same vertex ranges.
    """

    num_vertices: int
    chunk: int
    vlabels: ArrayPublication
    degrees: ArrayPublication
    nbr: ArrayPublication
    elab: ArrayPublication

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.vlabels.names + self.degrees.names
                + self.nbr.names + self.elab.names)


@dataclass(frozen=True)
class SignatureHandle:
    """A :class:`SignatureTable` as row-chunked shared blocks."""

    table: ArrayPublication
    column_first: bool

    @property
    def names(self) -> Tuple[str, ...]:
        return self.table.names


@dataclass(frozen=True)
class PCSRPartitionHandle:
    """One :class:`PCSRPartition` as shared blocks plus derivable ints."""

    label: int
    gpn: int
    num_groups: int
    ci_len: int
    dead_words: int
    groups: ArrayPublication
    ci: ArrayPublication
    region_start: ArrayPublication
    region_cap: ArrayPublication

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.groups.names + self.ci.names
                + self.region_start.names + self.region_cap.names)


@dataclass(frozen=True)
class PCSRStoreHandle:
    """A :class:`PCSRStorage` as per-partition handles."""

    gpn: int
    parts: Tuple[PCSRPartitionHandle, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n for p in self.parts for n in p.names)


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


@dataclass(frozen=True)
class GraphSnapshotHandle:
    """The stream's per-batch context payload: committed snapshot +
    maintained signature rows, as shared blocks keyed by commit epoch."""

    epoch: int
    graph: GraphHandle
    table: ArrayPublication

    @property
    def names(self) -> Tuple[str, ...]:
        return self.graph.names + self.table.names


def _vertex_ranges(n: int, chunk: int) -> List[Tuple[int, int]]:
    if n <= 0:
        return [(0, 0)]
    return [(a, min(a + chunk, n)) for a in range(0, n, chunk)]


def _touched_chunks(touched: Iterable[int], chunk: int) -> Set[int]:
    return {v // chunk for v in touched}


def _publish_graph_blocks(graph: LabeledGraph, chunk: int
                          ) -> Tuple[GraphHandle, List[str]]:
    vlabels, degrees, nbr, elab = graph.csr_arrays()
    n = graph.num_vertices
    offsets = graph._offsets
    ranges = _vertex_ranges(n, chunk)
    vl = [_create_block(vlabels[a:b]) for a, b in ranges]
    dg = [_create_block(degrees[a:b]) for a, b in ranges]
    nb = [_create_block(nbr[offsets[a]:offsets[b]]) for a, b in ranges]
    el = [_create_block(elab[offsets[a]:offsets[b]]) for a, b in ranges]
    handle = GraphHandle(
        num_vertices=n, chunk=chunk,
        vlabels=ArrayPublication(tuple(vl)),
        degrees=ArrayPublication(tuple(dg)),
        nbr=ArrayPublication(tuple(nb)),
        elab=ArrayPublication(tuple(el)))
    return handle, list(handle.names)


def _patch_chunks(prev: ArrayPublication, slices: List[Array],
                  stale: Set[int], names: List[str]
                  ) -> ArrayPublication:
    """Re-publish only stale chunks; re-lease the rest by name."""
    blocks: List[BlockHandle] = []
    for k, sl in enumerate(slices):
        old = prev.blocks[k] if k < len(prev.blocks) else None
        if (old is not None and k not in stale
                and old.shape == tuple(int(s) for s in sl.shape)):
            _retain([old.name])
            blocks.append(old)
        else:
            blocks.append(_create_block(sl))
    names.extend(b.name for b in blocks)
    return ArrayPublication(tuple(blocks))


def _publish_graph_patch_blocks(prev: GraphHandle, graph: LabeledGraph,
                                touched: Iterable[int], chunk: int
                                ) -> Tuple[GraphHandle, List[str]]:
    if chunk != prev.chunk:  # chunk policy changed: no reuse possible
        return _publish_graph_blocks(graph, chunk)
    vlabels, degrees, nbr, elab = graph.csr_arrays()
    n = graph.num_vertices
    offsets = graph._offsets
    ranges = _vertex_ranges(n, chunk)
    stale = _touched_chunks(touched, chunk)
    names: List[str] = []
    vl = _patch_chunks(prev.vlabels,
                       [vlabels[a:b] for a, b in ranges], stale, names)
    dg = _patch_chunks(prev.degrees,
                       [degrees[a:b] for a, b in ranges], stale, names)
    nb = _patch_chunks(prev.nbr,
                       [nbr[offsets[a]:offsets[b]] for a, b in ranges],
                       stale, names)
    el = _patch_chunks(prev.elab,
                       [elab[offsets[a]:offsets[b]] for a, b in ranges],
                       stale, names)
    handle = GraphHandle(num_vertices=n, chunk=chunk, vlabels=vl,
                         degrees=dg, nbr=nb, elab=el)
    return handle, names


def publish_graph(graph: LabeledGraph, *, chunk: int = DEFAULT_CHUNK
                  ) -> Tuple[GraphHandle, BlockLease]:
    """Place a graph's CSR arrays into shared blocks."""
    handle, names = _publish_graph_blocks(graph, chunk)
    return handle, BlockLease(names)


def publish_graph_patch(prev: GraphHandle, graph: LabeledGraph,
                        touched: Iterable[int], *,
                        chunk: int = DEFAULT_CHUNK
                        ) -> Tuple[GraphHandle, BlockLease]:
    """Publish a patched snapshot, sharing untouched chunks with
    ``prev`` (O(changes) new shared memory, not O(|G|)).

    ``touched`` must cover every vertex whose label, degree, or
    incidence row differs from ``prev``'s graph — for a
    :meth:`~repro.graph.labeled_graph.LabeledGraph.apply_changes`
    commit that is exactly
    :attr:`~repro.dynamic.graph.CommitResult.touched_vertices`.
    """
    handle, names = _publish_graph_patch_blocks(prev, graph, touched,
                                                chunk)
    return handle, BlockLease(names)


def _publish_table_blocks(table: Array, chunk: int,
                          prev: Optional[ArrayPublication] = None,
                          touched: Optional[Iterable[int]] = None
                          ) -> Tuple[ArrayPublication, List[str]]:
    n = int(table.shape[0])
    ranges = _vertex_ranges(n, chunk)
    slices = [table[a:b] for a, b in ranges]
    names: List[str] = []
    if prev is None:
        pub = ArrayPublication(tuple(_create_block(sl) for sl in slices))
        names.extend(pub.names)
    else:
        stale = _touched_chunks(touched or (), chunk)
        pub = _patch_chunks(prev, slices, stale, names)
    return pub, names


def publish_signature(table: SignatureTable, *,
                      chunk: int = DEFAULT_CHUNK
                      ) -> Tuple[SignatureHandle, BlockLease]:
    """Place a signature table's rows into shared blocks."""
    pub, names = _publish_table_blocks(table.table, chunk)
    return (SignatureHandle(table=pub, column_first=table.column_first),
            BlockLease(names))


def _publish_pcsr_blocks(store: PCSRStorage
                         ) -> Tuple[PCSRStoreHandle, List[str]]:
    parts: List[PCSRPartitionHandle] = []
    names: List[str] = []
    for label in sorted(store._parts):
        part = store._parts[label]
        handle = PCSRPartitionHandle(
            label=int(label), gpn=part.gpn,
            num_groups=part.num_groups, ci_len=part._ci_len,
            dead_words=part._dead_words,
            groups=ArrayPublication((_create_block(part.groups),)),
            ci=ArrayPublication((_create_block(part.ci),)),
            region_start=ArrayPublication(
                (_create_block(part._region_start),)),
            region_cap=ArrayPublication(
                (_create_block(part._region_cap),)))
        parts.append(handle)
        names.extend(handle.names)
    return PCSRStoreHandle(gpn=store.gpn, parts=tuple(parts)), names


def publish_pcsr(store: PCSRStorage
                 ) -> Tuple[PCSRStoreHandle, BlockLease]:
    """Place a PCSR store's group and ci arrays into shared blocks."""
    handle, names = _publish_pcsr_blocks(store)
    return handle, BlockLease(names)


def publish_engine(engine: GSIEngine, *, epoch: int,
                   chunk: int = DEFAULT_CHUNK
                   ) -> Tuple[EngineArtifactsHandle, BlockLease]:
    """Publish a live :class:`GSIEngine`'s artifacts under one lease.

    PCSR stores ship as blocks; any other store kind (or an injected
    subclass) is omitted and rebuilt deterministically worker-side from
    the attached graph + config.
    """
    with get_tracer().span("shm.publish_engine", epoch=epoch) as span:
        graph_h, names = _publish_graph_blocks(engine.graph, chunk)
        sig_pub, sig_names = _publish_table_blocks(
            engine.signature_table.table, chunk)
        names.extend(sig_names)
        store_h: Optional[PCSRStoreHandle] = None
        if type(engine.store) is PCSRStorage:
            store_h, store_names = _publish_pcsr_blocks(engine.store)
            names.extend(store_names)
        handle = EngineArtifactsHandle(
            epoch=epoch, graph=graph_h,
            signature=SignatureHandle(
                table=sig_pub,
                column_first=engine.signature_table.column_first),
            store=store_h)
        span.set_attribute("segments", len(names))
    return handle, BlockLease(names)


def publish_snapshot(graph: LabeledGraph, table: Array, *,
                     epoch: int, chunk: int = DEFAULT_CHUNK
                     ) -> Tuple[GraphSnapshotHandle, BlockLease]:
    """Publish a stream snapshot (graph + signature rows) in full."""
    with get_tracer().span("shm.publish_snapshot",
                           epoch=epoch) as span:
        graph_h, names = _publish_graph_blocks(graph, chunk)
        pub, table_names = _publish_table_blocks(table, chunk)
        names.extend(table_names)
        span.set_attribute("segments", len(names))
    return (GraphSnapshotHandle(epoch=epoch, graph=graph_h, table=pub),
            BlockLease(names))


def publish_snapshot_patch(prev: GraphSnapshotHandle,
                           graph: LabeledGraph, table: Array,
                           touched: Iterable[int], *, epoch: int,
                           chunk: int = DEFAULT_CHUNK
                           ) -> Tuple[GraphSnapshotHandle, BlockLease]:
    """Publish a committed snapshot, reusing every chunk untouched by
    the batch (graph rows and signature rows alike change only at
    touched vertices — vertex labels are immutable)."""
    touched = set(touched)
    with get_tracer().span("shm.publish_snapshot_patch", epoch=epoch,
                           touched=len(touched)) as span:
        graph_h, names = _publish_graph_patch_blocks(prev.graph, graph,
                                                     touched, chunk)
        pub, table_names = _publish_table_blocks(
            table, chunk, prev=prev.table, touched=touched)
        names.extend(table_names)
        span.set_attribute("segments", len(names))
    return (GraphSnapshotHandle(epoch=epoch, graph=graph_h, table=pub),
            BlockLease(names))


# ----------------------------------------------------------------------
# Attach: worker-side reconstruction, memoized per publication
# ----------------------------------------------------------------------

_ATTACH_CACHE: "OrderedDict[object, object]" = OrderedDict()
_ATTACH_CACHE_CAP = 8


def _memo_attach(key: Hashable, build: Callable[[], Any]) -> Any:
    """LRU attach memo: repeated batches over one publication attach
    once per worker.  Eviction only drops this cache's reference —
    attached objects keep their own mappings alive via ``_shm_refs``."""
    hit = _ATTACH_CACHE.get(key)
    if hit is not None:
        _ATTACH_CACHE.move_to_end(key)
        return hit
    value = build()
    _ATTACH_CACHE[key] = value
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_CAP:
        _ATTACH_CACHE.popitem(last=False)
    return value


def _build_graph(handle: GraphHandle) -> LabeledGraph:
    segs: List[shared_memory.SharedMemory] = []
    vlabels, s = _attach_publication(handle.vlabels)
    segs.extend(s)
    degrees, s = _attach_publication(handle.degrees)
    segs.extend(s)
    nbr, s = _attach_publication(handle.nbr)
    segs.extend(s)
    elab, s = _attach_publication(handle.elab)
    segs.extend(s)
    n = handle.num_vertices
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])

    graph = object.__new__(LabeledGraph)
    graph._vlabels = vlabels
    graph._offsets = offsets
    graph._nbr = nbr
    graph._elab = elab
    # Vectorized metadata rebuild from the CSR arrays: each undirected
    # edge appears once with src < dst.
    src = np.repeat(np.arange(n, dtype=np.int64), offsets[1:] - offsets[:-1])
    mask = src < nbr
    lo, hi, lab = src[mask], nbr[mask], elab[mask]
    graph._edge_map = dict(zip(zip(lo.tolist(), hi.tolist()),
                               lab.tolist()))
    labels, counts = np.unique(lab, return_counts=True)
    graph._edge_label_freq = dict(zip(labels.tolist(), counts.tolist()))
    graph._shm_refs = segs  # keep the mappings alive with the graph
    return graph


def attach_graph(handle: GraphHandle) -> LabeledGraph:
    """Reconstruct a read-only :class:`LabeledGraph` from shared blocks."""
    return _memo_attach(handle, lambda: _build_graph(handle))


def _build_signature(handle: SignatureHandle) -> SignatureTable:
    table, segs = _attach_publication(handle.table)
    sig = SignatureTable(table, column_first=handle.column_first)
    sig._shm_refs = segs
    return sig


def attach_signature(handle: SignatureHandle) -> SignatureTable:
    """Reconstruct a read-only :class:`SignatureTable`."""
    return _memo_attach(handle, lambda: _build_signature(handle))


def _build_partition(handle: PCSRPartitionHandle,
                     segs: List[shared_memory.SharedMemory]
                     ) -> PCSRPartition:
    part = object.__new__(PCSRPartition)
    part.gpn = handle.gpn
    part.label = handle.label
    part.num_groups = handle.num_groups
    part.groups, s = _attach_publication(handle.groups)
    segs.extend(s)
    part._ci_buf, s = _attach_publication(handle.ci)
    segs.extend(s)
    part._region_start, s = _attach_publication(handle.region_start)
    segs.extend(s)
    part._region_cap, s = _attach_publication(handle.region_cap)
    segs.extend(s)
    part._ci_len = handle.ci_len
    part._dead_words = handle.dead_words
    # Key slots fill contiguously from slot 0 (a validate() invariant),
    # and a group is in the empty pool iff it holds no keys: chain
    # extension targets receive a key immediately and keys are never
    # evicted, so both containers are derivable from the group layer.
    kpg = (part.groups[:, :handle.gpn - 1, 0] != _EMPTY_SLOT).sum(axis=1)
    part._keys_per_group = [int(k) for k in kpg]
    part._empty_pool = {gid for gid, k in enumerate(part._keys_per_group)
                        if k == 0}
    return part


def _build_pcsr(handle: PCSRStoreHandle) -> PCSRStorage:
    segs: List[shared_memory.SharedMemory] = []
    store = object.__new__(PCSRStorage)
    store.gpn = handle.gpn
    store._parts = {p.label: _build_partition(p, segs)
                    for p in handle.parts}
    store._shm_refs = segs
    return store


def attach_pcsr(handle: PCSRStoreHandle) -> PCSRStorage:
    """Reconstruct a read-only :class:`PCSRStorage`."""
    return _memo_attach(handle, lambda: _build_pcsr(handle))


def attach_snapshot(handle: GraphSnapshotHandle
                    ) -> Tuple[LabeledGraph, Array]:
    """Attach a stream snapshot: ``(graph, signature-table rows)``."""
    def build() -> Tuple[LabeledGraph, Array, Any]:
        graph = attach_graph(handle.graph)
        table, segs = _attach_publication(handle.table)
        return graph, table, segs

    graph, table, _segs = _memo_attach(handle, build)
    return graph, table


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
