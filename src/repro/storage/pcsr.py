"""PCSR: the paper's GPU-friendly storage structure (Definition 4, Alg. 1).

For each edge-label partition ``P(G, l)``, the row-offset layer becomes an
array of hash *groups*.  Each group holds up to ``GPN - 1`` key pairs
``(vertex, offset)`` plus one trailing ``(GID, END)`` pair: ``GID`` chains
to the group holding this group's overflow keys (-1 if none) and ``END``
closes the last key's neighbor extent.  With ``GPN = 16`` a group is
exactly 128 bytes, so one warp reads a whole group in a single memory
transaction — which is how PCSR achieves O(1)-transaction ``N(v, l)``.

The number of groups equals the number of vertices in the partition (a
one-to-one hash), and Claim 1 guarantees overflowing groups always find
enough empty groups to chain into.

**One group layer for every label.**  A :class:`GroupStack` holds every
label's groups in one ``(total_groups, GPN, 2)`` array, with
``region_start``, ``region_cap`` and keys per group stacked the same
way; each label owns the rows from its group base on.  A
:class:`PCSRPartition` is one label's view of its rows: GIDs stay
label-local (the home group is ``base + hash mod num_groups``), and each
label keeps its own ``ci`` buffer, Claim-1 empty pool and counters, so
its layout is exactly the one Algorithm 1 builds for it alone.
Algorithm 1 writes a label straight into its rows, so a rebuilt or new
label touches only its own rows and shifts those of the labels after
it; the layer grows in place, into headroom, as GPMA (Sha et al., PVLDB
2017) grows its arrays.  Each label's longest chain is recorded by the
build and walked again only after a chain link.

**Incremental maintenance.**  The hash-group layout is exactly what makes
PCSR dynamic-friendly: a new key goes into the first free slot of its
home-group chain (or a chain extension through an empty group, the same
mechanism Claim 1 relies on), and neighbor lists grow in place because
each group owns a contiguous *region* of ``ci`` with slack at the tail.
:meth:`GroupStack.apply` is the one update path: it applies a whole
batch of ``(key, neighbor, label)`` inserts and deletes across every
label in array passes (one chain walk over every touched (label, key)
pair, one merge and one rewrite of the affected groups), keeps
:meth:`PCSRPartition.validate` clean and meters its simulated memory
transactions so incremental-vs-rebuild cost is measurable;
:meth:`PCSRPartition.apply_bulk` is a one-label call into it.  The
Algorithm-1 build is array passes too, with a loop only over
overflowing groups.  When a label outgrows its hash (occupancy) or its
empty-group pool runs dry (Claim 1 can no longer be honored), the pass
leaves it untouched and the caller rebuilds it — see
:class:`repro.dynamic.index.DynamicPCSRStorage` for the policy.
"""

from __future__ import annotations

import math
import weakref
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.arraytypes import Array
from repro.errors import StorageError
from repro.gpusim.constants import LABEL_PCSR_COMPACT, LABEL_PCSR_MAINTAIN
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read, contiguous_reads
from repro.graph.labeled_graph import (
    LabeledGraph,
    concat_ranges,
    sorted_lookup,
    sorted_unique,
)
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label
from repro.storage.base import (
    Gathered,
    NeighborStore,
    gather_ranges,
    nothing_gathered,
)

_EMPTY_SLOT = -1
_NO_OVERFLOW = -1
#: a kept chain length not yet walked
_UNKNOWN = -1

#: multiplicative (Knuth) hash constant for spreading vertex ids
_HASH_MULT = 2654435761


def default_hash(v: int, num_groups: int) -> int:
    """The one-to-one hash mapping vertex ids to group ids."""
    return ((v * _HASH_MULT) & 0xFFFFFFFF) % num_groups


def hash_groups(keys: Array, num_groups: Union[int, Array]) -> Array:
    """:func:`default_hash` of every key at once, against one group
    count or one per key (unsigned arithmetic keeps the low 32 bits of
    the product exact)."""
    product = keys.astype(np.uint64) * np.uint64(_HASH_MULT)
    return ((product & np.uint64(0xFFFFFFFF))
            % np.asarray(num_groups).astype(np.uint64)).astype(np.int64)


def _merge_entries(entry: Array, touched: Array, span: int, held: Array,
                   length: Array, cur: Array, inserts: Array,
                   deletes: Array) -> Tuple[Array, Array]:
    """``(current \\ deletes) ∪ inserts`` for every key of a block of
    groups at once, as one sorted merge over ``e * M + w`` pair codes:
    ``e`` is a key's position in the block's flattened ``(group,
    slot)`` grid (``entry[i]`` for the sorted pair code ``touched[i] =
    label position * span + key``), and ``cur`` holds the ``held``
    positions' current lists back to back, ``length`` each.
    ``inserts`` / ``deletes`` are ``(pair code, neighbor)`` rows.
    The current codes are already sorted, so only the inserts are
    sorted: their distinct codes not already present are inserted at
    their ``searchsorted`` positions.  Returns the new lists back to
    back in grid order and each position's new length.  Read-only:
    raises :class:`StorageError` on a delete of an absent neighbor
    (naming the smallest such label, key, then neighbor)."""
    M = 1 + max((int(a.max()) for a in (cur, inserts[:, 1], deletes[:, 1])
                 if len(a)), default=0)
    if held.size > (2 ** 62) // M:
        raise StorageError("vertex ids too large for pair codes")
    # Lists are sorted-unique and laid out in grid order, so the
    # current codes are already globally sorted.
    merged = np.repeat(np.flatnonzero(held), length) * M + cur
    if len(deletes):
        pos, present = sorted_lookup(
            merged, entry[np.searchsorted(touched, deletes[:, 0])] * M
            + deletes[:, 1])
        if not present.all():
            code, nbr = deletes[~present, 0], deletes[~present, 1]
            first = int(np.lexsort((nbr, code))[0])
            raise StorageError(f"{int(nbr[first])} is not a neighbor "
                               f"of {int(code[first] % span)}")
        keep = np.ones(len(merged), dtype=bool)
        keep[pos] = False
        merged = merged[keep]
    if len(inserts):
        add = sorted_unique(entry[np.searchsorted(touched, inserts[:, 0])]
                            * M + inserts[:, 1])
        pos, present = sorted_lookup(merged, add)
        merged = np.insert(merged, pos[~present], add[~present])
    return (merged % M,
            np.bincount(merged // M, minlength=held.size).reshape(held.shape))


class PCSRPartition:
    """PCSR structure for a single edge-label partition (Definition 4).

    Attributes
    ----------
    groups:
        int64 array of shape ``(num_groups, GPN, 2)``: this label's rows
        of its :class:`GroupStack`.  Slot ``[g, j]`` is the pair ``(v,
        ov)`` for ``j < GPN-1`` (``v == -1`` marks unused) and ``(GID,
        END)`` for ``j == GPN-1``; GIDs are label-local.
    ci:
        Column-index layer holding all neighbor lists back to back.
    """

    def __init__(self, partition: EdgeLabelPartition, gpn: int = 16,
                 stack: Optional[GroupStack] = None) -> None:
        """Algorithm 1 for one label, built straight into its rows of
        ``stack`` (a rebuilt label's old rows are resized in place; see
        :meth:`GroupStack._take_rows`) when given, else into a stack of
        its own."""
        if not 2 <= gpn <= 16:
            raise StorageError(f"GPN must be in [2, 16], got {gpn}")
        self.gpn = gpn
        self.label = partition.label
        keys = partition.vertices
        lengths = np.diff(partition.offsets)
        num_keys = len(keys)
        self.num_groups = max(1, num_keys)
        capacity = gpn - 1

        # --- Algorithm 1, lines 3-4: hash every key to a home group;
        # a group's keys take its slots in key order. ---
        home = hash_groups(keys, self.num_groups)
        by_home = np.argsort(home, kind="stable")
        counts = np.bincount(home, minlength=self.num_groups)
        first = np.cumsum(counts) - counts
        gid = home.copy()
        slot = np.empty(num_keys, dtype=np.int64)
        slot[by_home] = (np.arange(num_keys, dtype=np.int64)
                         - first[home[by_home]])
        keys_per_group = np.minimum(counts, capacity)

        # --- Lines 5-8: resolve overflow through empty groups, taking
        # the highest-numbered empty group first.  Each overflowing
        # group heads its own chain of ceil(count / capacity) groups.
        empty = np.flatnonzero(counts == 0)
        free = len(empty)
        chain_next = np.full(self.num_groups, _NO_OVERFLOW, dtype=np.int64)
        for origin in np.flatnonzero(counts > capacity).tolist():
            spill = by_home[first[origin] + capacity:
                            first[origin] + counts[origin]]
            current = origin
            for at in range(0, len(spill), capacity):
                if not free:
                    raise StorageError(
                        "ran out of empty groups resolving overflow; "
                        "Claim 1 violated (this is a bug)")
                free -= 1
                target = int(empty[free])
                chain_next[current] = target
                chunk = spill[at:at + capacity]
                gid[chunk] = target
                slot[chunk] = np.arange(len(chunk), dtype=np.int64)
                keys_per_group[target] = len(chunk)
                current = target

        # --- Lines 9-13: lay out ci in (group, slot) order and record
        # offsets, into this label's rows of the stack. ---
        layout = np.argsort(gid * capacity + slot)
        laid_lengths = lengths[layout]
        ci_offsets = np.cumsum(laid_lengths) - laid_lengths
        if stack is None:
            stack = GroupStack(gpn, rows=self.num_groups)
        stack._take_rows(self)
        self._region_cap[:] = np.bincount(
            gid, weights=lengths, minlength=self.num_groups)
        self._region_start[:] = np.cumsum(self._region_cap) \
            - self._region_cap
        self._keys_per_group[:] = keys_per_group
        self.groups[...] = _EMPTY_SLOT
        self.groups[gid[layout], slot[layout], 0] = keys[layout]
        self.groups[gid[layout], slot[layout], 1] = ci_offsets
        self.groups[:, gpn - 1, 0] = chain_next
        self.groups[:, gpn - 1, 1] = self._region_start + self._region_cap
        stack._keep_chain_length(
            self._pos, max(1, -(-int(counts.max()) // capacity)))
        self._ci_buf = partition.nbrs[concat_ranges(
            partition.offsets[:-1][layout], laid_lengths)]
        self._ci_len = len(self._ci_buf)
        self._num_keys = num_keys
        #: groups with no keys and no chain membership — the reservoir
        #: Claim 1 draws from, both at build time and incrementally.
        self._empty_pool = set(empty[:free].tolist())
        #: ci words orphaned by region relocations (space overhead of
        #: in-place maintenance; a rebuild reclaims them).
        self._dead_words = 0

    def _bind(self, stack: GroupStack, pos: int) -> None:
        """Point this label's group arrays at its rows of ``stack``
        (``stack.parts[pos]`` is this partition)."""
        self._stack = stack
        self._pos = pos
        self._base = int(stack.base[pos])
        rows = slice(self._base, self._base + self.num_groups)
        self.groups = stack.groups[rows]
        self._region_start = stack.region_start[rows]
        self._region_cap = stack.region_cap[rows]
        self._keys_per_group = stack.keys_per_group[rows]

    @property
    def ci(self) -> Array:
        """Column-index layer (the live prefix of the growable buffer)."""
        return self._ci_buf[:self._ci_len]

    # ------------------------------------------------------------------
    # Lookup (the 4-step procedure under Figure 11c)
    # ------------------------------------------------------------------

    def gather(self, keys: Array) -> Gathered:
        """``N(v, l)`` of every key, all chains walked at once.  Each
        group read is one 128 B transaction when ``GPN = 16`` (one warp,
        one transaction per group), so ``locate`` counts the groups each
        walk read: the home group always, and a miss that walks an
        overflow chain pays for every chained group before concluding
        the key is absent."""
        reads, gid, slot = self._locate(keys)
        hit = gid >= 0
        begin = np.zeros(len(keys), dtype=np.int64)
        lens = np.zeros(len(keys), dtype=np.int64)
        first, end = self._extents(gid[hit], slot[hit])
        begin[hit] = first
        lens[hit] = end - first
        return gather_ranges(self._ci_buf, begin, lens, reads)

    def neighbors(self, v: int) -> Array:
        """``N(v, l)`` from the PCSR layout (not the source graph)."""
        return self.gather(np.array([v], dtype=np.int64)).concat

    def _locate(self, keys: Array) -> Tuple[Array, Array, Array]:
        """Walk every key's chain at once: ``(reads, gid, slot)`` per
        key (:meth:`GroupStack.locate`), with label-local ``gid`` and
        ``gid == slot == -1`` for keys not stored."""
        keys = np.asarray(keys, dtype=np.int64)
        reads, gid, slot = self._stack.locate(
            np.full(len(keys), self._pos, dtype=np.int64), keys)
        return reads, np.where(gid < 0, -1, gid - self._base), slot

    def _extents(self, gid: Array, slot: Array) -> Tuple[Array, Array]:
        """ci extents ``[begin, end)`` of the keys at ``(gid, slot)``."""
        last = self.gpn - 1
        after = np.minimum(slot + 1, last)
        has_next = ((slot + 1 < last)
                    & (self.groups[gid, after, 0] != _EMPTY_SLOT))
        end = np.where(has_next, self.groups[gid, after, 1],
                       self.groups[gid, last, 1])
        return self.groups[gid, slot, 1], end

    # ------------------------------------------------------------------
    # Incremental maintenance (the dynamic-graph update path)
    # ------------------------------------------------------------------

    def apply_bulk(self, inserts: Array, deletes: Array,
                   meter: Optional[MemoryMeter] = None) -> bool:
        """Apply this label's directed ``(key, neighbor)`` entries, an
        ``(m, 2)`` array each: a one-label call into
        :meth:`GroupStack.apply`.

        Returns ``False`` (with the partition **unmodified**) when new
        keys cannot be placed without violating Claim 1; the caller
        rebuilds.  Raises :class:`StorageError` (also before mutating)
        when a delete targets a missing key or neighbor.
        """
        def labeled(entries: Array) -> Array:
            pairs = np.asarray(entries, dtype=np.int64).reshape(-1, 2)
            return np.column_stack(
                (pairs, np.full(len(pairs), self.label, dtype=np.int64)))

        return not self._stack.apply(labeled(inserts), labeled(deletes),
                                     meter)

    def _grow_ci(self, extra: int) -> None:
        """Ensure the ci buffer has room for ``extra`` more words."""
        need = self._ci_len + extra
        if need <= len(self._ci_buf):
            return
        new_cap = max(need, 2 * len(self._ci_buf), 16)
        buf = np.full(new_cap, _EMPTY_SLOT, dtype=np.int64)
        buf[:self._ci_len] = self._ci_buf[:self._ci_len]
        self._ci_buf = buf

    def _place_new_keys(self, new_keys: List[int]
                        ) -> Optional[Tuple[List[int], Dict[int, int]]]:
        """Dry-run placement of new keys along their home chains, in
        key order, extending a full chain through an empty group.
        Returns each key's target group and the planned chain links,
        or ``None`` when Claim 1 starves (nothing is mutated).  Chain
        extensions pop from a copy of the empty pool, taken when the
        first one is needed: the pool is unchanged until then, so the
        copy and its pop order are the same as one taken up front."""
        capacity = self.gpn - 1
        pending: Dict[int, int] = {}
        planned_next: Dict[int, int] = {}
        pool: Optional[Set[int]] = None
        targets: List[int] = []
        for v in new_keys:
            cur = default_hash(v, self.num_groups)
            target = -1
            while True:
                free = (capacity - int(self._keys_per_group[cur])
                        - pending.get(cur, 0))
                if free > 0:
                    target = cur
                    break
                nxt = planned_next.get(
                    cur, int(self.groups[cur, self.gpn - 1, 0]))
                if nxt == _NO_OVERFLOW:
                    break
                cur = nxt
            if target < 0:
                if pool is None:
                    pool = set(self._empty_pool)
                    pool.difference_update(targets)
                if not pool:
                    return None
                target = pool.pop()
                planned_next[cur] = target
            pending[target] = pending.get(target, 0) + 1
            targets.append(target)
            if pool is not None:
                pool.discard(target)
        return targets, planned_next

    def _commit_placement(self, targets: List[int],
                          planned_next: Dict[int, int]) -> None:
        """Write a dry run's chain links and take its groups out of the
        empty pool (keys per group are counted by the caller).  A link
        drops this label's kept chain length."""
        if planned_next:
            self._stack._keep_chain_length(self._pos, _UNKNOWN)
        for tail, target in planned_next.items():
            self.groups[tail, self.gpn - 1, 0] = target
            self._region_start[target] = self._ci_len
            self._region_cap[target] = 0
            self._empty_pool.discard(target)
        for target in targets:
            self._empty_pool.discard(target)
        self._num_keys += len(targets)

    def items(self) -> Iterator[Tuple[int, Array]]:
        """Iterate ``(key, neighbor array)`` straight off the structure
        in group and slot order (rebuilds and tests read the partition
        back through this)."""
        gids, slots = np.nonzero(self.groups[:, :self.gpn - 1, 0]
                                 != _EMPTY_SLOT)
        begin, end = self._extents(gids, slots)
        for v, b, e in zip(self.groups[gids, slots, 0].tolist(),
                           begin.tolist(), end.tolist()):
            yield v, self._ci_buf[b:e].copy()

    def key_count(self) -> int:
        """Number of stored keys (vertices with a slot)."""
        return self._num_keys

    def occupancy(self) -> float:
        """Keys per group — 1.0 is the one-to-one design point of
        Algorithm 1; incremental inserts push it above that, and the
        rebuild policy caps how far."""
        return self.key_count() / self.num_groups

    def dead_words(self) -> int:
        """ci words orphaned by region relocations since the last build."""
        return self._dead_words

    def dead_ratio(self) -> float:
        """Fraction of the ci layer that is orphaned dead space."""
        return self._dead_words / self._ci_len if self._ci_len else 0.0

    def compact(self, meter: Optional[MemoryMeter] = None) -> int:
        """Slide live ci regions left over the dead space.

        Regions are packed in layout (``region_start``) order with one
        gather and one scatter of the live words, and every group that
        moved has its offsets shifted in one pass; per-region slack is
        dropped (the next append re-creates it by relocation).
        Afterwards ``dead_words() == 0`` and the ci layer is exactly the
        live neighbor lists.  Metered like every other maintenance op
        (label ``pcsr_compact``: the moved words read and written, plus
        one store per rewritten group).  Returns the number of words
        reclaimed.
        """
        old_len = self._ci_len
        cap = self.gpn - 1
        start = self._region_start.copy()
        used = self.groups[:, cap, 1] - start
        order = np.argsort(start, kind="stable")
        pos = np.empty_like(start)
        pos[order] = np.cumsum(used[order]) - used[order]
        live = self._ci_buf[concat_ranges(start[order], used[order])]
        self._ci_buf[:len(live)] = live
        moved = np.flatnonzero(pos != start)
        shift = (pos - start)[moved]
        held = np.logical_and.accumulate(
            self.groups[moved, :cap, 0] != _EMPTY_SLOT, axis=1)
        self.groups[moved, :cap, 1] += np.where(held, shift[:, None], 0)
        self.groups[moved, cap, 1] = pos[moved] + used[moved]
        self._region_start[:] = pos
        self._region_cap[:] = used
        moved_words = int(used[moved].sum())
        if meter is not None:
            meter.add_gld(contiguous_read(moved_words),
                          label=LABEL_PCSR_COMPACT)
            meter.add_gst(contiguous_read(moved_words) + len(moved))
        self._ci_len = len(live)
        self._dead_words = 0
        return old_len - len(live)

    def stats(self) -> Dict[str, float]:
        """Health counters for this partition (monitoring surface)."""
        return self._stats(self.max_chain_length())

    def _stats(self, chain_length: int) -> Dict[str, float]:
        return {
            "label": self.label,
            "num_groups": self.num_groups,
            "keys": self.key_count(),
            "occupancy": self.occupancy(),
            "load_factor": self.load_factor(),
            "ci_words": self._ci_len,
            "dead_words": self._dead_words,
            "dead_ratio": self.dead_ratio(),
            "max_chain_length": chain_length,
        }

    def max_chain_length(self) -> int:
        """Longest overflow chain (expected <= 1 + 5log|V|/loglog|V|)."""
        return int(self._stack.chain_lengths()[self._pos])

    def validate(self) -> List[str]:
        """Structural invariant check; returns human-readable violations.

        Invariants of Definition 4: key slots fill contiguously from
        slot 0; offsets are non-decreasing in layout order and bounded
        by ``len(ci)``; every GID points at a real group (or -1); chains
        are acyclic; every key hashes (transitively) to the group chain
        that holds it; every key's list is strictly increasing (the
        sorted-unique lists that readers rely on).
        """
        problems: List[str] = []
        gpn = self.gpn
        for gid in range(self.num_groups):
            group = self.groups[gid]
            seen_empty = False
            prev_offset = -1
            for j in range(gpn - 1):
                v, ov = int(group[j, 0]), int(group[j, 1])
                if v == _EMPTY_SLOT:
                    seen_empty = True
                    continue
                if seen_empty:
                    problems.append(f"group {gid}: key after empty slot")
                if not 0 <= ov <= len(self.ci):
                    problems.append(f"group {gid} slot {j}: offset {ov} "
                                    f"out of range")
                if ov < prev_offset:
                    problems.append(f"group {gid} slot {j}: offsets "
                                    f"decrease")
                prev_offset = ov
            end = int(group[gpn - 1, 1])
            if not 0 <= end <= len(self.ci):
                problems.append(f"group {gid}: END {end} out of range")
            if prev_offset > end:
                problems.append(f"group {gid}: last offset beyond END")
            next_gid = int(group[gpn - 1, 0])
            if next_gid != _NO_OVERFLOW and \
                    not 0 <= next_gid < self.num_groups:
                problems.append(f"group {gid}: bad GID {next_gid}")

        # Chain acyclicity + key reachability (skipping broken GIDs,
        # which were already reported above).
        def walk_chain(start: int) -> Set[int]:
            chain: Set[int] = set()
            cur = start
            while cur != _NO_OVERFLOW and cur not in chain:
                if not 0 <= cur < self.num_groups:
                    break
                chain.add(cur)
                cur = int(self.groups[cur, self.gpn - 1, 0])
            return chain

        for gid in range(self.num_groups):
            visited: Set[int] = set()
            cur = gid
            while cur != _NO_OVERFLOW and 0 <= cur < self.num_groups:
                if cur in visited:
                    problems.append(
                        f"group {gid}: cyclic overflow chain")
                    break
                visited.add(cur)
                cur = int(self.groups[cur, self.gpn - 1, 0])
        for gid in range(self.num_groups):
            for j in range(gpn - 1):
                v = int(self.groups[gid, j, 0])
                if v == _EMPTY_SLOT:
                    break
                home = default_hash(v, self.num_groups)
                if gid not in walk_chain(home):
                    problems.append(
                        f"key {v} stored in group {gid}, unreachable "
                        f"from home group {home}")
        for v, nbrs in self.items():
            if (np.diff(nbrs) <= 0).any():
                problems.append(f"key {v}: neighbors not strictly "
                                f"increasing")
        return problems

    def load_factor(self) -> float:
        """Fraction of key slots occupied."""
        total_slots = self.num_groups * (self.gpn - 1)
        return self._num_keys / total_slots if total_slots else 0.0

    def space_words(self) -> int:
        """Words occupied: 2 per slot in the group layer, plus ci."""
        return self.groups.size + len(self.ci)


def _frozen(arr: Array) -> Array:
    """``arr``, marked read-only."""
    arr.setflags(write=False)
    return arr


class GroupStack:
    """Every label's PCSR group layer in one array, labels in order.

    ``parts[i]`` owns rows ``[base[i], base[i] + sizes[i])`` of
    ``groups`` (``(total_groups, GPN, 2)``, label-local GIDs) and of
    the stacked per-group ``region_start``, ``region_cap`` and
    ``keys_per_group``; each part's arrays are views of its rows.

    The four arrays are the live prefix of buffers that may hold
    headroom, and a label is built straight into its rows
    (``PCSRPartition(partition, gpn, stack=...)``): a rebuilt label
    resizes its own rows and a new label inserts rows at its place in
    label order, so only the rows of the labels after it shift (one
    overlapping copy per array, no second layer) and only their parts
    are bound again.  When the headroom runs out the buffers grow 1.5x
    by one copy, the only time two layers are alive.  A
    :class:`PCSRStorage` build sizes its stack up front: exact-size for
    a store built once, with one growth step of headroom for a store
    maintained in place.  A stack laid over filled arrays (:meth:`over`,
    an attached publication) keeps exact-size arrays until a label
    outgrows them.

    Each label's longest chain is kept (:meth:`chain_lengths`).  Each
    part holds its stack and the stack holds its parts only weakly (a
    store owns its partitions).
    """

    def __init__(self, gpn: int, rows: int = 0) -> None:
        """An empty stack with room for ``rows`` groups."""
        self.gpn = gpn
        self.parts: List[PCSRPartition] = []
        self.labels = np.empty(0, dtype=np.int64)
        self.sizes = np.empty(0, dtype=np.int64)
        self._buffers: Tuple[Array, ...] = (
            np.empty((rows, gpn, 2), dtype=np.int64),
            *(np.empty(rows, dtype=np.int64) for _ in range(3)))
        #: every label's longest chain, ``_UNKNOWN`` until walked
        self._chain_lengths = _frozen(np.empty(0, dtype=np.int64))
        self._live()

    @classmethod
    def over(cls, parts: Sequence[PCSRPartition], gpn: int,
             arrays: Tuple[Array, Array, Array, Array]) -> "GroupStack":
        """A stack laid over filled ``(groups, region_start,
        region_cap, keys_per_group)`` (an attached publication):
        ``parts``, in label order, own consecutive rows, and their
        longest chains are walked when first asked for."""
        stack = cls(gpn)
        stack._buffers = arrays
        stack.parts = [weakref.proxy(p) for p in parts]
        stack.labels = np.array([p.label for p in parts], dtype=np.int64)
        stack.sizes = np.array([p.num_groups for p in parts],
                               dtype=np.int64)
        stack._chain_lengths = _frozen(
            np.full(len(parts), _UNKNOWN, dtype=np.int64))
        stack._live()
        for pos, part in enumerate(parts):
            part._bind(stack, pos)
        return stack

    @staticmethod
    def grown(rows: int) -> int:
        """Rows after one growth step from ``rows``: 1.5x."""
        return rows + rows // 2

    def _live(self) -> None:
        """Point ``base`` and the four stacked arrays at the live rows."""
        self.base = np.cumsum(self.sizes) - self.sizes
        total = int(self.sizes.sum())
        (self.groups, self.region_start, self.region_cap,
         self.keys_per_group) = (buf[:total] for buf in self._buffers)

    def _take_rows(self, part: PCSRPartition) -> None:
        """Give ``part`` ``part.num_groups`` rows at its label's place
        and bind it to them; the rows' contents are left for the
        caller to write.  A label already stacked gives up its old
        rows.  The rows of the labels after it shift in place, or, when
        the buffers are too small, every row moves into buffers 1.5x
        larger; each part whose rows moved is bound again."""
        pos = int(np.searchsorted(self.labels, part.label))
        if pos < len(self.labels) and self.labels[pos] == part.label:
            self.parts[pos] = weakref.proxy(part)
        else:
            self.parts.insert(pos, weakref.proxy(part))
            self.labels = np.insert(self.labels, pos, part.label)
            self.sizes = np.insert(self.sizes, pos, 0)
            self._chain_lengths = _frozen(
                np.insert(self._chain_lengths, pos, _UNKNOWN))
        start = int(self.sizes[:pos].sum())
        old, new = int(self.sizes[pos]), part.num_groups
        total = int(self.sizes.sum())
        need = total - old + new
        rows = len(self._buffers[0])
        moved = range(pos + 1, len(self.parts))
        if need > rows:
            grown = tuple(np.empty((max(need, self.grown(rows)),)
                                   + buf.shape[1:], dtype=buf.dtype)
                          for buf in self._buffers)
            for buf, into in zip(self._buffers, grown):
                into[:start] = buf[:start]
                into[start + new:need] = buf[start + old:total]
            self._buffers = grown
            moved = range(len(self.parts))
        elif new != old:
            for buf in self._buffers:
                # A 1-D copy between overlapping ranges runs in place.
                width = math.prod(buf.shape[1:])
                flat = buf.reshape(-1)
                flat[(start + new) * width:need * width] = \
                    flat[(start + old) * width:total * width]
        self.sizes[pos] = new
        self._live()
        part._bind(self, pos)
        for p in moved:
            if p != pos:
                self.parts[p]._bind(self, p)

    def locate(self, pos: Array, keys: Array) -> Tuple[Array, Array, Array]:
        """Walk every ``(label position, key)`` pair's chain at once:
        ``(reads, gid, slot)`` per pair, with stack-wide ``gid`` and
        ``gid == slot == -1`` for keys not stored.  A hit reads the
        groups up to the one holding its key, a miss its whole chain;
        the step count is the longest chain walked."""
        capacity = self.gpn - 1
        gid = np.full(len(keys), -1, dtype=np.int64)
        slot = np.full(len(keys), -1, dtype=np.int64)
        reads = np.zeros(len(keys), dtype=np.int64)
        alive = np.arange(len(keys), dtype=np.int64)
        base = self.base[pos]
        cur = base + hash_groups(keys, self.sizes[pos])
        while len(alive):
            reads[alive] += 1
            hit = self.groups[cur, :capacity, 0] == keys[alive, None]
            found = hit.any(axis=1)
            gid[alive[found]] = cur[found]
            slot[alive[found]] = hit[found].argmax(axis=1)
            nxt = self.groups[cur, capacity, 0]
            more = ~found & (nxt != _NO_OVERFLOW)
            alive = alive[more]
            cur = base[alive] + nxt[more]
        return reads, gid, slot

    def chain_lengths(self) -> Array:
        """Longest overflow chain of every label (expected <= 1 +
        5log|V|/loglog|V|), as a read-only array.

        Each label's length is kept: Algorithm 1 records it as it
        builds the label, and only a chain link written since
        (:meth:`PCSRPartition._commit_placement`) drops it.  The labels
        without a kept length (after a link, or on a stack laid over an
        attached publication) are walked at once, and the call returns
        a new array; otherwise every call returns the same array.
        """
        lengths = self._chain_lengths
        unknown = np.flatnonzero(lengths == _UNKNOWN)
        if unknown.size:
            lengths = lengths.copy()
            lengths[unknown] = self._walk_chains(unknown)
            self._chain_lengths = lengths = _frozen(lengths)
        return lengths

    def _keep_chain_length(self, pos: int, length: int) -> None:
        """Keep ``length`` (or drop it, with ``_UNKNOWN``) as the
        longest chain of the label at ``pos``."""
        lengths = self._chain_lengths.copy()
        lengths[pos] = length
        self._chain_lengths = _frozen(lengths)

    def _walk_chains(self, positions: Array) -> Array:
        """One walk of the GID column over the rows of the labels at
        ``positions``: each one's longest chain.  Each step follows the
        GID column for the chains still alive, so the step count is the
        longest chain, not the sum of all of them."""
        nxt = self.groups[:, self.gpn - 1, 0]
        base, sizes = self.base[positions], self.sizes[positions]
        longest = np.ones(len(positions), dtype=np.int64)
        rows = concat_ranges(base, sizes)
        owner = np.repeat(np.arange(len(positions), dtype=np.int64), sizes)
        more = nxt[rows] != _NO_OVERFLOW
        owner = owner[more]
        alive = base[owner] + nxt[rows[more]]
        steps = 1
        while alive.size:
            steps += 1
            longest[owner] = steps
            more = nxt[alive] != _NO_OVERFLOW
            owner = owner[more]
            alive = base[owner] + nxt[alive[more]]
        return longest

    def apply(self, inserts: Array, deletes: Array,
              meter: Optional[MemoryMeter] = None,
              max_occupancy: Optional[float] = None) -> List[int]:
        """Apply a whole batch delta across labels in one pass
        (GPMA-style bulk update).

        ``inserts`` / ``deletes`` are ``(m, 3)`` arrays of directed
        ``(key, neighbor, label)`` entries to merge in or strip out,
        every label stacked here.  One chain walk locates every touched
        ``(label, key)`` pair; new keys take the free slots of their
        home chains (extending a full chain through an empty group, as
        Algorithm 1 does); the lists of every affected group of every
        label merge in one sorted pass; and one scatter rewrites those
        groups, each region from its own label's ``ci`` (a region that
        outgrows its capacity moves to that ``ci``'s tail).  Only
        new-key placement and each label's ``ci`` gather and scatter
        loop over labels.  A key whose list empties keeps its slot with
        a zero-length extent; a rebuild drops it.

        Returns the labels left **unmodified** for the caller to
        rebuild: those whose new keys would push their keys per group
        past ``max_occupancy`` (their locate reads go uncharged) and
        those whose new keys cannot be placed without violating
        Claim 1.  A delete of a missing key or neighbor, on any label,
        raises :class:`StorageError` before anything is written or
        charged.
        """
        span = 1 + max(int(inserts[:, 0].max(initial=0)),
                       int(deletes[:, 0].max(initial=0)))
        ins = np.column_stack((
            np.searchsorted(self.labels, inserts[:, 2]) * span
            + inserts[:, 0], inserts[:, 1]))
        dels = np.column_stack((
            np.searchsorted(self.labels, deletes[:, 2]) * span
            + deletes[:, 0], deletes[:, 1]))
        touched = np.union1d(ins[:, 0], dels[:, 0])
        if not len(touched):
            return []
        pos, key = np.divmod(touched, span)

        # Phase 1: one chain walk for every touched (label, key) pair.
        reads, gid, slot = self.locate(pos, key)
        fresh = gid < 0
        missing = fresh[np.searchsorted(touched, dels[:, 0])]
        if missing.any():
            raise StorageError(f"key {int(dels[missing, 0].min() % span)} "
                               f"not present in partition")

        # Phase 2 (dry run): the occupancy bound, then new-key placement
        # per label, so a label sent to rebuild stays untouched.
        new_keys = np.bincount(pos[fresh], minlength=len(self.parts))
        over: Set[int] = set()
        if max_occupancy is not None:
            over = {p for p in np.flatnonzero(new_keys).tolist()
                    if (self.parts[p].key_count() + int(new_keys[p]))
                    / self.parts[p].num_groups > max_occupancy}
        rebuild = set(over)
        placed: Dict[int, Tuple[List[int], Dict[int, int]]] = {}
        for p in np.flatnonzero(new_keys).tolist():
            if p in over:
                continue
            at = np.flatnonzero(fresh & (pos == p))
            plan = self.parts[p]._place_new_keys(key[at].tolist())
            if plan is None:
                rebuild.add(p)  # Claim-1 starvation
            else:
                placed[p] = plan
                gid[at] = self.base[p] + np.array(plan[0], dtype=np.int64)
        charged = ~self._label_mask(over)[pos]
        skip = self._label_mask(rebuild)[pos]

        # Phase 3 (still read-only): the deletes of labels left for
        # rebuild, then every applied label's lists, merged as blocks
        # of (group, slot) matrices; a bad delete raises before any
        # write.
        rem_skip = skip[np.searchsorted(touched, dels[:, 0])]
        if rem_skip.any():
            sel = skip & ~fresh
            self._merged(touched[sel], gid[sel], slot[sel], fresh[sel],
                         key[sel], span, ins[:0], dels[rem_skip])
        keep = ~skip
        block = None
        if keep.any():
            add = ~skip[np.searchsorted(touched, ins[:, 0])]
            block = self._merged(touched[keep], gid[keep], slot[keep],
                                 fresh[keep], key[keep], span, ins[add],
                                 dels[~rem_skip])

        # Phase 4: commit — chain extensions, then one rewrite of every
        # affected group region.
        moved_read = written = links = 0
        for p, (targets, planned_next) in placed.items():
            self.parts[p]._commit_placement(targets, planned_next)
            links += len(planned_next)
        if block is not None:
            np.add.at(self.keys_per_group, gid[keep & fresh], 1)
            moved_read, written = self._rewrite_regions(*block)
        if meter is not None and charged.any():
            meter.add_gld(int(reads[charged].sum()) + moved_read,
                          label=LABEL_PCSR_MAINTAIN)
            meter.add_gst(links + written)
        return [int(self.labels[p]) for p in sorted(rebuild)]

    def _label_mask(self, positions: Set[int]) -> Array:
        """Mask over label positions, set at ``positions``."""
        mask = np.zeros(len(self.parts), dtype=bool)
        mask[list(positions)] = True
        return mask

    def _merged(self, touched: Array, gid: Array, slot: Array, fresh: Array,
                key: Array, span: int, inserts: Array, deletes: Array
                ) -> Tuple[Array, ...]:
        """Read the groups ``gid`` as one block of ``(group, slot)``
        matrices — new keys (``fresh``) take the free slots after the
        existing ones, in key order — and merge every list of the block
        at once (:func:`_merge_entries`, read-only).  Returns what
        :meth:`_rewrite_regions` takes."""
        cap = self.gpn - 1
        affected, row = np.unique(gid, return_inverse=True)
        block = self.groups[affected]
        keys, offsets, end = block[:, :cap, 0], block[:, :cap, 1], \
            block[:, cap, 1]
        held = keys != _EMPTY_SLOT
        last = np.concatenate(
            (~held[:, 1:], np.ones((len(affected), 1), dtype=bool)), axis=1)
        after = np.concatenate((offsets[:, 1:], end[:, None]), axis=1)
        length = np.where(last, end[:, None], after)[held] - offsets[held]
        if fresh.any():
            new = np.flatnonzero(fresh)
            by_row = np.argsort(row[new], kind="stable")
            rank = np.empty(len(new), dtype=np.int64)
            rank[by_row] = (np.arange(len(new), dtype=np.int64)
                            - np.searchsorted(row[new][by_row],
                                              row[new][by_row]))
            slot[new] = self.keys_per_group[gid[new]] + rank
            keys[row[new], slot[new]] = key[new]
        # Rows are in stack order, so each label's rows are one run;
        # its current lists come from its own ci buffer.
        owner = np.searchsorted(self.base, affected, side="right") - 1
        first_row = np.flatnonzero(np.diff(owner, prepend=-1))
        labels = owner[first_row]
        cuts = np.append(np.searchsorted(np.nonzero(held)[0], first_row),
                         len(length))
        at = concat_ranges(offsets[held], length)
        word_cuts = np.append(0, np.cumsum(length))[cuts]
        cur = np.concatenate([
            self.parts[p]._ci_buf[at[word_cuts[i]:word_cuts[i + 1]]]
            for i, p in enumerate(labels.tolist())])
        entry = row * cap + slot
        content, new_len = _merge_entries(entry, touched, span, held, length,
                                          cur, inserts, deletes)
        changed = np.zeros(keys.size, dtype=bool)
        changed[entry] = True
        return (affected, owner, labels, first_row, keys, held, end,
                changed.reshape(keys.shape), content, new_len)

    def _rewrite_regions(self, affected: Array, owner: Array, labels: Array,
                         first_row: Array, keys: Array, held: Array,
                         end: Array, changed: Array, content: Array,
                         new_len: Array) -> Tuple[int, int]:
        """Write the ``affected`` groups' merged ``content`` (lists back
        to back in ``(group, slot)`` order, ``new_len`` each) and their
        ``keys``, packed from each region's start; a region that
        outgrows its capacity moves to its label's ci tail, groups in
        ascending order.  ``owner`` is each row's label position
        (``labels`` its distinct values, first at ``first_row``),
        ``held``/``end`` describe the groups before the update and
        ``changed`` marks the touched slots.

        The capacity of a moved region follows the two update shapes.
        When one existing key changed and no key was added, it is
        ``used + max(total - used, key_len, used, 4)``: ``used`` is the
        region's words in use before the update, ``total`` after it,
        and ``key_len`` the changed key's new length.  Anything else
        gets ``total + max(total, 4)``.  Returns
        the metered ``(words read, words written)`` transactions: one
        region merge per affected group."""
        total = new_len.sum(axis=1)
        start = self.region_start[affected]
        region_cap = self.region_cap[affected]
        # A group without keys is empty or a fresh chain link: nothing
        # of its region is in use.
        used = np.where(held.any(axis=1), end - start, 0)
        single = (((changed & held).sum(axis=1) == 1)
                  & ~(changed & ~held).any(axis=1))
        key_len = np.where(changed, new_len, 0).sum(axis=1)
        moves = total > region_cap
        new_cap = np.where(
            single,
            used + np.maximum(np.maximum(total - used, key_len),
                              np.maximum(used, 4)),
            total + np.maximum(total, 4))[moves]
        # Each label's moved regions line up at its own ci tail.
        run = np.searchsorted(labels, owner[moves])
        tails = np.array([self.parts[p]._ci_len for p in labels.tolist()],
                         dtype=np.int64)
        before = np.cumsum(new_cap) - new_cap
        pos = start.copy()
        pos[moves] = (tails[run] + before
                      - before[np.searchsorted(run, run)])
        grown = np.bincount(run, weights=new_cap, minlength=len(labels))
        dead = np.bincount(run, weights=region_cap[moves],
                           minlength=len(labels))
        self.region_start[affected[moves]] = pos[moves]
        self.region_cap[affected[moves]] = new_cap
        at = concat_ranges(pos, total)
        row_cuts = np.append(first_row, len(affected))
        word_cuts = np.append(0, np.cumsum(total))[row_cuts]
        for i, p in enumerate(labels.tolist()):
            part = self.parts[p]
            part._grow_ci(int(grown[i]))
            part._ci_len += int(grown[i])
            part._dead_words += int(dead[i])
            words = slice(word_cuts[i], word_cuts[i + 1])
            part._ci_buf[at[words]] = content[words]
        packed = pos[:, None] + np.cumsum(new_len, axis=1) - new_len
        self.groups[affected, :self.gpn - 1, 0] = keys
        self.groups[affected, :self.gpn - 1, 1] = np.where(
            keys != _EMPTY_SLOT, packed, _EMPTY_SLOT)
        self.groups[affected, self.gpn - 1, 1] = pos + total
        return (int(contiguous_reads(used).sum()),
                int((contiguous_reads(total) + 1).sum()))


class PCSRStorage(NeighborStore):
    """All edge-label partitions stored as PCSR (the "+DS" technique),
    their group layers in one :class:`GroupStack`."""

    kind = "pcsr"
    #: whether the group layer starts with the headroom of one growth
    #: step (:meth:`GroupStack.grown`); a store built once is exact-size
    _grows_in_place = False

    def __init__(self, graph: LabeledGraph, gpn: int = 16) -> None:
        self.gpn = gpn
        # Every label is built straight into its rows of one layer,
        # sized for all of them.
        partitions = sorted(partition_by_edge_label(graph).items())
        rows = sum(max(1, len(part.vertices)) for _, part in partitions)
        self._stack = GroupStack(gpn, rows=GroupStack.grown(rows)
                                 if self._grows_in_place else rows)
        self._parts: Dict[int, PCSRPartition] = {
            lab: PCSRPartition(part, gpn=gpn, stack=self._stack)
            for lab, part in partitions}

    def partition(self, label: int) -> Optional[PCSRPartition]:
        """The PCSR of one edge label, if any edges carry it."""
        return self._parts.get(label)

    def gather(self, vertices: Array, label: int) -> Gathered:
        part = self._parts.get(label)
        if part is None:
            return nothing_gathered(len(vertices))
        return part.gather(vertices)

    def space_words(self) -> int:
        return sum(p.space_words() for p in self._parts.values())

    def max_chain_length(self) -> int:
        """Longest overflow chain across all partitions."""
        return int(self._stack.chain_lengths().max(initial=0))

    def stats(self) -> Dict[str, object]:
        """Aggregated PCSR health across partitions, plus per-label
        detail — the monitoring surface stream reports and the serve
        ``stats`` RPC expose.  The chain lengths come from
        :meth:`GroupStack.chain_lengths`: kept per label from its
        Algorithm-1 build, and walked only for a label that wrote a
        chain link since (or for every label of an attached store, on
        its first call)."""
        lengths = self._stack.chain_lengths().tolist()
        per_label = {part.label: part._stats(length)
                     for part, length in zip(self._stack.parts, lengths)}
        total_ci = sum(int(s["ci_words"]) for s in per_label.values())
        total_dead = sum(int(s["dead_words"]) for s in per_label.values())
        return {
            "kind": self.kind,
            "partitions": len(per_label),
            "space_words": self.space_words(),
            "total_ci_words": total_ci,
            "total_dead_words": total_dead,
            "dead_ratio": total_dead / total_ci if total_ci else 0.0,
            "max_occupancy": max(
                (float(s["occupancy"]) for s in per_label.values()),
                default=0.0),
            "max_chain_length": max(
                (int(s["max_chain_length"]) for s in per_label.values()),
                default=0),
            "per_label": per_label,
        }
