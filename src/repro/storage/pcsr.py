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

**Incremental maintenance.**  The hash-group layout is exactly what makes
PCSR dynamic-friendly: a new key goes into the first free slot of its
home-group chain (or a chain extension through an empty group, the same
mechanism Claim 1 relies on), and neighbor lists grow in place because
each group owns a contiguous *region* of ``ci`` with slack at the tail.
:meth:`PCSRPartition.apply_bulk` is the one update path: it applies a
whole batch of ``(key, neighbor)`` inserts and deletes in array passes
(one chain walk over every touched key, one merge and one rewrite of the
affected groups), keeps :meth:`PCSRPartition.validate` clean and meters
its simulated memory transactions so incremental-vs-rebuild cost is
measurable.  The Algorithm-1 build is array passes too, with a loop only
over overflowing groups.  When the partition outgrows its hash
(occupancy) or the empty-group pool runs dry (Claim 1 can no longer be
honored), callers are expected to rebuild — see
:class:`repro.dynamic.index.DynamicPCSRStorage` for the policy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.arraytypes import Array
from repro.errors import StorageError
from repro.gpusim.constants import LABEL_PCSR_COMPACT, LABEL_PCSR_MAINTAIN
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read, contiguous_reads
from repro.graph.labeled_graph import LabeledGraph, concat_ranges
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label
from repro.storage.base import EMPTY, NeighborStore

_EMPTY_SLOT = -1
_NO_OVERFLOW = -1

#: multiplicative (Knuth) hash constant for spreading vertex ids
_HASH_MULT = 2654435761


def default_hash(v: int, num_groups: int) -> int:
    """The one-to-one hash mapping vertex ids to group ids."""
    return ((v * _HASH_MULT) & 0xFFFFFFFF) % num_groups


def hash_groups(keys: Array, num_groups: int) -> Array:
    """:func:`default_hash` of every key at once (unsigned arithmetic
    keeps the low 32 bits of the product exact)."""
    product = keys.astype(np.uint64) * np.uint64(_HASH_MULT)
    return ((product & np.uint64(0xFFFFFFFF))
            % np.uint64(num_groups)).astype(np.int64)


def _merge_entries(entry: Array, touched: Array, keys: Array,
                   held: Array, begin: Array, length: Array, ci: Array,
                   inserts: Array, deletes: Array) -> Tuple[Array, Array]:
    """``(current \\ deletes) ∪ inserts`` for every key of a block of
    groups at once, as one sorted merge over ``e * M + w`` pair codes:
    ``e`` is a key's position in the block's flattened ``(group,
    slot)`` grid (``entry[i]`` for ``touched[i]``), and the ``held``
    positions' current lists are ``ci[begin:begin + length]``.  Returns
    the new lists back to back in grid order and each position's new
    length.  Read-only: raises :class:`StorageError` on a delete of an
    absent neighbor (naming the smallest such key, then neighbor)."""
    cur = ci[concat_ranges(begin, length)]
    M = 1 + max((int(a.max()) for a in (cur, inserts[:, 1], deletes[:, 1])
                 if len(a)), default=0)
    if keys.size > (2 ** 62) // M:
        raise StorageError("vertex ids too large for pair codes")
    # Lists are sorted-unique and laid out in grid order, so the
    # current codes are already globally sorted.
    merged = np.repeat(np.flatnonzero(held), length) * M + cur
    if len(deletes):
        rem = np.sort(entry[np.searchsorted(touched, deletes[:, 0])] * M
                      + deletes[:, 1])
        pos = np.searchsorted(merged, rem)
        present = (merged[np.minimum(pos, len(merged) - 1)] == rem
                   if len(merged) else np.zeros(len(rem), dtype=bool))
        if not present.all():
            gone = rem[~present]
            owners = keys.ravel()[gone // M]
            first = int(np.lexsort((gone % M, owners))[0])
            raise StorageError(f"{int(gone[first] % M)} is not a neighbor "
                               f"of {int(owners[first])}")
        keep = np.ones(len(merged), dtype=bool)
        keep[pos] = False
        merged = merged[keep]
    if len(inserts):
        merged = np.union1d(
            merged, entry[np.searchsorted(touched, inserts[:, 0])] * M
            + inserts[:, 1])
    return (merged % M,
            np.bincount(merged // M, minlength=keys.size).reshape(keys.shape))


class PCSRPartition:
    """PCSR structure for a single edge-label partition (Definition 4).

    Attributes
    ----------
    groups:
        int64 array of shape ``(num_groups, GPN, 2)``; slot ``[g, j]`` is
        the pair ``(v, ov)`` for ``j < GPN-1`` (``v == -1`` marks unused)
        and ``(GID, END)`` for ``j == GPN-1``.
    ci:
        Column-index layer holding all neighbor lists back to back.
    """

    def __init__(self, partition: EdgeLabelPartition, gpn: int = 16) -> None:
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
        # the highest-numbered empty group first. ---
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
        # offsets. ---
        layout = np.argsort(gid * capacity + slot)
        laid_lengths = lengths[layout]
        ci_offsets = np.cumsum(laid_lengths) - laid_lengths
        self._region_cap = np.bincount(
            gid, weights=lengths, minlength=self.num_groups).astype(np.int64)
        self._region_start = np.cumsum(self._region_cap) - self._region_cap
        self.groups = np.full((self.num_groups, gpn, 2), _EMPTY_SLOT,
                              dtype=np.int64)
        self.groups[gid[layout], slot[layout], 0] = keys[layout]
        self.groups[gid[layout], slot[layout], 1] = ci_offsets
        self.groups[:, gpn - 1, 0] = chain_next
        self.groups[:, gpn - 1, 1] = self._region_start + self._region_cap
        self._ci_buf = partition.nbrs[concat_ranges(
            partition.offsets[:-1][layout], laid_lengths)]
        self._ci_len = len(self._ci_buf)
        self._keys_per_group = keys_per_group
        self._num_keys = num_keys
        #: groups with no keys and no chain membership — the reservoir
        #: Claim 1 draws from, both at build time and incrementally.
        self._empty_pool = set(empty[:free].tolist())
        #: ci words orphaned by region relocations (space overhead of
        #: in-place maintenance; a rebuild reclaims them).
        self._dead_words = 0

    @property
    def ci(self) -> Array:
        """Column-index layer (the live prefix of the growable buffer)."""
        return self._ci_buf[:self._ci_len]

    # ------------------------------------------------------------------
    # Lookup (the 4-step procedure under Figure 11c)
    # ------------------------------------------------------------------

    def _probe(self, v: int) -> Tuple[int, int, int]:
        """Walk the group chain for ``v``.

        Returns ``(groups_read, begin, end)`` with ``begin == end == -1``
        if ``v`` is not in this partition.
        """
        gid = default_hash(v, self.num_groups)
        reads = 0
        while gid != _NO_OVERFLOW:
            reads += 1
            group = self.groups[gid]
            for j in range(self.gpn - 1):
                if group[j, 0] == v:
                    begin = int(group[j, 1])
                    if j + 1 < self.gpn - 1 and group[j + 1, 0] != _EMPTY_SLOT:
                        end = int(group[j + 1, 1])
                    else:
                        end = int(group[self.gpn - 1, 1])
                    return reads, begin, end
            gid = int(group[self.gpn - 1, 0])
        return reads, -1, -1

    def neighbors(self, v: int) -> Array:
        """``N(v, l)`` from the PCSR layout (not the source graph)."""
        _, begin, end = self._probe(v)
        if begin < 0:
            return EMPTY
        return self.ci[begin:end]

    def probe_transactions(self, v: int) -> int:
        """Groups read to locate ``v`` — each is one 128 B transaction
        when ``GPN = 16`` (one warp, one transaction per group).

        Misses cost their actual probe reads: the home group is always
        read, and a miss that walks an overflow chain pays one
        transaction per chained group before concluding ``v`` is absent.
        """
        reads, _, _ = self._probe(v)
        return reads

    # ------------------------------------------------------------------
    # Incremental maintenance (the dynamic-graph update path)
    # ------------------------------------------------------------------

    def _grow_ci(self, extra: int) -> None:
        """Ensure the ci buffer has room for ``extra`` more words."""
        need = self._ci_len + extra
        if need <= len(self._ci_buf):
            return
        new_cap = max(need, 2 * len(self._ci_buf), 16)
        buf = np.full(new_cap, _EMPTY_SLOT, dtype=np.int64)
        buf[:self._ci_len] = self._ci_buf[:self._ci_len]
        self._ci_buf = buf

    def _locate(self, keys: Array) -> Tuple[int, Array, Array]:
        """Walk every key's chain at once: ``(reads, gid, slot)`` with
        ``gid == slot == -1`` for keys not stored.  ``reads`` is the
        groups read summed over keys (a hit stops at the group holding
        its key, a miss reads its whole chain, as :meth:`_probe`
        counts); the step count is the longest chain walked."""
        capacity = self.gpn - 1
        gid = np.full(len(keys), -1, dtype=np.int64)
        slot = np.full(len(keys), -1, dtype=np.int64)
        alive = np.arange(len(keys), dtype=np.int64)
        cur = hash_groups(keys, self.num_groups)
        reads = 0
        while len(alive):
            reads += len(alive)
            hit = self.groups[cur, :capacity, 0] == keys[alive, None]
            found = hit.any(axis=1)
            gid[alive[found]] = cur[found]
            slot[alive[found]] = hit[found].argmax(axis=1)
            nxt = self.groups[cur, self.gpn - 1, 0]
            more = ~found & (nxt != _NO_OVERFLOW)
            alive, cur = alive[more], nxt[more]
        return reads, gid, slot

    def _extents(self, gid: Array, slot: Array) -> Tuple[Array, Array]:
        """ci extents ``[begin, end)`` of the keys at ``(gid, slot)``."""
        last = self.gpn - 1
        after = np.minimum(slot + 1, last)
        has_next = ((slot + 1 < last)
                    & (self.groups[gid, after, 0] != _EMPTY_SLOT))
        end = np.where(has_next, self.groups[gid, after, 1],
                       self.groups[gid, last, 1])
        return self.groups[gid, slot, 1], end

    def _place_new_keys(self, new_keys: List[int]
                        ) -> Optional[Tuple[List[int], Dict[int, int]]]:
        """Dry-run placement of new keys along their home chains, in
        key order, extending a full chain through an empty group.
        Returns each key's target group and the planned chain links,
        or ``None`` when Claim 1 starves (nothing is mutated)."""
        capacity = self.gpn - 1
        pending: Dict[int, int] = {}
        planned_next: Dict[int, int] = {}
        pool = set(self._empty_pool) if new_keys else set()
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
                if not pool:
                    return None
                target = pool.pop()
                planned_next[cur] = target
            pending[target] = pending.get(target, 0) + 1
            targets.append(target)
            pool.discard(target)
        return targets, planned_next

    def apply_bulk(self, inserts: Array, deletes: Array,
                   meter: Optional[MemoryMeter] = None) -> bool:
        """Apply a whole batch delta in one pass (GPMA-style bulk update).

        ``inserts`` / ``deletes`` are ``(m, 2)`` arrays of directed
        ``(key, neighbor)`` entries to merge in or strip out.  This
        walks every touched key's chain at once, places new keys in
        the free slots of their home chains (extending a full chain
        through an empty group, as Algorithm 1 does), merges the lists
        of every affected group in one sorted pass, and rewrites those
        groups' regions with one scatter — the bulk analogue of
        segment-wise GPMA updates.  A key whose list empties keeps its
        slot with a zero-length extent; a rebuild drops it.

        Returns ``False`` (with the partition **unmodified**) when new
        keys cannot be placed without violating Claim 1; the caller
        rebuilds.  Raises :class:`StorageError` (also before mutating)
        when a delete targets a missing key or neighbor.
        """
        inserts = np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
        deletes = np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
        touched = np.union1d(inserts[:, 0], deletes[:, 0])
        if not len(touched):
            return True
        cap = self.gpn - 1

        # Phase 1: one chain walk for all touched keys.
        reads, gid, slot = self._locate(touched)
        fresh = np.flatnonzero(gid < 0)
        if len(fresh):
            missing = np.intersect1d(touched[fresh], deletes[:, 0])
            if len(missing):
                raise StorageError(
                    f"key {int(missing[0])} not present in partition")
        if meter is not None:
            meter.add_gld(reads, label=LABEL_PCSR_MAINTAIN)

        # Phase 2 (dry run): place the new keys, so Claim-1 starvation
        # leaves the structure untouched.
        placed = self._place_new_keys(touched[fresh].tolist())
        if placed is None:
            return False  # nothing mutated yet; caller rebuilds
        targets, planned_next = placed
        gid[fresh] = targets

        # Phase 3 (still read-only): the affected groups as one block of
        # (group, slot) matrices — new keys take the free slots after
        # the existing ones, in key order — and every list of the block
        # merged at once, raising on bad deletes before any write.
        affected, row = np.unique(gid, return_inverse=True)
        block = self.groups[affected]
        keys, offsets, end = block[:, :cap, 0], block[:, :cap, 1], \
            block[:, cap, 1]
        held = keys != _EMPTY_SLOT
        last = np.concatenate(
            (~held[:, 1:], np.ones((len(affected), 1), dtype=bool)), axis=1)
        after = np.concatenate((offsets[:, 1:], end[:, None]), axis=1)
        length = np.where(last, end[:, None], after)[held] - offsets[held]
        if len(fresh):
            by_row = np.argsort(row[fresh], kind="stable")
            rank = np.empty(len(fresh), dtype=np.int64)
            rank[by_row] = (np.arange(len(fresh), dtype=np.int64)
                            - np.searchsorted(row[fresh][by_row],
                                              row[fresh][by_row]))
            slot[fresh] = self._keys_per_group[gid[fresh]] + rank
            keys[row[fresh], slot[fresh]] = touched[fresh]
        entry = row * cap + slot
        content, new_len = _merge_entries(
            entry, touched, keys, held, offsets[held], length,
            self._ci_buf, inserts, deletes)

        # Phase 4: commit — chain extensions, then one rewrite of every
        # affected group region.
        for tail, target in planned_next.items():
            self.groups[tail, cap, 0] = target
            self._region_start[target] = self._ci_len
            self._region_cap[target] = 0
            self._empty_pool.discard(target)
        for target in targets:
            self._empty_pool.discard(target)
        np.add.at(self._keys_per_group, gid[fresh], 1)
        self._num_keys += len(fresh)
        changed = np.zeros(keys.size, dtype=bool)
        changed[entry] = True
        moved_read, written = self._rewrite_regions(
            affected, keys, held, end, changed.reshape(keys.shape),
            content, new_len)
        if meter is not None:
            meter.add_gld(moved_read, label=LABEL_PCSR_MAINTAIN)
            meter.add_gst(len(planned_next) + written)
        return True

    def _rewrite_regions(self, affected: Array, keys: Array, held: Array,
                         end: Array, changed: Array, content: Array,
                         new_len: Array) -> Tuple[int, int]:
        """Write the ``affected`` groups' merged ``content`` (lists back
        to back in ``(group, slot)`` order, ``new_len`` each) and their
        ``keys``, packed from each region's start; a region that
        outgrows its capacity moves to the ci tail, groups in
        ascending order.  ``held``/``end`` describe the groups before
        the update and ``changed`` marks the touched slots.

        The capacity of a moved region follows the two update shapes.
        When one existing key changed and no key was added, it is
        ``used + max(total - used, key_len, used, 4)``: ``used`` is the
        region's words in use before the update, ``total`` after it,
        and ``key_len`` the changed key's new length.  Anything else
        gets ``total + max(total, 4)``.  Returns
        the metered ``(words read, words written)`` transactions: one
        region merge per affected group."""
        total = new_len.sum(axis=1)
        start = self._region_start[affected]
        region_cap = self._region_cap[affected]
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
        pos = start.copy()
        pos[moves] = self._ci_len + np.cumsum(new_cap) - new_cap
        grown = int(new_cap.sum())
        self._grow_ci(grown)
        self._dead_words += int(region_cap[moves].sum())
        self._region_start[affected[moves]] = pos[moves]
        self._region_cap[affected[moves]] = new_cap
        self._ci_len += grown
        self._ci_buf[concat_ranges(pos, total)] = content
        packed = pos[:, None] + np.cumsum(new_len, axis=1) - new_len
        self.groups[affected, :self.gpn - 1, 0] = keys
        self.groups[affected, :self.gpn - 1, 1] = np.where(
            keys != _EMPTY_SLOT, packed, _EMPTY_SLOT)
        self.groups[affected, self.gpn - 1, 1] = pos + total
        return (int(contiguous_reads(used).sum()),
                int((contiguous_reads(total) + 1).sum()))

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

        Regions are processed in layout order, so each destination is at
        or before its source and the move is safe in place; per-region
        slack is dropped (the next append re-creates it by relocation).
        Afterwards ``dead_words() == 0`` and the ci layer is exactly the
        live neighbor lists.  Metered like every other maintenance op
        (label ``pcsr_compact``).  Returns the number of words
        reclaimed.
        """
        old_len = self._ci_len
        order = np.argsort(self._region_start, kind="stable")
        pos = 0
        moved = 0
        groups_rewritten = 0
        for gid in order:
            gid = int(gid)
            start = int(self._region_start[gid])
            end = int(self.groups[gid, self.gpn - 1, 1])
            used = end - start
            if pos != start:
                if used:
                    self._ci_buf[pos:pos + used] = \
                        self._ci_buf[start:end].copy()
                    moved += used
                delta = pos - start
                for j in range(self.gpn - 1):
                    if self.groups[gid, j, 0] == _EMPTY_SLOT:
                        break
                    self.groups[gid, j, 1] += delta
                self.groups[gid, self.gpn - 1, 1] = pos + used
                groups_rewritten += 1
            self._region_start[gid] = pos
            self._region_cap[gid] = used
            pos += used
        if meter is not None:
            meter.add_gld(contiguous_read(moved), label=LABEL_PCSR_COMPACT)
            meter.add_gst(contiguous_read(moved) + groups_rewritten)
        self._ci_len = pos
        self._dead_words = 0
        return old_len - pos

    def stats(self) -> Dict[str, float]:
        """Health counters for this partition (monitoring surface)."""
        return {
            "label": self.label,
            "num_groups": self.num_groups,
            "keys": self.key_count(),
            "occupancy": self.occupancy(),
            "load_factor": self.load_factor(),
            "ci_words": self._ci_len,
            "dead_words": self._dead_words,
            "dead_ratio": self.dead_ratio(),
            "max_chain_length": self.max_chain_length(),
        }

    def max_chain_length(self) -> int:
        """Longest overflow chain (expected <= 1 + 5log|V|/loglog|V|).

        Walks every group's chain at once: each step follows the GID
        column for the chains still alive, so the step count is the
        longest chain, not the sum of all of them.
        """
        next_gid = self.groups[:, self.gpn - 1, 0]
        alive = next_gid[next_gid != _NO_OVERFLOW]
        longest = 1
        while alive.size:
            longest += 1
            alive = next_gid[alive]
            alive = alive[alive != _NO_OVERFLOW]
        return longest

    def validate(self) -> List[str]:
        """Structural invariant check; returns human-readable violations.

        Invariants of Definition 4: key slots fill contiguously from
        slot 0; offsets are non-decreasing in layout order and bounded
        by ``len(ci)``; every GID points at a real group (or -1); chains
        are acyclic; every key hashes (transitively) to the group chain
        that holds it.
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
        return problems

    def load_factor(self) -> float:
        """Fraction of key slots occupied."""
        total_slots = self.num_groups * (self.gpn - 1)
        return self._num_keys / total_slots if total_slots else 0.0

    def space_words(self) -> int:
        """Words occupied: 2 per slot in the group layer, plus ci."""
        return self.groups.size + len(self.ci)


class PCSRStorage(NeighborStore):
    """All edge-label partitions stored as PCSR (the "+DS" technique)."""

    kind = "pcsr"

    def __init__(self, graph: LabeledGraph, gpn: int = 16) -> None:
        self.gpn = gpn
        self._parts: Dict[int, PCSRPartition] = {}
        for lab, part in partition_by_edge_label(graph).items():
            self._parts[lab] = PCSRPartition(part, gpn=gpn)

    def partition(self, label: int) -> Optional[PCSRPartition]:
        """The PCSR of one edge label, if any edges carry it."""
        return self._parts.get(label)

    def neighbors(self, v: int, label: int) -> Array:
        part = self._parts.get(label)
        if part is None:
            return EMPTY
        return part.neighbors(v)

    def locate_transactions(self, v: int, label: int) -> int:
        """Actual probe reads: 0 when no partition carries ``label`` (no
        structure to read), else the groups walked — a miss inside a
        partition still pays for every group it probed."""
        part = self._parts.get(label)
        if part is None:
            return 0
        return part.probe_transactions(v)

    def read_transactions(self, v: int, label: int) -> int:
        return contiguous_read(len(self.neighbors(v, label)))

    def space_words(self) -> int:
        return sum(p.space_words() for p in self._parts.values())

    def max_chain_length(self) -> int:
        """Longest overflow chain across all partitions."""
        if not self._parts:
            return 0
        return max(p.max_chain_length() for p in self._parts.values())

    def stats(self) -> Dict[str, object]:
        """Aggregated PCSR health across partitions, plus per-label
        detail — the monitoring surface stream reports and the serve
        ``stats`` RPC expose.  One vectorized chain walk per
        partition."""
        per_label = {lab: part.stats()
                     for lab, part in sorted(self._parts.items())}
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
