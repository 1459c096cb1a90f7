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
:meth:`PCSRPartition.insert_key`, :meth:`PCSRPartition.append_neighbors`
and :meth:`PCSRPartition.remove_neighbor` implement this; every operation
keeps :meth:`PCSRPartition.validate` clean and meters its simulated
memory transactions so incremental-vs-rebuild cost is measurable.  When
the partition outgrows its hash (occupancy) or the empty-group pool runs
dry (Claim 1 can no longer be honored), callers are expected to rebuild —
see :class:`repro.dynamic.index.DynamicPCSRStorage` for the policy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.arraytypes import Array
from repro.errors import StorageError
from repro.gpusim.constants import LABEL_PCSR_COMPACT, LABEL_PCSR_MAINTAIN
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label
from repro.storage.base import EMPTY, NeighborStore

_EMPTY_SLOT = -1
_NO_OVERFLOW = -1

#: multiplicative (Knuth) hash constant for spreading vertex ids
_HASH_MULT = 2654435761


def default_hash(v: int, num_groups: int) -> int:
    """The one-to-one hash mapping vertex ids to group ids."""
    return ((v * _HASH_MULT) & 0xFFFFFFFF) % num_groups


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
        items = partition.items()
        self.num_groups = max(1, len(items))
        self.groups = np.full((self.num_groups, gpn, 2), _EMPTY_SLOT,
                              dtype=np.int64)
        self.groups[:, gpn - 1, 0] = _NO_OVERFLOW

        # --- Algorithm 1, lines 3-4: hash every key to a home group. ---
        keyed: List[List[int]] = [[] for _ in range(self.num_groups)]
        for v, _ in items:
            keyed[default_hash(v, self.num_groups)].append(v)

        capacity = gpn - 1
        # --- Lines 5-8: resolve overflow through empty groups. ---
        placed: List[List[int]] = [ks[:capacity] for ks in keyed]
        overflow: List[Tuple[int, List[int]]] = [
            (gid, ks[capacity:]) for gid, ks in enumerate(keyed)
            if len(ks) > capacity
        ]
        empty_pool = [gid for gid, ks in enumerate(keyed) if not ks]
        chain_next: Dict[int, int] = {}
        for origin, spill in overflow:
            current = origin
            while spill:
                if not empty_pool:
                    raise StorageError(
                        "ran out of empty groups resolving overflow; "
                        "Claim 1 violated (this is a bug)")
                target = empty_pool.pop()
                chain_next[current] = target
                placed[target] = spill[:capacity]
                spill = spill[capacity:]
                current = target

        # --- Lines 9-13: lay out ci and record offsets. ---
        adjacency = {v: nbrs for v, nbrs in items}
        chunks: List[Array] = []
        pos = 0
        self._region_start = np.zeros(self.num_groups, dtype=np.int64)
        self._region_cap = np.zeros(self.num_groups, dtype=np.int64)
        for gid in range(self.num_groups):
            self._region_start[gid] = pos
            for j, v in enumerate(placed[gid]):
                nbrs = adjacency[v]
                self.groups[gid, j, 0] = v
                self.groups[gid, j, 1] = pos
                chunks.append(nbrs)
                pos += len(nbrs)
            self.groups[gid, gpn - 1, 1] = pos  # END flag
            self.groups[gid, gpn - 1, 0] = chain_next.get(gid, _NO_OVERFLOW)
            self._region_cap[gid] = pos - self._region_start[gid]
        self._ci_buf = (np.concatenate(chunks) if chunks
                        else np.empty(0, dtype=np.int64))
        self._ci_len = int(pos)
        self._keys_per_group = [len(p) for p in placed]
        #: groups with no keys and no chain membership — the reservoir
        #: Claim 1 draws from, both at build time and incrementally.
        self._empty_pool = set(empty_pool)
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

    def _find_key(self, v: int) -> Tuple[int, int, int]:
        """Locate the slot holding ``v``: ``(reads, gid, slot)`` with
        ``gid == -1`` when ``v`` is not stored."""
        gid = default_hash(v, self.num_groups)
        reads = 0
        while gid != _NO_OVERFLOW:
            reads += 1
            group = self.groups[gid]
            for j in range(self.gpn - 1):
                if group[j, 0] == v:
                    return reads, gid, j
            gid = int(group[self.gpn - 1, 0])
        return reads, -1, -1

    def _slot_extent(self, gid: int, j: int) -> Tuple[int, int]:
        """ci extent ``[begin, end)`` of the key at ``(gid, slot j)``."""
        begin = int(self.groups[gid, j, 1])
        if j + 1 < self.gpn - 1 and self.groups[gid, j + 1, 0] != _EMPTY_SLOT:
            end = int(self.groups[gid, j + 1, 1])
        else:
            end = int(self.groups[gid, self.gpn - 1, 1])
        return begin, end

    def _grow_ci(self, extra: int) -> None:
        """Ensure the ci buffer has room for ``extra`` more words."""
        need = self._ci_len + extra
        if need <= len(self._ci_buf):
            return
        new_cap = max(need, 2 * len(self._ci_buf), 16)
        buf = np.full(new_cap, _EMPTY_SLOT, dtype=np.int64)
        buf[:self._ci_len] = self._ci_buf[:self._ci_len]
        self._ci_buf = buf

    def _relocate_group(self, gid: int, extra: int,
                        meter: Optional[MemoryMeter]) -> None:
        """Move ``gid``'s ci region to the tail of ci with ``extra``
        words of fresh slack, orphaning the old region."""
        start = int(self._region_start[gid])
        end = int(self.groups[gid, self.gpn - 1, 1])
        used = end - start
        new_cap = used + max(extra, used, 4)
        self._grow_ci(new_cap)
        new_start = self._ci_len
        if used:
            self._ci_buf[new_start:new_start + used] = \
                self._ci_buf[start:end]
        delta = new_start - start
        for j in range(self.gpn - 1):
            if self.groups[gid, j, 0] == _EMPTY_SLOT:
                break
            self.groups[gid, j, 1] += delta
        self.groups[gid, self.gpn - 1, 1] = new_start + used
        self._dead_words += int(self._region_cap[gid])
        self._region_start[gid] = new_start
        self._region_cap[gid] = new_cap
        self._ci_len = new_start + new_cap
        if meter is not None:
            moved = contiguous_read(used)
            meter.add_gld(moved, label=LABEL_PCSR_MAINTAIN)
            meter.add_gst(moved + 1)  # stream the region + group rewrite

    def _region_slack(self, gid: int) -> int:
        end = int(self.groups[gid, self.gpn - 1, 1])
        return int(self._region_start[gid] + self._region_cap[gid] - end)

    def insert_key(self, v: int, neighbors: Array,
                   meter: Optional[MemoryMeter] = None) -> bool:
        """Place a *new* key ``v`` with its sorted neighbor list.

        Walks the home-group chain for a free key slot; when the whole
        chain is full, extends it through an empty group exactly as
        Algorithm 1 does (Claim 1's mechanism).  Returns ``False`` when
        no empty group remains — the caller must rebuild the partition
        (the hash is no longer one-to-one enough to honor Claim 1).
        """
        nbrs = np.sort(np.asarray(neighbors, dtype=np.int64))
        gid = default_hash(v, self.num_groups)
        reads = 0
        target = -1
        last = gid
        while gid != _NO_OVERFLOW:
            reads += 1
            group = self.groups[gid]
            for j in range(self.gpn - 1):
                if group[j, 0] == v:
                    raise StorageError(
                        f"key {v} already present; use append_neighbors")
            if target < 0 and self._keys_per_group[gid] < self.gpn - 1:
                target = gid
            last = gid
            gid = int(group[self.gpn - 1, 0])
        if meter is not None:
            meter.add_gld(reads, label=LABEL_PCSR_MAINTAIN)
        if target < 0:
            # Chain full end to end: extend it through an empty group.
            if not self._empty_pool:
                return False
            target = self._empty_pool.pop()
            self.groups[last, self.gpn - 1, 0] = target
            # Fresh region at the ci tail for the new chain link.
            self._grow_ci(0)
            self._region_start[target] = self._ci_len
            self._region_cap[target] = 0
            self.groups[target, self.gpn - 1, 1] = self._ci_len
            if meter is not None:
                meter.add_gst(1)  # rewrite the chained-from group

        if self._region_slack(target) < len(nbrs):
            self._relocate_group(target, len(nbrs), meter)
        end = int(self.groups[target, self.gpn - 1, 1])
        slot = self._keys_per_group[target]
        if len(nbrs):
            self._ci_buf[end:end + len(nbrs)] = nbrs
        self.groups[target, slot, 0] = v
        self.groups[target, slot, 1] = end
        self.groups[target, self.gpn - 1, 1] = end + len(nbrs)
        self._keys_per_group[target] += 1
        # A group with a key is no longer a Claim-1 reservoir candidate.
        self._empty_pool.discard(target)
        if meter is not None:
            meter.add_gst(1 + contiguous_read(len(nbrs)))
        return True

    def append_neighbors(self, v: int, new_neighbors: Array,
                         meter: Optional[MemoryMeter] = None) -> None:
        """Merge ``new_neighbors`` into existing key ``v``'s list.

        Later slots in the group shift right inside the region (slack
        permitting); otherwise the whole region relocates to the ci
        tail.  The list stays sorted, so lookups still binary-search.
        """
        reads, gid, j = self._find_key(v)
        if meter is not None:
            meter.add_gld(reads, label=LABEL_PCSR_MAINTAIN)
        if gid < 0:
            raise StorageError(f"key {v} not present; use insert_key")
        begin, end = self._slot_extent(gid, j)
        current = self._ci_buf[begin:end]
        merged = np.union1d(current, np.asarray(new_neighbors,
                                                dtype=np.int64))
        delta = len(merged) - (end - begin)
        if delta and self._region_slack(gid) < delta:
            self._relocate_group(gid, max(delta, len(merged)), meter)
            begin, end = self._slot_extent(gid, j)
        group_end = int(self.groups[gid, self.gpn - 1, 1])
        if delta:
            # Shift the later slots' lists right by delta.
            tail = self._ci_buf[end:group_end].copy()
            self._ci_buf[end + delta:group_end + delta] = tail
            for k in range(j + 1, self.gpn - 1):
                if self.groups[gid, k, 0] == _EMPTY_SLOT:
                    break
                self.groups[gid, k, 1] += delta
            self.groups[gid, self.gpn - 1, 1] = group_end + delta
        self._ci_buf[begin:begin + len(merged)] = merged
        if meter is not None:
            meter.add_gld(contiguous_read(end - begin),
                          label=LABEL_PCSR_MAINTAIN)
            meter.add_gst(1 + contiguous_read(len(merged))
                          + contiguous_read(max(0, group_end - end)))

    def remove_neighbor(self, v: int, w: int,
                        meter: Optional[MemoryMeter] = None) -> None:
        """Delete ``w`` from ``v``'s neighbor list in place.

        Later lists in the group shift left one word; the freed word
        becomes region slack.  A key whose list empties keeps its slot
        with a zero-length extent (keys are never evicted in place — a
        rebuild compacts them away).
        """
        reads, gid, j = self._find_key(v)
        if meter is not None:
            meter.add_gld(reads, label=LABEL_PCSR_MAINTAIN)
        if gid < 0:
            raise StorageError(f"key {v} not present in partition")
        begin, end = self._slot_extent(gid, j)
        seg = self._ci_buf[begin:end]
        pos = int(np.searchsorted(seg, w))
        if pos >= len(seg) or seg[pos] != w:
            raise StorageError(f"{w} is not a neighbor of {v}")
        group_end = int(self.groups[gid, self.gpn - 1, 1])
        self._ci_buf[begin + pos:group_end - 1] = \
            self._ci_buf[begin + pos + 1:group_end].copy()
        for k in range(j + 1, self.gpn - 1):
            if self.groups[gid, k, 0] == _EMPTY_SLOT:
                break
            self.groups[gid, k, 1] -= 1
        self.groups[gid, self.gpn - 1, 1] = group_end - 1
        if meter is not None:
            meter.add_gld(contiguous_read(group_end - begin),
                          label=LABEL_PCSR_MAINTAIN)
            meter.add_gst(1 + contiguous_read(group_end - 1 - begin - pos))

    def _merge_delta(self, v: int, current: Array,
                     adds: Optional[Array],
                     removes: Optional[Array]) -> Array:
        """``(current \\ removes) ∪ adds`` as a new sorted-unique array;
        raises (before any structural mutation) if a remove target is
        absent, matching :meth:`remove_neighbor`.

        Deltas are typically one or two edges per key, so this leans on
        binary search (``current`` is sorted-unique) instead of the
        much heavier ``isin``/``union1d`` set machinery.
        """
        merged = current
        if removes is not None and len(removes):
            rem = np.asarray(removes, dtype=np.int64)
            if len(rem) > 1:
                rem = np.unique(rem)
            if not len(merged):
                raise StorageError(
                    f"{int(rem[0])} is not a neighbor of {v}")
            pos = np.searchsorted(merged, rem)
            present = merged[np.minimum(pos, len(merged) - 1)] == rem
            if not present.all():
                missing = int(rem[int(np.argmin(present))])
                raise StorageError(f"{missing} is not a neighbor of {v}")
            merged = np.delete(merged, pos)
        if adds is not None and len(adds):
            add = np.asarray(adds, dtype=np.int64)
            if len(add) > 1:
                add = np.unique(add)
            pos = np.searchsorted(merged, add)
            if len(merged):
                fresh = (pos >= len(merged)) \
                    | (merged[np.minimum(pos, len(merged) - 1)] != add)
            else:
                fresh = np.ones(len(add), dtype=bool)
            if fresh.any():
                merged = np.insert(merged, pos[fresh], add[fresh])
        if merged is current:
            merged = current.copy()
        return merged

    def _bulk_merge(self, touched: List[int],
                    located: Dict[int, Tuple[int, int]],
                    inserts: Dict[int, Array],
                    deletes: Dict[int, Array]
                    ) -> Dict[int, Array]:
        """Merged neighbor lists for every touched key, computed as one
        global sorted merge over ``i * M + w`` pair codes.  Read-only:
        raises :class:`StorageError` on a delete of an absent neighbor
        without having mutated anything."""
        cur_arrays: List[Array] = []
        cur_owner: List[int] = []
        rem_arrays: List[Array] = []
        rem_owner: List[int] = []
        add_arrays: List[Array] = []
        add_owner: List[int] = []
        top = 0
        for i, v in enumerate(touched):
            if v in located:
                gid, j = located[v]
                begin, end = self._slot_extent(gid, j)
                seg = self._ci_buf[begin:end]
                if len(seg):
                    cur_arrays.append(seg)
                    cur_owner.append(i)
                    top = max(top, int(seg[-1]))
            for bucket, arrays, owners in ((deletes, rem_arrays,
                                            rem_owner),
                                           (inserts, add_arrays,
                                            add_owner)):
                arr = bucket.get(v)
                if arr is not None and len(arr):
                    arr = np.asarray(arr, dtype=np.int64)
                    arrays.append(arr)
                    owners.append(i)
                    top = max(top, int(arr.max()))
        M = top + 1
        if len(touched) > (2 ** 62) // max(M, 1):
            # Pair codes would overflow int64; take the per-key path.
            out: Dict[int, Array] = {}
            for v in touched:
                if v in located:
                    gid, j = located[v]
                    begin, end = self._slot_extent(gid, j)
                    current = self._ci_buf[begin:end]
                else:
                    current = EMPTY
                out[v] = self._merge_delta(v, current, inserts.get(v),
                                           deletes.get(v))
            return out

        def codes(arrays: List[Array], owners: List[int],
                  presorted: bool) -> Array:
            if not arrays:
                return EMPTY
            code = (np.repeat(np.asarray(owners, dtype=np.int64),
                              [len(a) for a in arrays]) * M
                    + np.concatenate(arrays))
            return code if presorted else np.sort(code)

        cur_code = codes(cur_arrays, cur_owner, presorted=True)
        rem_code = codes(rem_arrays, rem_owner, presorted=False)
        add_code = codes(add_arrays, add_owner, presorted=False)

        if len(rem_code):
            pos = (np.searchsorted(cur_code, rem_code)
                   if len(cur_code) else None)
            present = (cur_code[np.minimum(pos, len(cur_code) - 1)]
                       == rem_code if pos is not None
                       else np.zeros(len(rem_code), dtype=bool))
            if not present.all():
                bad = int(rem_code[int(np.argmin(present))])
                raise StorageError(f"{bad % M} is not a neighbor of "
                                   f"{touched[bad // M]}")
            keep = np.ones(len(cur_code), dtype=bool)
            keep[pos] = False
            kept = cur_code[keep]
        else:
            kept = cur_code
        if len(add_code):
            add_code = np.unique(add_code)
            if len(kept):
                pos = np.searchsorted(kept, add_code)
                fresh = (kept[np.minimum(pos, len(kept) - 1)]
                         != add_code)
            else:
                pos = np.zeros(len(add_code), dtype=np.int64)
                fresh = np.ones(len(add_code), dtype=bool)
            merged_code = np.insert(kept, pos[fresh], add_code[fresh])
        else:
            merged_code = kept
        counts = np.bincount(merged_code // M, minlength=len(touched))
        vals = merged_code % M
        bounds = np.concatenate(([0], np.cumsum(counts)))
        return {v: vals[bounds[i]:bounds[i + 1]]
                for i, v in enumerate(touched)}

    def apply_bulk(self, inserts: Dict[int, Array],
                   deletes: Dict[int, Array],
                   meter: Optional[MemoryMeter] = None) -> bool:
        """Apply a whole batch delta in one pass (GPMA-style bulk update).

        ``inserts`` / ``deletes`` map keys to neighbor arrays to merge in
        or strip out.  Instead of one chain walk plus one region
        shift/relocation per edge, this walks each touched key's chain
        once, then performs a single sorted merge + rewrite per affected
        group region — the bulk analogue of segment-wise GPMA updates.

        Returns ``False`` (with the partition **unmodified**) when new
        keys cannot be placed without violating Claim 1; the caller
        rebuilds, exactly as for :meth:`insert_key`.  Raises
        :class:`StorageError` (also before mutating) when a delete
        targets a missing key or neighbor.
        """
        touched = sorted(set(inserts) | set(deletes))
        if not touched:
            return True
        gpn = self.gpn
        capacity = gpn - 1

        # Phase 1: one chain walk per touched key.
        reads = 0
        located: Dict[int, Tuple[int, int]] = {}
        new_keys: List[int] = []
        for v in touched:
            r, gid, j = self._find_key(v)
            reads += r
            if gid >= 0:
                located[v] = (gid, j)
            elif v in deletes:
                raise StorageError(f"key {v} not present in partition")
            else:
                new_keys.append(v)
        if meter is not None:
            meter.add_gld(reads, label=LABEL_PCSR_MAINTAIN)

        # Phase 2 (dry run): place new keys along their home chains,
        # extending through empty groups when full — without mutating,
        # so Claim-1 starvation leaves the structure untouched.
        pending: Dict[int, int] = {}
        planned_next: Dict[int, int] = {}
        pool = set(self._empty_pool) if new_keys else set()
        placements: List[Tuple[int, int]] = []  # (v, target gid)
        for v in new_keys:
            cur = default_hash(v, self.num_groups)
            target = -1
            while True:
                free = (capacity - self._keys_per_group[cur]
                        - pending.get(cur, 0))
                if free > 0:
                    target = cur
                    break
                nxt = planned_next.get(
                    cur, int(self.groups[cur, gpn - 1, 0]))
                if nxt == _NO_OVERFLOW:
                    break
                cur = nxt
            if target < 0:
                if not pool:
                    return False  # nothing mutated yet; caller rebuilds
                target = pool.pop()
                planned_next[cur] = target
            pending[target] = pending.get(target, 0) + 1
            placements.append((v, target))
            pool.discard(target)

        # Phase 3 (still read-only): one global sorted merge across all
        # touched keys, raising on bad deletes before any write happens.
        # (key-index, neighbor) pairs are encoded as ``i * M + w``; the
        # per-key ci segments are sorted-unique and visited in index
        # order, so the current stream is already globally sorted and
        # every per-key set-op collapses into a handful of whole-batch
        # array ops — the GPMA bulk merge proper.
        merged = self._bulk_merge(touched, located, inserts, deletes)

        # Phase 4: commit — chain extensions, then one rewrite per
        # affected group region.
        gst = 0
        for last, target in planned_next.items():
            self.groups[last, gpn - 1, 0] = target
            self._grow_ci(0)
            self._region_start[target] = self._ci_len
            self._region_cap[target] = 0
            self.groups[target, gpn - 1, 1] = self._ci_len
            self._empty_pool.discard(target)
            gst += 1  # rewrite of the chained-from group
        new_by_gid: Dict[int, List[int]] = {}
        for v, target in placements:
            self._empty_pool.discard(target)
            new_by_gid.setdefault(target, []).append(v)

        affected = sorted({gid for gid, _ in located.values()}
                          | set(new_by_gid))
        moved_read = 0
        for gid in affected:
            # Fast path: one touched key, no new keys, region slack
            # suffices — shift the tail in place instead of rewriting
            # the whole region (the common sparse-batch shape).  The
            # metered cost is the same either way: the bulk model
            # charges a region merge per affected group.
            new_here = new_by_gid.get(gid, ())
            nkeys = int(self._keys_per_group[gid])
            touched_slots = [j for j in range(nkeys)
                             if int(self.groups[gid, j, 0]) in merged]
            if not new_here and len(touched_slots) == 1:
                j = touched_slots[0]
                arr = merged[int(self.groups[gid, j, 0])]
                begin, end = self._slot_extent(gid, j)
                delta = len(arr) - (end - begin)
                old_used = (int(self.groups[gid, gpn - 1, 1])
                            - int(self._region_start[gid]))
                if delta > 0 and self._region_slack(gid) < delta:
                    # Metered below with the same region-merge formula
                    # as the general path, so the accounting does not
                    # depend on which branch ran.
                    self._relocate_group(gid, max(delta, len(arr)),
                                         None)
                    begin, end = self._slot_extent(gid, j)
                group_end = int(self.groups[gid, gpn - 1, 1])
                if delta:
                    tail = self._ci_buf[end:group_end].copy()
                    self._ci_buf[end + delta:group_end + delta] = tail
                    for k in range(j + 1, gpn - 1):
                        if self.groups[gid, k, 0] == _EMPTY_SLOT:
                            break
                        self.groups[gid, k, 1] += delta
                    self.groups[gid, gpn - 1, 1] = group_end + delta
                if len(arr):
                    self._ci_buf[begin:begin + len(arr)] = arr
                moved_read += contiguous_read(old_used)
                gst += contiguous_read(old_used + delta) + 1
                continue
            keys: List[int] = []
            arrays: List[Array] = []
            for j in range(self._keys_per_group[gid]):
                v = int(self.groups[gid, j, 0])
                keys.append(v)
                if v in merged:
                    arrays.append(merged[v])
                else:
                    begin, end = self._slot_extent(gid, j)
                    arrays.append(self._ci_buf[begin:end])
            for v in new_by_gid.get(gid, ()):
                keys.append(v)
                arrays.append(merged[v])
            old_start = int(self._region_start[gid])
            old_used = int(self.groups[gid, gpn - 1, 1]) - old_start
            lens = np.array([len(a) for a in arrays], dtype=np.int64)
            total = int(lens.sum())
            # Concatenate into a fresh buffer first: the sources may be
            # views into the very region being rewritten.
            region = (np.concatenate(arrays) if total
                      else np.empty(0, dtype=np.int64))
            if total <= self._region_cap[gid]:
                pos = old_start
            else:
                new_cap = total + max(total, 4)
                self._grow_ci(new_cap)
                pos = self._ci_len
                self._dead_words += int(self._region_cap[gid])
                self._region_start[gid] = pos
                self._region_cap[gid] = new_cap
                self._ci_len = pos + new_cap
            self._ci_buf[pos:pos + total] = region
            n = len(keys)
            if n:
                self.groups[gid, :n, 0] = keys
                self.groups[gid, :n, 1] = pos + np.concatenate(
                    ([0], np.cumsum(lens[:-1])))
            self.groups[gid, gpn - 1, 1] = pos + total
            self._keys_per_group[gid] = n
            moved_read += contiguous_read(old_used)
            gst += contiguous_read(total) + 1
        if meter is not None:
            meter.add_gld(moved_read, label=LABEL_PCSR_MAINTAIN)
            meter.add_gst(gst)
        return True

    def items(self) -> Iterator[Tuple[int, Array]]:
        """Iterate ``(key, neighbor array)`` straight off the structure
        (rebuilds and tests read the partition back through this)."""
        for gid in range(self.num_groups):
            for j in range(self.gpn - 1):
                v = int(self.groups[gid, j, 0])
                if v == _EMPTY_SLOT:
                    break
                begin, end = self._slot_extent(gid, j)
                yield v, self._ci_buf[begin:end].copy()

    def key_count(self) -> int:
        """Number of stored keys (vertices with a slot)."""
        return int(sum(self._keys_per_group))

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
        return sum(self._keys_per_group) / total_slots if total_slots else 0.0

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
