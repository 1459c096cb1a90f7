"""The one-pass PCSR maintenance checked against its per-label reference.

:meth:`DynamicPCSRStorage.apply_batch` maintains every edge label of a
committed batch in one pass over the stacked group layer
(:meth:`GroupStack.apply`).  :class:`ReferencePartition` keeps the
earlier per-label path — each label's entries through their own chain
walk, dry-run placement, merge and region rewrite, and a compaction
that slides one region at a time — and :class:`ReferenceStore` the
earlier ``apply_batch`` loop over labels around it.  For every fuzz
profile and several group sizes, after each batch, every label's
:func:`oracle.partition_digest` (group layer, region arrays, empty-pool
order, ci contents) and the batch's maintenance ``MeterSnapshot`` must
equal the reference's, as must the rebuild, compaction and
incremental-op counters.  The stacked layer is checked against the
re-stack every rebuild once made: each part's arrays are views of its
rows, and the live rows equal :func:`oracle.restack` of the reference
partitions.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.dynamic.index import (
    DEFAULT_COMPACT_DEAD_RATIO,
    DEFAULT_REBUILD_OCCUPANCY,
    MIN_COMPACT_DEAD_WORDS,
    DynamicPCSRStorage,
)
from repro.errors import StorageError
from repro.gpusim.constants import (
    LABEL_PCSR_COMPACT,
    LABEL_PCSR_MAINTAIN,
    LABEL_PCSR_REBUILD,
)
from repro.gpusim.meter import MemoryMeter
from repro.gpusim.transactions import contiguous_read, contiguous_reads
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import concat_ranges
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label
from repro.storage.pcsr import default_hash, hash_groups

from fuzz_harness import PROFILES, _Shadow, generate_batch
from oracle import (
    partition_digest,
    reference_of_label,
    restack,
    scalar_chain_length,
    stack_view_problems,
)

QUICK_SEEDS = (0, 1)
LONG_SEEDS = list(range(int(os.environ.get("GSI_FUZZ_SEEDS", "0"))))
#: (GPN, compaction ratio): small groups starve Claim 1 and chain;
#: a low ratio makes fuzz-sized partitions compact.
SETTINGS = [(gpn, ratio) for gpn in (2, 3, 16)
            for ratio in (DEFAULT_COMPACT_DEAD_RATIO, 0.05)]


class ReferencePartition:
    """One label's PCSR with its own arrays and the per-label update
    path, as it stood before the stacked pass."""

    def __init__(self, partition: EdgeLabelPartition, gpn: int) -> None:
        self.gpn, self.label = gpn, partition.label
        keys = partition.vertices
        lengths = np.diff(partition.offsets)
        num_keys = len(keys)
        self.num_groups = max(1, num_keys)
        capacity = gpn - 1
        home = hash_groups(keys, self.num_groups)
        by_home = np.argsort(home, kind="stable")
        counts = np.bincount(home, minlength=self.num_groups)
        first = np.cumsum(counts) - counts
        gid = home.copy()
        slot = np.empty(num_keys, dtype=np.int64)
        slot[by_home] = (np.arange(num_keys, dtype=np.int64)
                         - first[home[by_home]])
        kpg = np.minimum(counts, capacity)
        empty = np.flatnonzero(counts == 0)
        free = len(empty)
        chain_next = np.full(self.num_groups, -1, dtype=np.int64)
        for origin in np.flatnonzero(counts > capacity).tolist():
            spill = by_home[first[origin] + capacity:
                            first[origin] + counts[origin]]
            current = origin
            for at in range(0, len(spill), capacity):
                free -= 1
                target = int(empty[free])
                chain_next[current] = target
                chunk = spill[at:at + capacity]
                gid[chunk] = target
                slot[chunk] = np.arange(len(chunk), dtype=np.int64)
                kpg[target] = len(chunk)
                current = target
        layout = np.argsort(gid * capacity + slot)
        laid = lengths[layout]
        self._region_cap = np.bincount(
            gid, weights=lengths, minlength=self.num_groups).astype(np.int64)
        self._region_start = np.cumsum(self._region_cap) - self._region_cap
        self.groups = np.full((self.num_groups, gpn, 2), -1, dtype=np.int64)
        self.groups[gid[layout], slot[layout], 0] = keys[layout]
        self.groups[gid[layout], slot[layout], 1] = np.cumsum(laid) - laid
        self.groups[:, gpn - 1, 0] = chain_next
        self.groups[:, gpn - 1, 1] = self._region_start + self._region_cap
        self._ci_buf = partition.nbrs[concat_ranges(
            partition.offsets[:-1][layout], laid)]
        self._ci_len = len(self._ci_buf)
        self._keys_per_group = kpg
        self._num_keys = num_keys
        self._empty_pool = set(empty[:free].tolist())
        self._dead_words = 0

    @property
    def ci(self):
        return self._ci_buf[:self._ci_len]

    def key_count(self) -> int:
        return self._num_keys

    def dead_words(self) -> int:
        return self._dead_words

    def dead_ratio(self) -> float:
        return self._dead_words / self._ci_len if self._ci_len else 0.0

    def items(self):
        last = self.gpn - 1
        for g, s in zip(*np.nonzero(self.groups[:, :last, 0] != -1)):
            nxt = (self.groups[g, s + 1] if s + 1 < last
                   and self.groups[g, s + 1, 0] != -1
                   else self.groups[g, last])
            yield (int(self.groups[g, s, 0]),
                   self._ci_buf[self.groups[g, s, 1]:nxt[1]].copy())

    def _locate(self, keys):
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
            nxt = self.groups[cur, capacity, 0]
            more = ~found & (nxt != -1)
            alive, cur = alive[more], nxt[more]
        return reads, gid, slot

    def _place_new_keys(self, new_keys: List[int]):
        capacity = self.gpn - 1
        pending: Dict[int, int] = {}
        planned_next: Dict[int, int] = {}
        pool = set(self._empty_pool) if new_keys else set()
        targets: List[int] = []
        for v in new_keys:
            cur, target = default_hash(v, self.num_groups), -1
            while True:
                if (capacity - int(self._keys_per_group[cur])
                        - pending.get(cur, 0)) > 0:
                    target = cur
                    break
                nxt = planned_next.get(cur, int(self.groups[cur, capacity, 0]))
                if nxt == -1:
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

    def apply_bulk(self, inserts, deletes, meter, events: Set[str]) -> bool:
        touched = np.union1d(inserts[:, 0], deletes[:, 0])
        if not len(touched):
            return True
        cap = self.gpn - 1
        reads, gid, slot = self._locate(touched)
        fresh = np.flatnonzero(gid < 0)
        missing = np.intersect1d(touched[fresh], deletes[:, 0])
        if len(missing):
            raise StorageError(f"key {int(missing[0])} not present in "
                               f"partition")
        meter.add_gld(reads, label=LABEL_PCSR_MAINTAIN)
        placed = self._place_new_keys(touched[fresh].tolist())
        if placed is None:
            events.add("starvation")
            return False
        targets, planned_next = placed
        gid[fresh] = targets
        affected, row = np.unique(gid, return_inverse=True)
        block = self.groups[affected]
        keys, offsets, end = block[:, :cap, 0], block[:, :cap, 1], \
            block[:, cap, 1]
        held = keys != -1
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
        content, new_len = _reference_merge(
            entry, touched, keys, held, offsets[held], length, self._ci_buf,
            inserts, deletes)
        if planned_next:
            events.add("chain_extension")
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
        dead_before = self._dead_words
        moved_read, written = self._rewrite_regions(
            affected, keys, held, end, changed.reshape(keys.shape),
            content, new_len)
        if self._dead_words > dead_before:
            events.add("relocation")
        meter.add_gld(moved_read, label=LABEL_PCSR_MAINTAIN)
        meter.add_gst(len(planned_next) + written)
        return True

    def _rewrite_regions(self, affected, keys, held, end, changed, content,
                         new_len) -> Tuple[int, int]:
        total = new_len.sum(axis=1)
        start = self._region_start[affected]
        region_cap = self._region_cap[affected]
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
        need = self._ci_len + grown
        if need > len(self._ci_buf):
            buf = np.full(max(need, 2 * len(self._ci_buf), 16), -1,
                          dtype=np.int64)
            buf[:self._ci_len] = self._ci_buf[:self._ci_len]
            self._ci_buf = buf
        self._dead_words += int(region_cap[moves].sum())
        self._region_start[affected[moves]] = pos[moves]
        self._region_cap[affected[moves]] = new_cap
        self._ci_len += grown
        self._ci_buf[concat_ranges(pos, total)] = content
        packed = pos[:, None] + np.cumsum(new_len, axis=1) - new_len
        self.groups[affected, :self.gpn - 1, 0] = keys
        self.groups[affected, :self.gpn - 1, 1] = np.where(
            keys != -1, packed, -1)
        self.groups[affected, self.gpn - 1, 1] = pos + total
        return (int(contiguous_reads(used).sum()),
                int((contiguous_reads(total) + 1).sum()))

    def compact(self, meter: MemoryMeter) -> int:
        old_len, pos, moved, rewritten = self._ci_len, 0, 0, 0
        for gid in np.argsort(self._region_start, kind="stable").tolist():
            start = int(self._region_start[gid])
            used = int(self.groups[gid, self.gpn - 1, 1]) - start
            if pos != start:
                if used:
                    self._ci_buf[pos:pos + used] = \
                        self._ci_buf[start:start + used].copy()
                    moved += used
                for j in range(self.gpn - 1):
                    if self.groups[gid, j, 0] == -1:
                        break
                    self.groups[gid, j, 1] += pos - start
                self.groups[gid, self.gpn - 1, 1] = pos + used
                rewritten += 1
            self._region_start[gid] = pos
            self._region_cap[gid] = used
            pos += used
        meter.add_gld(contiguous_read(moved), label=LABEL_PCSR_COMPACT)
        meter.add_gst(contiguous_read(moved) + rewritten)
        self._ci_len, self._dead_words = pos, 0
        return old_len - pos


def _reference_merge(entry, touched, keys, held, begin, length, ci,
                     inserts, deletes):
    cur = ci[concat_ranges(begin, length)]
    M = 1 + max((int(a.max()) for a in (cur, inserts[:, 1], deletes[:, 1])
                 if len(a)), default=0)
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


class ReferenceStore:
    """The per-label ``apply_batch`` loop: labels in order, each
    applied, built or rebuilt on its own, then compacted."""

    def __init__(self, graph, gpn: int, compact_dead_ratio: float) -> None:
        self.gpn = gpn
        self.compact_dead_ratio = compact_dead_ratio
        self.meter = MemoryMeter()
        self.parts = {lab: ReferencePartition(p, gpn)
                      for lab, p in partition_by_edge_label(graph).items()}
        self.rebuilds = self.compactions = self.incremental_ops = 0
        self.events: Set[str] = set()

    def _rebuild(self, graph, lab: int) -> None:
        part = ReferencePartition(reference_of_label(graph, lab), self.gpn)
        self.parts[lab] = part
        self.rebuilds += 1
        self.meter.add_gld(contiguous_read(part.groups.size + len(part.ci)),
                           label=LABEL_PCSR_REBUILD)
        self.meter.add_gst(contiguous_read(part.groups.size)
                           + contiguous_read(len(part.ci)))

    def apply_batch(self, graph, inserted_edges, deleted_edges) -> None:
        def directed(edges):
            arr = np.array(list(edges), dtype=np.int64).reshape(-1, 3)
            return np.concatenate((arr, arr[:, [1, 0, 2]]))

        ins, dels = directed(inserted_edges), directed(deleted_edges)
        for lab in np.union1d(ins[:, 2], dels[:, 2]).tolist():
            add, rem = ins[ins[:, 2] == lab, :2], dels[dels[:, 2] == lab, :2]
            part = self.parts.get(lab)
            if part is None:
                part = ReferencePartition(
                    reference_of_label(graph, lab), self.gpn)
                self.parts[lab] = part
                self.meter.add_gst(contiguous_read(part.groups.size)
                                   + contiguous_read(len(part.ci)))
                continue
            new_keys = int((part._locate(np.unique(add[:, 0]))[1] < 0).sum())
            if new_keys and ((part.key_count() + new_keys)
                             / part.num_groups > DEFAULT_REBUILD_OCCUPANCY):
                self.events.add("occupancy_rebuild")
                self._rebuild(graph, lab)
            elif part.apply_bulk(add, rem, self.meter, self.events):
                self.incremental_ops += len(add) + len(rem)
            else:
                self._rebuild(graph, lab)
            part = self.parts[lab]
            if (part.dead_words() >= MIN_COMPACT_DEAD_WORDS
                    and part.dead_ratio() > self.compact_dead_ratio):
                part.compact(self.meter)
                self.compactions += 1
                self.events.add("compaction")


def replay(seed: int, profile: str, gpn: int, ratio: float,
           batches: int = 10, batch_size: int = 12) -> Set[str]:
    """One fuzz stream through both paths, compared after every batch;
    returns the maintenance events the reference saw."""
    rng = np.random.default_rng(seed * 104729 + PROFILES.index(profile))
    graph = scale_free_graph(40, 3, 3, 3, seed=seed)
    shadow = _Shadow(graph)
    vpool = sorted(set(shadow.vlabels)) or [0]
    epool = graph.distinct_edge_labels() or [0]
    dyn = DynamicGraph(graph)
    real = DynamicPCSRStorage(graph, gpn=gpn, compact_dead_ratio=ratio)
    ref = ReferenceStore(graph, gpn, ratio)
    for i in range(batches):
        dyn.apply(generate_batch(rng, shadow, profile, batch_size, vpool,
                                 epool))
        commit = dyn.commit()
        got, want = real.meter.snapshot(), ref.meter.snapshot()
        real.apply_batch(commit.snapshot, commit.inserted_edges,
                         commit.deleted_edges)
        ref.apply_batch(commit.snapshot, commit.inserted_edges,
                        commit.deleted_edges)
        where = f"seed {seed} {profile} gpn {gpn} ratio {ratio} batch {i}"
        assert (real.meter.snapshot().diff(got)
                == ref.meter.snapshot().diff(want)), where
        assert ({lab: partition_digest(p) for lab, p in real._parts.items()}
                == {lab: partition_digest(p)
                    for lab, p in ref.parts.items()}), where
        assert ((real.rebuilds, real.compactions, real.incremental_ops)
                == (ref.rebuilds, ref.compactions, ref.incremental_ops)), where
        # The layer is kept in place: every part reads its rows of the
        # stack, and the live rows equal a fresh re-stack of the
        # reference partitions.
        assert stack_view_problems(real._stack) == [], where
        for live, want in zip(
                (real._stack.groups, real._stack.region_start,
                 real._stack.region_cap, real._stack.keys_per_group),
                restack([ref.parts[lab] for lab in sorted(ref.parts)])):
            assert np.array_equal(live, want), where
        # The kept chain lengths follow every link and rebuild.
        assert ({lab: s["max_chain_length"]
                 for lab, s in real.stats()["per_label"].items()}
                == {lab: scalar_chain_length(p)
                    for lab, p in real._parts.items()}), where
    return ref.events


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_one_pass_matches_per_label_reference(seed, profile):
    for gpn, ratio in SETTINGS:
        replay(seed, profile, gpn, ratio)


def test_reference_streams_hit_every_maintenance_event():
    events: Set[str] = set()
    for profile in PROFILES:
        for gpn, ratio in SETTINGS:
            events |= replay(0, profile, gpn, ratio)
    assert events >= {"chain_extension", "relocation", "starvation",
                      "occupancy_rebuild", "compaction"}, sorted(events)


@pytest.mark.parametrize("seed", LONG_SEEDS or [None])
def test_one_pass_seed_matrix(seed: Optional[int]):
    """The CI long slice: every profile and group size, longer streams."""
    if seed is None:
        pytest.skip("set GSI_FUZZ_SEEDS=N (N>=1) to run the seed matrix")
    for profile in PROFILES:
        for gpn, ratio in SETTINGS:
            replay(seed, profile, gpn, ratio, batches=16, batch_size=16)
