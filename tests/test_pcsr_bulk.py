"""Bulk PCSR updates (GPMA-style) and the sorted-unique neighbor
contract under churn."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.gpusim.meter import MemoryMeter
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import partition_by_edge_label
from repro.storage.pcsr import PCSRPartition


def build_partition(edges, n=None, gpn=16):
    n = n if n is not None else (max(max(u, v) for u, v, _ in edges) + 1
                                 if edges else 1)
    g = LabeledGraph([0] * n, edges)
    parts = partition_by_edge_label(g)
    return {lab: PCSRPartition(p, gpn=gpn) for lab, p in parts.items()}


def random_edges(rng, num_vertices, num_edges):
    seen = set()
    while len(seen) < num_edges:
        u, v = (int(x) for x in rng.integers(0, num_vertices, size=2))
        if u != v:
            seen.add((min(u, v), max(u, v), 0))
    return sorted(seen)


def entries(delta):
    """{key: neighbors} -> (m, 2) directed (key, neighbor) entries."""
    return np.array([(k, w) for k, ws in delta.items() for w in ws],
                    dtype=np.int64).reshape(-1, 2)


def as_entries(pairs):
    """(u, v) pairs -> both orientations as directed entries."""
    return np.array([e for u, v in pairs for e in ((u, v), (v, u))],
                    dtype=np.int64).reshape(-1, 2)


class TestApplyBulkDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_edge_path(self, seed):
        """Random insert/delete batches through ``apply_bulk`` leave the
        same adjacency as applying them to the edge set one edge at a
        time."""
        rng = np.random.default_rng(seed)
        base = random_edges(rng, 40, 120)
        part = build_partition(base)[0]
        existing = {(u, v) for u, v, _ in base}

        for _ in range(6):
            removable = sorted(existing)
            picks = rng.choice(len(removable),
                               size=min(5, len(removable)),
                               replace=False)
            removes = [removable[i] for i in picks]
            adds = []
            while len(adds) < 8:
                u, v = (int(x) for x in rng.integers(0, 40, size=2))
                e = (min(u, v), max(u, v))
                if u != v and e not in existing and e not in adds:
                    adds.append(e)
            existing -= set(removes)
            existing |= set(adds)

            meter = MemoryMeter()
            assert part.apply_bulk(as_entries(adds), as_entries(removes),
                                   meter)
            assert meter.labeled_gld("pcsr_maintain") > 0
            assert part.validate() == []
            want = {}
            for u, v in existing:
                want.setdefault(u, []).append(v)
                want.setdefault(v, []).append(u)
            # emptied keys keep their slot with a [] extent
            got = {v: a.tolist() for v, a in part.items() if len(a)}
            assert got == {v: sorted(ws) for v, ws in want.items()}

    def test_multiple_edges_same_key_one_merge(self):
        part = build_partition([(0, 1, 0), (0, 2, 0)])[0]
        meter = MemoryMeter()
        assert part.apply_bulk(
            entries({0: [3, 4, 5], 3: [0], 4: [0], 5: [0]}),
            entries({}), meter)
        assert part.validate() == []
        assert list(part.neighbors(0)) == [1, 2, 3, 4, 5]
        assert list(part.neighbors(4)) == [0]

    def test_new_key_insertion(self):
        part = build_partition([(0, 1, 0)])[0]
        assert part.apply_bulk(entries({7: [0], 0: [7]}), entries({}))
        assert list(part.neighbors(7)) == [0]
        assert list(part.neighbors(0)) == [1, 7]
        assert part.validate() == []

    def test_mixed_insert_delete_same_key(self):
        part = build_partition([(0, 1, 0), (0, 2, 0)])[0]
        assert part.apply_bulk(entries({0: [5], 5: [0]}),
                               entries({0: [1], 1: [0]}))
        assert list(part.neighbors(0)) == [2, 5]
        assert part.validate() == []


class TestApplyBulkAtomicity:
    def test_bad_delete_key_raises_before_mutation(self):
        part = build_partition([(0, 1, 0)])[0]
        before = {v: a.tolist() for v, a in part.items()}
        with pytest.raises(StorageError):
            part.apply_bulk(entries({}), entries({9: [0]}))
        assert {v: a.tolist() for v, a in part.items()} == before

    def test_bad_delete_neighbor_raises_before_mutation(self):
        part = build_partition([(0, 1, 0), (2, 3, 0)])[0]
        before = {v: a.tolist() for v, a in part.items()}
        with pytest.raises(StorageError, match="not a neighbor"):
            # the valid half of the delta must not land either
            part.apply_bulk(entries({}), entries({0: [1], 2: [9]}))
        assert {v: a.tolist() for v, a in part.items()} == before
        assert part.validate() == []

    def test_claim1_starvation_returns_false_unmodified(self):
        # gpn=2 -> one key slot per group; fill every group so a new
        # key cannot be placed anywhere along its chain.
        part = build_partition([(0, 1, 0)], gpn=2)[0]
        while part._empty_pool:
            spare = max(part.items(), default=(1, None))[0] + 100
            if not part.apply_bulk(entries({spare: [0]}), entries({})):
                break
        before = {v: a.tolist() for v, a in part.items()}
        new_key = 9999
        assert part._locate(np.array([new_key]))[1][0] < 0
        assert not part.apply_bulk(entries({new_key: [0]}), entries({}))
        assert {v: a.tolist() for v, a in part.items()} == before
        assert part.validate() == []


class TestSortedUniqueContract:
    @pytest.mark.parametrize("corrupt", ["duplicate", "descending"])
    def test_validate_reports_unsorted_list(self, corrupt):
        """Readers take every list as sorted-unique and repair nothing,
        so one corrupted ``ci`` word must show in ``validate()``."""
        part = build_partition(
            [(0, v, 0) for v in range(1, 6)] + [(1, 2, 0)])[0]
        assert part.validate() == []
        _, gid, slot = part._locate(np.array([0]))
        begin = int(part.groups[gid[0], slot[0], 1])
        assert part.ci[begin:begin + 5].tolist() == [1, 2, 3, 4, 5]
        part._ci_buf[begin + 2] = 2 if corrupt == "duplicate" else 0
        assert part.validate() == [
            "key 0: neighbors not strictly increasing"]

    def test_neighbors_sorted_unique_after_churn(self):
        rng = np.random.default_rng(8)
        part = build_partition(random_edges(rng, 25, 60))[0]
        for round_ in range(4):
            for v in range(0, 25, 4):
                if len(part.neighbors(v)):
                    part.apply_bulk(
                        entries({v: rng.integers(0, 80, size=4).tolist()}),
                        entries({}))
            part.apply_bulk(
                entries({0: rng.integers(80, 120, size=3).tolist()}),
                entries({}))
            part.compact()
            for v, arr in part.items():
                lst = arr.tolist()
                assert lst == sorted(set(lst)), (
                    f"neighbors of {v} not sorted-unique: {lst}")
        assert part.validate() == []
