"""Tests for PCSR (Definition 4, Algorithm 1, Claim 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GSIEngine
from repro.errors import StorageError
from repro.graph.generators import rdf_like_graph, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph, triangle_query
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label
from repro.storage.pcsr import PCSRPartition, PCSRStorage, default_hash

from oracle import brute_force_matches, pcsr_probe, scalar_chain_length


def build_partition(edges, n=None, gpn=16):
    n = n if n is not None else (max(max(u, v) for u, v, _ in edges) + 1
                                 if edges else 1)
    g = LabeledGraph([0] * n, edges)
    parts = partition_by_edge_label(g)
    return {lab: PCSRPartition(p, gpn=gpn) for lab, p in parts.items()}


class TestConstruction:
    def test_gpn_bounds(self):
        g = LabeledGraph([0, 0], [(0, 1, 0)])
        part = partition_by_edge_label(g)[0]
        with pytest.raises(StorageError):
            PCSRPartition(part, gpn=1)
        with pytest.raises(StorageError):
            PCSRPartition(part, gpn=17)
        PCSRPartition(part, gpn=2)  # boundary ok
        PCSRPartition(part, gpn=16)

    def test_group_count_equals_partition_vertices(self):
        p = build_partition([(0, 1, 0), (1, 2, 0), (5, 6, 0)])[0]
        assert p.num_groups == 5  # vertices 0, 1, 2, 5, 6

    def test_group_shape(self):
        p = build_partition([(0, 1, 0)], gpn=16)[0]
        assert p.groups.shape == (2, 16, 2)

    def test_space_words_formula(self):
        p = build_partition([(0, 1, 0), (1, 2, 0)], gpn=16)[0]
        # 2 words per slot * 16 slots * num_groups + ci entries
        assert p.space_words() == p.groups.size + len(p.ci)


class TestLookup:
    def test_single_edge(self):
        p = build_partition([(0, 1, 0)])[0]
        assert list(p.neighbors(0)) == [1]
        assert list(p.neighbors(1)) == [0]
        assert list(p.neighbors(7)) == []

    def test_probe_cost_at_least_one(self):
        p = build_partition([(0, 1, 0)])[0]
        assert p.gather(np.array([0, 999])).locate.tolist() == [1, 1]

    def test_miss_pays_actual_chain_walk(self):
        # With GPN=2 the star hub's keys chain; a missing vertex that
        # hashes into a chain pays one transaction per walked group,
        # not a flat floor of 1.
        edges = [(0, v, 0) for v in range(1, 20)]
        p = build_partition(edges, gpn=2)[0]
        assert p.max_chain_length() > 1
        last = p.gpn - 1
        chained = [v for v in range(100, 5000)
                   if p.groups[default_hash(v, p.num_groups), last, 0]
                   != -1]
        misses = np.array([500, 9999, 123456] + chained[:3])
        got = p.gather(misses)
        assert got.lens.tolist() == [0] * len(misses)
        assert got.locate.tolist() == [pcsr_probe(p, v)[0]
                                       for v in misses.tolist()]
        assert got.locate.min() >= 1 and got.locate.max() > 1

    def test_non_consecutive_vertex_ids(self):
        # Partition touches only vertices 100, 500, 900.
        p = build_partition([(100, 500, 0), (500, 900, 0)], n=1000)[0]
        assert list(p.neighbors(500)) == [100, 900]
        assert list(p.neighbors(100)) == [500]
        assert list(p.neighbors(0)) == []


class TestMaxChainLength:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_scalar_walk_on_build_time_chains(self, seed):
        # GPN=2: one key per group, so every home-group collision
        # chains at build time.
        graph = scale_free_graph(300, 3, 3, 3, seed=seed)
        store = PCSRStorage(graph, gpn=2)
        lengths = []
        for lab in graph.distinct_edge_labels():
            part = store.partition(lab)
            lengths.append(part.max_chain_length())
            assert lengths[-1] == scalar_chain_length(part)
        assert max(lengths) >= 3
        assert store.max_chain_length() == max(lengths)

    def test_star_chain(self):
        edges = [(0, v, 0) for v in range(1, 20)]
        p = build_partition(edges, gpn=2)[0]
        assert p.max_chain_length() == scalar_chain_length(p) == 2

    def test_equals_scalar_walk_as_new_keys_extend_a_chain(self):
        g = scale_free_graph(60, 3, 1, 1, seed=3)
        p = PCSRPartition(partition_by_edge_label(g)[0], gpn=3)
        assert p._empty_pool
        home = default_hash(1000, p.num_groups)
        same_home = [v for v in range(1000, 20000)
                     if default_hash(v, p.num_groups) == home][:8]
        lengths = [p.max_chain_length()]
        for v in same_home:
            assert p.apply_bulk(np.array([[v, 0]]), np.empty((0, 2)))
            lengths.append(p.max_chain_length())
            assert lengths[-1] == scalar_chain_length(p)
        assert p.validate() == []
        # Each full chain grows through an empty group: 1 -> 5.
        assert lengths[0] == 1 and lengths[-1] == 5
        assert lengths == sorted(lengths)


class TestOverflow:
    def test_small_gpn_forces_chains(self):
        # With GPN=2 each group holds one key; collisions must chain.
        edges = [(i, i + 1, 0) for i in range(0, 40, 2)]
        p = build_partition(edges, gpn=2)[0]
        g = LabeledGraph([0] * 41, edges)
        for v in range(41):
            expect = sorted(int(x) for x in g.neighbors_by_label(v, 0))
            assert sorted(int(x) for x in p.neighbors(v)) == expect
        assert p.max_chain_length() == scalar_chain_length(p) >= 1

    @pytest.mark.parametrize("gpn", [2, 3, 4, 8, 16])
    def test_all_gpn_values_correct(self, gpn):
        g = scale_free_graph(150, 3, 3, 4, seed=11)
        store = PCSRStorage(g, gpn=gpn)
        for v in range(0, 150, 7):
            for lab in g.distinct_edge_labels():
                expect = sorted(int(x) for x in g.neighbors_by_label(v, lab))
                got = sorted(int(x) for x in store.neighbors(v, lab))
                assert got == expect

    def test_chain_length_small_with_gpn16(self):
        g = rdf_like_graph(2000, 12000, 5, 8, seed=5)
        store = PCSRStorage(g, gpn=16)
        # Paper: no overflow observed in any experiment with GPN=16;
        # we allow short chains but they must be tiny.
        assert store.max_chain_length() <= 3


class TestClaim1:
    """Claim 1: enough empty groups always exist for overflow."""

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 400), min_size=1, max_size=120),
           st.integers(2, 16))
    def test_property_construction_never_starves(self, vertices, gpn):
        vertices = sorted(vertices)
        if len(vertices) < 2:
            return
        # Build a star among the chosen vertex ids (hub = first).
        hub = vertices[0]
        edges = [(hub, v, 0) for v in vertices[1:]]
        parts = build_partition(edges, n=max(vertices) + 1, gpn=gpn)
        p = parts[0]
        # Every vertex resolvable, i.e. Claim 1 held during build.
        assert sorted(int(x) for x in p.neighbors(hub)) == vertices[1:]
        for v in vertices[1:]:
            assert list(p.neighbors(v)) == [hub]


class TestHash:
    def test_default_hash_range(self):
        for v in (0, 1, 17, 123456):
            assert 0 <= default_hash(v, 7) < 7

    def test_default_hash_deterministic(self):
        assert default_hash(42, 13) == default_hash(42, 13)


class TestStorageFacade:
    def test_partition_accessor(self):
        g = LabeledGraph([0] * 3, [(0, 1, 4), (1, 2, 9)])
        store = PCSRStorage(g)
        assert store.partition(4) is not None
        assert store.partition(5) is None

    def test_locate_transactions_zero_for_missing_label(self):
        g = LabeledGraph([0] * 3, [(0, 1, 4)])
        store = PCSRStorage(g)
        got = store.gather(np.array([0, 1]), 99)
        assert got.locate.tolist() == got.lens.tolist() == [0, 0]

    def test_max_chain_empty_store(self):
        g = LabeledGraph([0, 0], [])
        store = PCSRStorage(g)
        assert store.max_chain_length() == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30),
                          st.integers(0, 2)), max_size=80),
       st.integers(2, 16))
def test_property_pcsr_equals_graph(edge_list, gpn):
    seen = set()
    dedup = []
    for u, v, l in edge_list:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            dedup.append((u, v, l))
    g = LabeledGraph([0] * 31, dedup)
    store = PCSRStorage(g, gpn=gpn)
    for v in range(31):
        for lab in g.distinct_edge_labels():
            expect = sorted(int(x) for x in g.neighbors_by_label(v, lab))
            got = sorted(int(x) for x in store.neighbors(v, lab))
            assert got == expect


class TestValidateDetectsCorruption:
    """Each Definition-4 invariant violation must be reported."""

    def fresh(self, gpn=4):
        # A partition with several groups and at least one multi-key
        # group, healthy by construction.
        edges = [(0, v, 0) for v in range(1, 8)]
        p = build_partition(edges, gpn=gpn)[0]
        assert p.validate() == []
        return p

    def _first_keyed_group(self, p):
        for gid in range(p.num_groups):
            if p.groups[gid, 0, 0] != -1:
                return gid
        raise AssertionError("no keyed group")

    def test_key_after_empty_slot(self):
        p = self.fresh(gpn=4)
        gid = self._first_keyed_group(p)
        # Move the slot-0 key to slot 2, leaving a hole at slot 0.
        p.groups[gid, 2] = p.groups[gid, 0]
        p.groups[gid, 0] = (-1, -1)
        assert any("key after empty slot" in msg for msg in p.validate())

    def test_decreasing_offsets(self):
        edges = [(0, v, 0) for v in range(1, 40)]
        p = build_partition(edges, gpn=16)[0]
        # Find a group holding at least two keys and swap two offsets.
        for gid in range(p.num_groups):
            if p.groups[gid, 1, 0] != -1:
                break
        else:
            raise AssertionError("no multi-key group in fixture")
        p.groups[gid, 0, 1], p.groups[gid, 1, 1] = \
            int(p.groups[gid, 1, 1]) + 1, int(p.groups[gid, 0, 1])
        assert any("offsets" in msg and "decrease" in msg
                   for msg in p.validate())

    def test_offset_out_of_range(self):
        p = self.fresh()
        gid = self._first_keyed_group(p)
        p.groups[gid, 0, 1] = len(p.ci) + 7
        assert any("out of range" in msg for msg in p.validate())

    def test_bad_gid(self):
        p = self.fresh()
        p.groups[0, p.gpn - 1, 0] = p.num_groups + 3
        assert any("bad GID" in msg for msg in p.validate())

    def test_cyclic_gid_chain(self):
        p = self.fresh()
        gid = self._first_keyed_group(p)
        p.groups[gid, p.gpn - 1, 0] = gid  # self-loop chain
        probs = p.validate()
        assert any("cyclic overflow chain" in msg for msg in probs)

    def test_two_group_cycle(self):
        p = self.fresh()
        a = self._first_keyed_group(p)
        b = (a + 1) % p.num_groups
        p.groups[a, p.gpn - 1, 0] = b
        p.groups[b, p.gpn - 1, 0] = a
        assert any("cyclic overflow chain" in msg for msg in p.validate())

    def test_unreachable_key(self):
        p = self.fresh()
        gid = self._first_keyed_group(p)
        # Re-home a stored key to a vertex id whose hash chain cannot
        # reach this group.
        for v in range(1000, 2000):
            home = default_hash(v, p.num_groups)
            if home != gid and p._locate(np.array([v]))[1][0] < 0:
                # ensure home's chain does not include gid
                chain = set()
                cur = home
                while cur != -1 and cur not in chain:
                    chain.add(cur)
                    cur = int(p.groups[cur, p.gpn - 1, 0])
                if gid not in chain:
                    p.groups[gid, 0, 0] = v
                    break
        else:
            raise AssertionError("no suitable re-homed vertex found")
        assert any("unreachable" in msg for msg in p.validate())

    def test_end_before_last_offset(self):
        p = self.fresh()
        gid = self._first_keyed_group(p)
        p.groups[gid, p.gpn - 1, 1] = int(p.groups[gid, 0, 1]) - 1
        probs = p.validate()
        assert probs  # reported as out-of-range END or offset beyond END


class TestEdgeCases:
    """Boundary structures: empty partitions, over-wide rows, one label."""

    def test_empty_partition(self):
        # A partition with no vertices at all still builds one (empty)
        # group and answers lookups with empty neighbor sets.
        p = PCSRPartition(EdgeLabelPartition(0, {}), gpn=16)
        assert p.num_groups == 1
        assert len(p.ci) == 0
        assert list(p.neighbors(0)) == []
        assert list(p.neighbors(123)) == []
        assert p.gather(np.array([0])).locate.tolist() == [1]
        assert p.load_factor() == 0.0
        assert p.validate() == []

    def test_edgeless_graph_storage(self):
        g = LabeledGraph([0, 1, 2], [])
        store = PCSRStorage(g)
        assert store.space_words() == 0
        for v in range(3):
            assert list(store.neighbors(v, 0)) == []
        assert store.gather(np.array([0]), 0).locate.tolist() == [0]

    @pytest.mark.parametrize("gpn", [2, 4, 16])
    def test_vertex_degree_exceeds_one_group_row(self, gpn):
        # A hub with degree 50 overflows any group row (capacity
        # GPN - 1 <= 15 keys); its neighbor list must still come back
        # whole from the ci layer, and the overflow chains must verify.
        hub_edges = [(0, v, 0) for v in range(1, 51)]
        g = LabeledGraph([0] * 51, hub_edges)
        part = partition_by_edge_label(g)[0]
        p = PCSRPartition(part, gpn=gpn)
        assert sorted(int(x) for x in p.neighbors(0)) == list(range(1, 51))
        for v in range(1, 51):
            assert list(p.neighbors(v)) == [0]
        assert p.validate() == []
        # Degree > slots per group also means the ci extent of the hub
        # spans more than one group's worth of entries.
        assert len(p.neighbors(0)) > gpn - 1

    def test_single_label_graph_matches_oracle(self):
        # One vertex label, one edge label: signatures degenerate and
        # every vertex is a candidate for every query vertex; PCSR and
        # the engine must still agree with brute force.
        g = scale_free_graph(40, 3, 1, 1, seed=3)
        assert g.distinct_vertex_labels() == [0]
        assert g.distinct_edge_labels() == [0]
        store = PCSRStorage(g)
        for v in range(g.num_vertices):
            expect = sorted(int(x) for x in g.neighbors_by_label(v, 0))
            assert sorted(int(x) for x in store.neighbors(v, 0)) == expect
        q = triangle_query()
        result = GSIEngine(g).match(q)
        assert result.match_set() == brute_force_matches(q, g)
