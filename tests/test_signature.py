"""Tests for vertex signature encoding (Section III-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import (
    encode_all,
    encode_rows,
    encode_vertex,
    num_groups,
    num_words,
    pack_tail,
)
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph

from oracle import brute_force_matches, candidate_mask, is_candidate


class TestLayout:
    def test_num_words(self):
        assert num_words(512) == 16
        assert num_words(64) == 2

    def test_num_groups(self):
        assert num_groups(512) == 240
        assert num_groups(64) == 16

    def test_word0_is_raw_label(self):
        g = LabeledGraph([1234567], [])
        sig = encode_vertex(g, 0, 512)
        assert int(sig[0]) == 1234567

    def test_isolated_vertex_tail_empty(self):
        g = LabeledGraph([5], [])
        sig = encode_vertex(g, 0, 512)
        assert not np.any(sig[1:])


class TestGroupStates:
    def test_single_pair_sets_01(self):
        g = LabeledGraph([0, 7], [(0, 1, 3)])
        sig = encode_vertex(g, 0, 512)
        tail = sig[1:]
        # Exactly one group set, to state 01.
        bits = np.unpackbits(tail.view(np.uint8))
        assert bits.sum() == 1

    def test_duplicate_pairs_set_11(self):
        # Two neighbors with identical (edge label, vertex label) pairs.
        g = LabeledGraph([0, 7, 7], [(0, 1, 3), (0, 2, 3)])
        sig = encode_vertex(g, 0, 512)
        bits = np.unpackbits(sig[1:].view(np.uint8))
        assert bits.sum() == 2  # the "11" state

    def test_distinct_pairs_two_groups(self):
        g = LabeledGraph([0, 7, 8], [(0, 1, 3), (0, 2, 3)])
        sig = encode_vertex(g, 0, 512)
        bits = np.unpackbits(sig[1:].view(np.uint8))
        # Two distinct keys: 2 bits if no hash collision, 2 if collided
        # into "11"; either way exactly two bits.
        assert bits.sum() == 2


def stacked_rows(graph, vertices, bits):
    """The scalar definition, one :func:`encode_vertex` row at a time."""
    words = num_words(bits)
    rows = [encode_vertex(graph, int(v), bits) for v in vertices]
    return (np.stack(rows) if rows
            else np.zeros((0, words), dtype=np.uint32))


class TestEncodeRows:
    """The one-pass bulk encoder equals the scalar definition byte for
    byte."""

    WIDTHS = [32, 64, 128, 256, 512, 1024]

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_stacked_encode_vertex(self, bits, seed):
        g = scale_free_graph(150, 3, 2 + seed, 1 + 2 * seed, seed=seed)
        everyone = range(g.num_vertices)
        want = stacked_rows(g, everyone, bits)
        got = encode_rows(g, list(everyone), bits)
        assert got.dtype == np.uint32
        assert got.tobytes() == want.tobytes()
        assert encode_all(g, bits).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_subset_in_caller_order(self, bits):
        g = scale_free_graph(80, 3, 3, 3, seed=9)
        picked = [41, 3, 3, 79, 0, 17]
        assert (encode_rows(g, picked, bits).tobytes()
                == stacked_rows(g, picked, bits).tobytes())

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_isolated_and_repeated_pairs(self, bits):
        # Vertex 0 carries two identical (3, label 7) pairs (state 11)
        # plus a distinct one; vertices 4 and 5 are isolated.
        g = LabeledGraph([0, 7, 7, 8, 2, 2**40 + 5],
                         [(0, 1, 3), (0, 2, 3), (0, 3, 4)])
        want = stacked_rows(g, range(6), bits)
        got = encode_rows(g, list(range(6)), bits)
        assert got.tobytes() == want.tobytes()
        assert not got[4:, 1:].any()
        if bits > 32:
            tail = np.unpackbits(got[0, 1:].view(np.uint8))
            # an 11 plus an 01; a single 11 if the two groups collide
            assert tail.sum() in (2, 3)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_large_labels_hash_like_python_ints(self, bits):
        # edge label * _PAIR_MIX overflows int64; the low 32 bits the
        # hash keeps must still equal the Python-int computation.
        g = LabeledGraph([3, 2**40 + 5, -7, 9],
                         [(0, 1, 2**50), (0, 2, 2**62 + 1), (2, 3, 1)])
        want = stacked_rows(g, range(4), bits)
        assert encode_rows(g, list(range(4)), bits).tobytes() == \
            want.tobytes()

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_empty_vertex_list(self, bits):
        g = scale_free_graph(20, 2, 2, 2, seed=1)
        got = encode_rows(g, [], bits)
        assert got.shape == (0, num_words(bits))
        assert got.dtype == np.uint32

    def test_no_pair_groups_at_32_bits(self):
        g = LabeledGraph([4, 5], [(0, 1, 1)])
        assert num_groups(32) == 0
        assert encode_rows(g, [0, 1], 32).tolist() == [[4], [5]]


class TestCandidateRule:
    def test_label_mismatch_rejected(self):
        g = LabeledGraph([1, 2], [])
        s0 = encode_vertex(g, 0, 512)
        s1 = encode_vertex(g, 1, 512)
        assert not is_candidate(s0, s1)

    def test_identical_signature_accepted(self):
        g = LabeledGraph([1, 1], [])
        s0 = encode_vertex(g, 0, 512)
        assert is_candidate(s0, s0)

    def test_superset_neighborhood_accepted(self):
        # data vertex has strictly more structure than the query vertex
        data = LabeledGraph([0, 7, 8], [(0, 1, 3), (0, 2, 4)])
        query = LabeledGraph([0, 7], [(0, 1, 3)])
        sv = encode_vertex(data, 0, 512)
        su = encode_vertex(query, 0, 512)
        assert is_candidate(sv, su)

    def test_missing_structure_rejected(self):
        data = LabeledGraph([0, 7], [(0, 1, 3)])
        query = LabeledGraph([0, 7, 8], [(0, 1, 3), (0, 2, 4)])
        sv = encode_vertex(data, 0, 512)
        su = encode_vertex(query, 0, 512)
        assert not is_candidate(sv, su)

    def test_multiplicity_pruning(self):
        # Query vertex needs TWO (3, 7) pairs; data vertex has one.
        query = LabeledGraph([0, 7, 7], [(0, 1, 3), (0, 2, 3)])
        data = LabeledGraph([0, 7], [(0, 1, 3)])
        su = encode_vertex(query, 0, 512)
        sv = encode_vertex(data, 0, 512)
        assert not is_candidate(sv, su)


class TestPackedTail:
    def test_word_i_lands_at_bit_32_times_i_minus_1(self):
        sig = np.array([9, 1, 0, 0x80000002], dtype=np.uint32)
        assert pack_tail(sig) == 1 + (0x80000002 << 64)

    def test_label_only_signature_packs_to_zero(self):
        assert pack_tail(np.array([7], dtype=np.uint32)) == 0


@st.composite
def _signature_pair(draw):
    """``(S(v), S(u))`` rows at 64-512 bits: labels equal, unequal or
    containing each other's bits; tails empty, sparse (a few two-bit
    group states) or dense; ``S(v)``'s tail often a superset of
    ``S(u)``'s so that containment holds as often as it fails."""
    words = num_words(draw(st.sampled_from([64, 128, 256, 512])))

    def tail():
        kind = draw(st.sampled_from(["empty", "sparse", "dense"]))
        if kind == "empty":
            return [0] * (words - 1)
        if kind == "dense":
            return draw(st.lists(st.integers(0, 0xFFFFFFFF),
                                 min_size=words - 1, max_size=words - 1))
        state = st.builds(lambda s, g: s << (2 * g),
                          st.sampled_from([0b01, 0b11]), st.integers(0, 15))
        return draw(st.lists(st.one_of(st.just(0), state),
                             min_size=words - 1, max_size=words - 1))

    label_v, label_u = draw(st.one_of(
        st.sampled_from([(1, 1), (1, 3), (3, 1), (0, 0), (2, 6)]),
        st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF))))
    tail_u, tail_v = tail(), tail()
    if draw(st.booleans()):
        tail_v = [a | b for a, b in zip(tail_u, tail_v)]
    return (np.array([label_v] + tail_v, dtype=np.uint32),
            np.array([label_u] + tail_u, dtype=np.uint32))


@settings(max_examples=300, deadline=None)
@given(pair=_signature_pair())
def test_packed_containment_equals_is_candidate(pair):
    sig_v, sig_u = pair
    packed_u = pack_tail(sig_u)
    passes = (int(sig_v[0]) == int(sig_u[0])
              and pack_tail(sig_v) & packed_u == packed_u)
    assert passes == is_candidate(sig_v, sig_u)


class TestVectorizedMask:
    def test_mask_agrees_with_scalar(self):
        g = scale_free_graph(120, 3, 4, 4, seed=2)
        table = encode_all(g, 256)
        q = random_walk_query(g, 4, seed=1)
        su = encode_vertex(q, 0, 256)
        mask = candidate_mask(table, su)
        for v in range(g.num_vertices):
            assert mask[v] == is_candidate(table[v], su)


class TestSoundness:
    """The filter must never prune a true match (necessity of the rule)."""

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_all_true_matches_pass(self, bits):
        g = scale_free_graph(100, 3, 3, 3, seed=6)
        table = encode_all(g, bits)
        for seed in range(4):
            q = random_walk_query(g, 4, seed=seed)
            matches = brute_force_matches(q, g)
            for match in matches:
                for u, v in enumerate(match):
                    su = encode_vertex(q, u, bits)
                    assert is_candidate(table[v], su), (bits, u, v)

    def test_longer_signatures_prune_no_less(self):
        g = scale_free_graph(300, 4, 5, 8, seed=8)
        q = random_walk_query(g, 6, seed=3)
        sizes = []
        for bits in (64, 256, 512):
            table = encode_all(g, bits)
            total = 0
            for u in range(q.num_vertices):
                su = encode_vertex(q, u, bits)
                total += int(candidate_mask(table, su).sum())
            sizes.append(total)
        # Pruning power should not get worse as N grows (Table V trend).
        assert sizes[0] >= sizes[1] >= sizes[2]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), bits=st.sampled_from([64, 128, 512]))
def test_property_signature_soundness(seed, bits):
    g = scale_free_graph(60, 2, 3, 2, seed=seed % 7)
    q = random_walk_query(g, 3, seed=seed)
    table = encode_all(g, bits)
    for match in brute_force_matches(q, g):
        for u, v in enumerate(match):
            su = encode_vertex(q, u, bits)
            assert is_candidate(table[v], su)
