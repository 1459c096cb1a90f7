"""Tests for edge-label partitioning P(G, l)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import EdgeLabelPartition, partition_by_edge_label

from oracle import reference_of_label


class TestPartition:
    def test_simple_split(self):
        g = LabeledGraph([0] * 4, [(0, 1, 1), (1, 2, 1), (2, 3, 2)])
        parts = partition_by_edge_label(g)
        assert set(parts) == {1, 2}
        p1 = parts[1]
        assert list(p1.vertices) == [0, 1, 2]
        assert list(p1.neighbors(1)) == [0, 2]
        assert list(parts[2].neighbors(3)) == [2]

    def test_missing_vertex_returns_empty(self):
        g = LabeledGraph([0] * 3, [(0, 1, 1)])
        parts = partition_by_edge_label(g)
        assert len(parts[1].neighbors(2)) == 0
        assert not parts[1].has_vertex(2)

    def test_counts(self):
        g = LabeledGraph([0] * 4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        p = partition_by_edge_label(g)[1]
        assert p.num_vertices == 3
        assert p.num_directed_edges == 6

    def test_items_sorted_by_vertex(self):
        g = LabeledGraph([0] * 5, [(4, 1, 0), (3, 0, 0)])
        items = partition_by_edge_label(g)[0].items()
        assert [v for v, _ in items] == [0, 1, 3, 4]

    def test_neighbors_sorted(self):
        g = LabeledGraph([0] * 5, [(0, 4, 1), (0, 2, 1), (0, 3, 1)])
        p = partition_by_edge_label(g)[1]
        assert list(p.neighbors(0)) == [2, 3, 4]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.integers(0, 3)), max_size=50))
def test_property_partitions_cover_graph_exactly(edge_list):
    seen = set()
    dedup = []
    for u, v, l in edge_list:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            dedup.append((u, v, l))
    g = LabeledGraph([0] * 12, dedup)
    parts = partition_by_edge_label(g)
    # Union over partitions == full adjacency, per label.
    for v in range(12):
        for lab in g.distinct_edge_labels():
            expect = sorted(int(x) for x in g.neighbors_by_label(v, lab))
            part = parts.get(lab)
            got = sorted(int(x) for x in part.neighbors(v)) if part else []
            assert got == expect
    # Total directed edges match.
    assert sum(p.num_directed_edges for p in parts.values()) \
        == 2 * g.num_edges


@st.composite
def spliced_graphs(draw):
    """A committed snapshot: a base graph with 1-4 edge labels and
    isolated vertices, spliced with up to 3 new vertices (with and
    without edges), inserts and deletes.  Returns it with its label
    count."""
    n, new = draw(st.integers(1, 10)), draw(st.integers(0, 3))
    labels = draw(st.integers(1, 4))
    total = n + new
    edges = draw(st.lists(st.tuples(
        st.integers(0, total - 1), st.integers(0, total - 1),
        st.integers(0, labels - 1)), max_size=40))
    seen, base, inserted = set(), [], []
    for u, v, lab in edges:
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            (base if max(u, v) < n else inserted).append((u, v, lab))
    deleted = base[:draw(st.integers(0, len(base)))]
    graph = LabeledGraph([0] * n, base)
    return graph.apply_changes(inserted, deleted, [0] * new)[0], labels


@settings(max_examples=80, deadline=None)
@given(spliced_graphs())
def test_property_of_label_equals_whole_incidence_read(drawn):
    """``of_label`` reads one label straight from the CSR; it must
    equal the whole-incidence read for every label, absent ones too."""
    graph, labels = drawn
    for lab in range(-1, labels + 1):
        got = EdgeLabelPartition.of_label(graph, lab)
        want = reference_of_label(graph, lab)
        assert got.label == want.label == lab
        for mine, ref in ((got.vertices, want.vertices),
                          (got.offsets, want.offsets),
                          (got.nbrs, want.nbrs)):
            assert mine.dtype == ref.dtype
            assert np.array_equal(mine, ref)
