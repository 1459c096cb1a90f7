"""Tests for the dynamic-graph overlay (GraphDelta + DynamicGraph)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicGraph, GraphDelta, random_update_stream
from repro.errors import GraphError
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import GraphBuilder, LabeledGraph


def small_graph():
    b = GraphBuilder()
    b.add_vertices([0, 1, 0, 1])
    b.add_edge(0, 1, 5)
    b.add_edge(1, 2, 5)
    b.add_edge(2, 3, 7)
    return b.build()


class TestDeltaBuilder:
    def test_add_vertex_ids_are_sequential(self):
        d = GraphDelta.for_graph(small_graph())
        assert d.add_vertex(9) == 4
        assert d.add_vertex(9) == 5
        assert len(d) == 2

    def test_for_graph_accepts_count(self):
        d = GraphDelta.for_graph(10)
        assert d.add_vertex(0) == 10

    def test_chaining(self):
        d = GraphDelta.for_graph(4).add_edge(0, 2, 1).remove_edge(0, 1)
        assert d.num_ops == 2


class TestOverlayReads:
    def test_neighbors_through_overlay(self):
        g = DynamicGraph(small_graph())
        g.apply(GraphDelta.for_graph(4).add_edge(0, 3, 5)
                .remove_edge(1, 2))
        assert list(g.neighbors_by_label(0, 5)) == [1, 3]
        assert list(g.neighbors_by_label(1, 5)) == [0]
        assert list(g.neighbors_by_label(2, 7)) == [3]
        assert g.has_edge(0, 3) and not g.has_edge(1, 2)
        assert g.num_edges == 3

    def test_new_vertex_adjacency(self):
        g = DynamicGraph(small_graph())
        d = GraphDelta.for_graph(4)
        v = d.add_vertex(label=0)
        d.add_edge(v, 1, 5)
        g.apply(d)
        assert g.num_vertices == 5
        assert g.vertex_label(v) == 0
        assert list(g.neighbors_by_label(v, 5)) == [1]
        assert list(g.neighbors_by_label(1, 5)) == [0, 2, v]

    def test_edge_label_via_overlay(self):
        g = DynamicGraph(small_graph())
        g.apply(GraphDelta.for_graph(4).remove_edge(2, 3)
                .add_edge(2, 3, 9))
        assert g.edge_label(2, 3) == 9
        assert list(g.neighbors_by_label(2, 7)) == []
        assert list(g.neighbors_by_label(2, 9)) == [3]

    def test_remove_vertex_isolates(self):
        g = DynamicGraph(small_graph())
        g.apply(GraphDelta.for_graph(4).remove_vertex(1))
        assert g.num_vertices == 4  # ids stay dense and stable
        assert list(g.neighbors_by_label(0, 5)) == []
        assert list(g.neighbors_by_label(2, 5)) == []
        assert g.num_edges == 1


class TestApplyValidation:
    def test_missing_endpoint(self):
        g = DynamicGraph(small_graph())
        with pytest.raises(GraphError):
            g.apply(GraphDelta.for_graph(4).add_edge(0, 99, 1))

    def test_self_loop(self):
        g = DynamicGraph(small_graph())
        with pytest.raises(GraphError):
            g.apply(GraphDelta.for_graph(4).add_edge(2, 2, 1))

    def test_duplicate_edge(self):
        g = DynamicGraph(small_graph())
        with pytest.raises(GraphError):
            g.apply(GraphDelta.for_graph(4).add_edge(1, 0, 5))

    def test_remove_missing_edge(self):
        g = DynamicGraph(small_graph())
        with pytest.raises(GraphError):
            g.apply(GraphDelta.for_graph(4).remove_edge(0, 3))

    def test_unknown_op(self):
        g = DynamicGraph(small_graph())
        with pytest.raises(GraphError):
            g.apply(GraphDelta(ops=[("frobnicate", 1)]))


class TestCommit:
    def test_net_change_sets(self):
        g = DynamicGraph(small_graph())
        d = GraphDelta.for_graph(4)
        v = d.add_vertex(1)
        d.add_edge(v, 0, 7)
        d.remove_edge(0, 1)
        g.apply(d)
        commit = g.commit()
        assert commit.inserted_edges == [(0, v, 7)]
        assert commit.deleted_edges == [(0, 1, 5)]
        assert commit.new_vertices == [v]
        assert commit.touched_vertices == {0, 1, v}

    def test_delete_then_readd_same_label_is_net_noop(self):
        g = DynamicGraph(small_graph())
        g.apply(GraphDelta.for_graph(4).remove_edge(0, 1)
                .add_edge(0, 1, 5))
        commit = g.commit()
        assert commit.inserted_edges == []
        assert commit.deleted_edges == []

    def test_relabel_is_delete_plus_insert(self):
        g = DynamicGraph(small_graph())
        g.apply(GraphDelta.for_graph(4).remove_edge(0, 1)
                .add_edge(0, 1, 8))
        commit = g.commit()
        assert commit.deleted_edges == [(0, 1, 5)]
        assert commit.inserted_edges == [(0, 1, 8)]

    def test_add_then_remove_same_window_is_net_noop(self):
        g = DynamicGraph(small_graph())
        g.apply(GraphDelta.for_graph(4).add_edge(0, 3, 2)
                .remove_edge(0, 3))
        commit = g.commit()
        assert commit.inserted_edges == []
        assert commit.deleted_edges == []

    def test_snapshot_matches_overlay(self):
        base = scale_free_graph(40, 3, 3, 3, seed=4)
        g = DynamicGraph(base)
        for delta in random_update_stream(base, 3, 10, seed=5):
            g.apply(delta)
        expected = sorted(g.edges())
        n = g.num_vertices
        labels = [g.vertex_label(v) for v in range(n)]
        commit = g.commit()
        snap = commit.snapshot
        assert sorted(snap.edges()) == expected
        assert [snap.vertex_label(v) for v in range(n)] == labels
        # overlay reset: reads now come straight from the snapshot
        assert g.pending_ops == 0
        for v in range(0, n, 5):
            for lab in snap.distinct_edge_labels():
                assert np.array_equal(g.neighbors_by_label(v, lab),
                                      snap.neighbors_by_label(v, lab))

    def test_commit_composition_over_batches(self):
        base = scale_free_graph(30, 3, 2, 2, seed=8)
        g = DynamicGraph(base)
        live = {(u, v): lab for u, v, lab in base.edges()}
        for delta in random_update_stream(base, 4, 8, seed=9):
            g.apply(delta)
            commit = g.commit()
            for u, v, lab in commit.deleted_edges:
                assert live.pop((u, v)) == lab
            for u, v, lab in commit.inserted_edges:
                assert (u, v) not in live
                live[(u, v)] = lab
            assert {(u, v): lab for u, v, lab
                    in commit.snapshot.edges()} == live


class TestRandomUpdateStream:
    def test_stream_applies_cleanly(self):
        base = scale_free_graph(50, 3, 3, 3, seed=1)
        g = DynamicGraph(base)
        stream = random_update_stream(base, 5, 16, seed=2)
        assert len(stream) == 5
        for delta in stream:
            g.apply(delta)  # raises on any invalid op
        assert g.num_edges > 0

    def test_stream_deterministic(self):
        base = scale_free_graph(50, 3, 3, 3, seed=1)
        a = random_update_stream(base, 3, 8, seed=7)
        b = random_update_stream(base, 3, 8, seed=7)
        assert [d.ops for d in a] == [d.ops for d in b]

    def test_stream_on_empty_graph(self):
        base = LabeledGraph([0], [])
        g = DynamicGraph(base)
        for delta in random_update_stream(base, 2, 4, seed=3):
            g.apply(delta)
        assert g.num_vertices > 1


# ----------------------------------------------------------------------
# The overlay against a plain-dict model
# ----------------------------------------------------------------------

class _Model:
    """The overlay's meaning as plain dicts: vertex labels and a
    ``{(u, v): label}`` edge map with ``u < v``."""

    def __init__(self, graph):
        self.labels = graph.vertex_labels.tolist()
        self.edges = {(u, v): lab for u, v, lab in graph.edges()}

    def apply(self, op) -> bool:
        """Apply one op; ``False`` (and no change) if it is invalid."""
        kind, *args = op
        n = len(self.labels)
        if kind == "add_vertex":
            self.labels.append(args[0])
            return True
        if kind == "remove_vertex":
            if not 0 <= args[0] < n:
                return False
            for key in [k for k in self.edges if args[0] in k]:
                del self.edges[key]
            return True
        u, v = args[:2]
        key = (min(u, v), max(u, v))
        if kind == "remove_edge":
            return self.edges.pop(key, None) is not None
        if not (0 <= u < n and 0 <= v < n) or u == v or key in self.edges:
            return False
        self.edges[key] = args[2]
        return True

    def neighbors(self, v, label):
        return sorted(b if a == v else a for (a, b), lab in self.edges.items()
                      if lab == label and v in (a, b))


def _ops(vertices):
    vertex = st.integers(-1, vertices + 3)
    return st.one_of(
        st.tuples(st.just("add_edge"), vertex, vertex, st.integers(0, 2)),
        st.tuples(st.just("remove_edge"), vertex, vertex),
        st.tuples(st.just("add_vertex"), st.integers(0, 1)),
        st.tuples(st.just("remove_vertex"), vertex),
        st.tuples(st.just("read"), vertex, vertex),
        st.tuples(st.just("commit")))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_overlay_matches_a_dict_model(data):
    """Random edge and vertex ops, one per delta, with reads and commits
    in between: every read through the overlay (its per-vertex view is
    rebuilt on the first read after a mutation) equals the model, and a
    rejected op changes nothing."""
    base = scale_free_graph(10, 2, 2, 3, seed=data.draw(st.integers(0, 3)))
    graph, model = DynamicGraph(base), _Model(base)
    for op in data.draw(st.lists(_ops(base.num_vertices), min_size=20,
                                 max_size=60)):
        kind = op[0]
        if kind == "commit":
            assert sorted(graph.commit().snapshot.edges()) == \
                sorted((u, v, lab) for (u, v), lab in model.edges.items())
        elif kind == "read":
            _, u, v = op
            n = len(model.labels)
            for w in range(n):
                for label in range(3):
                    assert graph.neighbors_by_label(w, label).tolist() == \
                        model.neighbors(w, label)
            key = (min(u, v), max(u, v))
            assert graph.has_edge(u, v) == (key in model.edges)
            if key in model.edges:
                assert graph.edge_label(u, v) == model.edges[key]
            elif 0 <= u < n and 0 <= v < n:
                with pytest.raises(GraphError):
                    graph.edge_label(u, v)
        elif model.apply(op):
            graph.apply(GraphDelta(ops=[op]))
        else:
            with pytest.raises(GraphError):
                graph.apply(GraphDelta(ops=[op]))
        assert graph.num_vertices == len(model.labels)
        assert graph.num_edges == len(model.edges)
        assert sorted(graph.edges()) == \
            sorted((u, v, lab) for (u, v), lab in model.edges.items())
