"""Property tests for the O(changes) CSR patch path.

``LabeledGraph.apply_changes`` must be *indistinguishable* from a
from-scratch rebuild — not just equal edge sets, but identical CSR
arrays, edge maps and label-frequency tables — on arbitrary change
sets: random graphs, empty deltas, delete-everything, relabels,
duplicate-edge errors, and new-vertex growth.  A spliced snapshot
shares its parent's base edge map; on chains of commits, every
snapshot's edge reads must equal a whole-map copy-and-splice model.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import labeled_graph
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import GraphBuilder, LabeledGraph


def edge_dict(graph: LabeledGraph):
    return {(u, v): lab for u, v, lab in graph.edges()}


def assert_identical(patched: LabeledGraph, rebuilt: LabeledGraph):
    assert np.array_equal(patched.vertex_labels, rebuilt.vertex_labels)
    assert np.array_equal(patched._offsets, rebuilt._offsets)
    assert np.array_equal(patched._nbr, rebuilt._nbr)
    assert np.array_equal(patched._elab, rebuilt._elab)
    assert edge_dict(patched) == edge_dict(rebuilt)
    assert patched.num_edges == rebuilt.num_edges
    assert patched._edge_label_freq == rebuilt._edge_label_freq


def random_change_set(graph: LabeledGraph, rng: np.random.Generator):
    """A random valid (inserted, deleted, new_vertex_labels) triple plus
    the resulting ground-truth edge dict."""
    edges = {(u, v): lab for u, v, lab in graph.edges()}
    keys = sorted(edges)
    rng.shuffle(keys)
    num_del = int(rng.integers(0, len(keys) + 1))
    deleted = [(u, v, edges[(u, v)]) for u, v in keys[:num_del]]
    surviving = dict(edges)
    for u, v, _ in deleted:
        del surviving[(u, v)]
    new_labels = [int(x) for x in
                  rng.integers(0, 4, size=int(rng.integers(0, 4)))]
    n = graph.num_vertices + len(new_labels)
    inserted = []
    for _ in range(int(rng.integers(0, 12))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        key = (min(u, v), max(u, v))
        if u == v or key in surviving:
            continue
        lab = int(rng.integers(4))
        inserted.append((key[0], key[1], lab))
        surviving[key] = lab
    return inserted, deleted, new_labels, surviving


class TestPatchEqualsRebuild:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 20))
    def test_random_change_sets(self, seed):
        rng = np.random.default_rng(seed)
        graph = scale_free_graph(int(rng.integers(2, 40)), 3, 3, 3,
                                 seed=seed)
        inserted, deleted, new_labels, surviving = \
            random_change_set(graph, rng)
        patched, stats = graph.apply_changes(inserted, deleted,
                                             new_labels)
        vlabels = [int(x) for x in graph.vertex_labels] + new_labels
        rebuilt = LabeledGraph(vlabels, [
            (u, v, lab) for (u, v), lab in surviving.items()])
        assert_identical(patched, rebuilt)
        if inserted or deleted or new_labels:
            touched = {x for e in inserted for x in e[:2]}
            touched |= {x for e in deleted for x in e[:2]}
            touched |= set(range(graph.num_vertices, len(vlabels)))
            assert stats.rows_spliced == len(touched)

    def test_empty_delta_returns_self(self):
        graph = scale_free_graph(12, 3, 3, 3, seed=5)
        patched, stats = graph.apply_changes([], [])
        assert patched is graph
        assert stats.rows_spliced == 0
        assert stats.touched_words == 0

    def test_delete_everything(self):
        graph = scale_free_graph(15, 3, 3, 3, seed=6)
        deleted = list(graph.edges())
        patched, stats = graph.apply_changes([], deleted)
        assert patched.num_edges == 0
        assert patched.num_vertices == graph.num_vertices
        assert_identical(patched, LabeledGraph(graph.vertex_labels, []))
        assert stats.words_written == 0
        assert stats.words_read == 2 * len(deleted)

    def test_insert_into_edgeless_graph(self):
        graph = LabeledGraph([0, 1, 0, 1], [])
        patched, _ = graph.apply_changes([(0, 1, 7), (2, 3, 7)], [])
        assert_identical(patched,
                         LabeledGraph([0, 1, 0, 1],
                                      [(0, 1, 7), (2, 3, 7)]))

    def test_relabel_is_delete_plus_insert(self):
        b = GraphBuilder()
        b.add_vertices([0, 0, 0])
        b.add_edge(0, 1, 1)
        b.add_edge(1, 2, 1)
        graph = b.build()
        patched, _ = graph.apply_changes([(0, 1, 9)], [(0, 1, 1)])
        assert patched.edge_label(0, 1) == 9
        assert patched.edge_label_frequency(1) == 1
        assert patched.edge_label_frequency(9) == 1
        assert_identical(patched, LabeledGraph([0, 0, 0],
                                               [(0, 1, 9), (1, 2, 1)]))

    def test_new_vertices_with_and_without_edges(self):
        graph = LabeledGraph([3], [])
        patched, stats = graph.apply_changes(
            [(0, 1, 2)], [], new_vertex_labels=[4, 5])
        assert patched.num_vertices == 3
        assert patched.vertex_label(2) == 5
        assert patched.degree(2) == 0
        assert_identical(patched, LabeledGraph([3, 4, 5], [(0, 1, 2)]))
        # The isolated newcomer still counts as a spliced (empty) row.
        assert stats.rows_spliced == 3

    def test_chained_patches_compose(self):
        graph = scale_free_graph(20, 3, 3, 3, seed=9)
        g1, _ = graph.apply_changes([], list(graph.edges())[:5])
        g2, _ = g1.apply_changes([(0, 19, 2)], [])
        edges = {(u, v): lab for u, v, lab in graph.edges()}
        for u, v, _lab in list(graph.edges())[:5]:
            del edges[(u, v)]
        edges[(0, 19)] = 2
        rebuilt = LabeledGraph(graph.vertex_labels, [
            (u, v, lab) for (u, v), lab in edges.items()])
        assert_identical(g2, rebuilt)


class TestPatchValidation:
    @pytest.fixture
    def graph(self):
        b = GraphBuilder()
        b.add_vertices([0, 1, 2])
        b.add_edge(0, 1, 4)
        return b.build()

    def test_duplicate_insert_rejected(self, graph):
        with pytest.raises(GraphError, match="inserted twice"):
            graph.apply_changes([(1, 2, 0), (2, 1, 1)], [])

    def test_insert_existing_edge_rejected(self, graph):
        with pytest.raises(GraphError, match="already exists"):
            graph.apply_changes([(0, 1, 4)], [])

    def test_delete_missing_edge_rejected(self, graph):
        with pytest.raises(GraphError, match="no edge"):
            graph.apply_changes([], [(1, 2, 4)])

    def test_delete_wrong_label_rejected(self, graph):
        with pytest.raises(GraphError, match="carries label"):
            graph.apply_changes([], [(0, 1, 9)])

    def test_double_delete_rejected(self, graph):
        with pytest.raises(GraphError, match="deleted twice"):
            graph.apply_changes([], [(0, 1, 4), (1, 0, 4)])

    def test_self_loop_rejected(self, graph):
        with pytest.raises(GraphError, match="self loop"):
            graph.apply_changes([(2, 2, 0)], [])

    def test_out_of_range_endpoint_rejected(self, graph):
        with pytest.raises(GraphError, match="missing vertex"):
            graph.apply_changes([(0, 7, 0)], [])

    def test_relabel_same_pair_valid(self, graph):
        # Deleting and re-inserting the same pair in one change set is
        # the supported relabel form, not a duplicate.
        patched, _ = graph.apply_changes([(0, 1, 8)], [(0, 1, 4)])
        assert patched.edge_label(0, 1) == 8

    def test_failed_validation_leaves_graph_untouched(self, graph):
        before = list(graph.edges())
        with pytest.raises(GraphError):
            graph.apply_changes([(1, 2, 0)], [(0, 1, 9)])
        assert list(graph.edges()) == before
        assert graph.edge_label(0, 1) == 4


def random_commit(model, num_vertices: int, rng: np.random.Generator):
    """A random valid change set against ``model`` (deletes, relabels,
    inserts over a small vertex range so deleted pairs come back, and
    new vertices)."""
    keys = list(model)
    rng.shuffle(keys)
    cut = int(rng.integers(0, min(len(keys), 4) + 1))
    relabel = int(rng.integers(0, cut + 1))
    deleted = [(u, v, model[(u, v)]) for u, v in keys[:cut]]
    inserted = [(u, v, model[(u, v)] + 1) for u, v in keys[:relabel]]
    taken = set(model)
    new_labels = [0] * int(rng.integers(0, 2))
    n = num_vertices + len(new_labels)
    for _ in range(int(rng.integers(0, 5))):
        u, v = sorted(int(x) for x in rng.integers(n, size=2))
        if u != v and (u, v) not in taken:
            taken.add((u, v))
            inserted.append((u, v, int(rng.integers(3))))
    return inserted, deleted, new_labels


def assert_reads_like(graph: LabeledGraph, model) -> None:
    """Every edge read of ``graph`` equals the dict ``model``."""
    assert list(graph.edges()) == [(u, v, lab)
                                   for (u, v), lab in model.items()]
    assert graph.num_edges == len(model)
    n = graph.num_vertices
    for u in range(n):
        for v in range(u + 1, n):
            want = model.get((u, v))
            assert graph.get_edge_label(v, u) == want
            assert graph.has_edge(u, v) == (want is not None)
            if want is None:
                with pytest.raises(GraphError, match="no edge"):
                    graph.edge_label(u, v)
            else:
                assert graph.edge_label(v, u) == want


class TestSharedEdgeMap:
    @pytest.mark.parametrize("fold", [1, 3, labeled_graph.EDGE_CHANGES_FOLD])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 20))
    def test_commit_chains_read_like_a_copied_map(self, fold, seed):
        rng = np.random.default_rng(seed)
        graph = scale_free_graph(int(rng.integers(4, 10)), 2, 2, 3,
                                 seed=seed)
        model = {(u, v): lab for u, v, lab in graph.edges()}
        chain = [(graph, model)]
        with mock.patch.object(labeled_graph, "EDGE_CHANGES_FOLD", fold):
            for _ in range(8):
                inserted, deleted, new_labels = random_commit(
                    model, graph.num_vertices, rng)
                graph, _ = graph.apply_changes(inserted, deleted,
                                               new_labels)
                # The whole-map copy-and-splice every snapshot stands for.
                model = dict(model)
                for u, v, _lab in deleted:
                    del model[(u, v)]
                for u, v, lab in inserted:
                    model[(u, v)] = lab
                chain.append((graph, model))
                # Earlier snapshots still read as they did.
                for snapshot, want in chain:
                    assert_reads_like(snapshot, want)

    def test_snapshots_share_the_base_map_until_a_fold(self):
        graph = LabeledGraph([0] * 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        one, _ = graph.apply_changes([(0, 2, 5)], [(1, 2, 1)])
        assert one._edge_map is graph._edge_map
        assert one._edge_changes == {(1, 2): None, (0, 2): 5}
        with mock.patch.object(labeled_graph, "EDGE_CHANGES_FOLD", 2):
            two, _ = one.apply_changes([(1, 3, 7)], [])
        assert two._edge_map is not graph._edge_map
        assert two._edge_changes == {}
        assert list(two.edges()) == [(0, 1, 1), (2, 3, 1), (0, 2, 5),
                                     (1, 3, 7)]
        assert list(graph.edges()) == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
