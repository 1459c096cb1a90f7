"""Tests for .npz persistence of graphs and signature tables."""

import numpy as np
import pytest

from repro import GSIEngine, random_walk_query
from repro.core.signature_table import SignatureTable
from repro.errors import GraphError
from repro.graph.generators import (
    mesh_graph,
    rdf_like_graph,
    scale_free_graph,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.persistence import (
    load_graph_npz,
    load_signature_table,
    save_graph_npz,
    save_signature_table,
)


class TestGraphRoundTrip:
    def test_round_trip(self, medium_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_graph_npz(medium_graph, path)
        loaded = load_graph_npz(path)
        assert loaded.num_vertices == medium_graph.num_vertices
        assert set(loaded.edges()) == set(medium_graph.edges())
        assert list(loaded.vertex_labels) \
            == list(medium_graph.vertex_labels)

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "e.npz"
        save_graph_npz(LabeledGraph([], []), path)
        assert load_graph_npz(path).num_vertices == 0

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, version=np.int64(999),
                            vertex_labels=np.zeros(1, dtype=np.int64),
                            edges=np.empty((0, 3), dtype=np.int64))
        with pytest.raises(GraphError):
            load_graph_npz(path)

    def test_loaded_graph_queryable(self, medium_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_graph_npz(medium_graph, path)
        loaded = load_graph_npz(path)
        q = random_walk_query(medium_graph, 4, seed=1)
        a = GSIEngine(medium_graph).match(q).match_set()
        b = GSIEngine(loaded).match(q).match_set()
        assert a == b


class TestGeneratedGraphRoundTrips:
    """Round-trips across the generator zoo, including degenerate
    shapes (empty, edgeless, single-label)."""

    def _assert_round_trip(self, graph, path):
        save_graph_npz(graph, path)
        loaded = load_graph_npz(path)
        assert loaded.num_vertices == graph.num_vertices
        assert loaded.num_edges == graph.num_edges
        assert list(loaded.vertex_labels) == list(graph.vertex_labels)
        assert sorted(loaded.edges()) == sorted(graph.edges())
        return loaded

    @pytest.mark.parametrize("maker", [
        lambda: scale_free_graph(60, 3, 4, 5, seed=1),
        lambda: rdf_like_graph(50, 120, 3, 6, seed=2),
        lambda: mesh_graph(6, 7, 3, 2, seed=3),
    ], ids=["scale_free", "rdf_like", "mesh"])
    def test_generated_graphs(self, maker, tmp_path):
        self._assert_round_trip(maker(), tmp_path / "g.npz")

    def test_empty_graph_full_equality(self, tmp_path):
        loaded = self._assert_round_trip(LabeledGraph([], []),
                                         tmp_path / "empty.npz")
        assert loaded.num_vertices == 0
        assert list(loaded.edges()) == []

    def test_edgeless_graph(self, tmp_path):
        g = LabeledGraph([3, 1, 4, 1, 5], [])
        loaded = self._assert_round_trip(g, tmp_path / "edgeless.npz")
        assert loaded.degree(0) == 0

    def test_single_label_graph(self, tmp_path):
        g = scale_free_graph(40, 3, 1, 1, seed=3)
        assert g.distinct_vertex_labels() == [0]
        assert g.distinct_edge_labels() == [0]
        loaded = self._assert_round_trip(g, tmp_path / "single.npz")
        assert loaded.distinct_vertex_labels() == [0]
        assert loaded.distinct_edge_labels() == [0]
        assert loaded.edge_label_frequency(0) == g.num_edges

    def test_adjacency_preserved_exactly(self, tmp_path):
        g = scale_free_graph(30, 3, 3, 4, seed=9)
        loaded = self._assert_round_trip(g, tmp_path / "adj.npz")
        for v in range(g.num_vertices):
            for lab in g.distinct_edge_labels():
                assert np.array_equal(loaded.neighbors_by_label(v, lab),
                                      g.neighbors_by_label(v, lab))


class TestSignatureTableRoundTrip:
    def test_round_trip(self, medium_graph, tmp_path):
        table = SignatureTable.build(medium_graph, 256)
        path = tmp_path / "sig.npz"
        save_signature_table(table, path)
        loaded = load_signature_table(path)
        assert np.array_equal(loaded.table, table.table)
        assert loaded.column_first == table.column_first

    def test_layout_preserved(self, medium_graph, tmp_path):
        table = SignatureTable.build(medium_graph, 128,
                                     column_first=False)
        path = tmp_path / "sig.npz"
        save_signature_table(table, path)
        assert load_signature_table(path).column_first is False

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, version=np.int64(42),
                            table=np.zeros((1, 4), dtype=np.uint32),
                            column_first=np.bool_(True))
        with pytest.raises(GraphError):
            load_signature_table(path)

    def test_loaded_table_filters_identically(self, medium_graph,
                                              tmp_path):
        from repro.core.signature import encode_vertex

        table = SignatureTable.build(medium_graph, 256)
        path = tmp_path / "sig.npz"
        save_signature_table(table, path)
        loaded = load_signature_table(path)
        q = random_walk_query(medium_graph, 4, seed=2)
        for u in range(4):
            sig = encode_vertex(q, u, 256)
            cost, cand = table.scan(sig)
            loaded_cost, loaded_cand = loaded.scan(sig)
            assert loaded_cost == cost
            assert np.array_equal(loaded_cand, cand)
