"""Tests for CSR / Basic / Compressed storage structures (Table II)."""

import math

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph.generators import scale_free_graph
from repro.storage import (
    BasicRepresentation,
    CompressedRepresentation,
    CSRStorage,
    build_storage,
    storage_kinds,
)


@pytest.fixture(scope="module")
def graph():
    return scale_free_graph(200, 3, 5, 6, seed=3)


class TestFactory:
    def test_kinds(self):
        assert storage_kinds() == ["csr", "basic", "compressed", "pcsr"]

    def test_unknown_kind(self, graph):
        with pytest.raises(StorageError):
            build_storage("btree", graph)

    @pytest.mark.parametrize("kind", ["csr", "basic", "compressed", "pcsr"])
    def test_builds(self, graph, kind):
        s = build_storage(kind, graph)
        assert s.kind == {"csr": "csr", "basic": "basic",
                          "compressed": "compressed", "pcsr": "pcsr"}[kind]


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("kind", ["csr", "basic", "compressed", "pcsr"])
    def test_matches_graph_adjacency(self, graph, kind):
        s = build_storage(kind, graph)
        for v in range(0, graph.num_vertices, 13):
            for lab in graph.distinct_edge_labels():
                expect = sorted(int(x)
                                for x in graph.neighbors_by_label(v, lab))
                got = sorted(int(x) for x in s.neighbors(v, lab))
                assert got == expect, (kind, v, lab)

    @pytest.mark.parametrize("kind", ["csr", "basic", "compressed", "pcsr"])
    def test_missing_label_empty(self, graph, kind):
        s = build_storage(kind, graph)
        assert len(s.neighbors(0, 10_000)) == 0


def gather_one(store, v, label):
    """The gather of one vertex, as ``(locate, read, streamed)``."""
    got = store.gather(np.array([v], dtype=np.int64), label)
    return int(got.locate[0]), int(got.read[0]), int(got.streamed[0])


class TestCSR:
    def test_locate_is_one_transaction(self, graph):
        s = CSRStorage(graph)
        assert gather_one(s, 0, 0)[0] == 1

    def test_read_scans_whole_neighborhood(self, graph):
        s = CSRStorage(graph)
        v = max(range(graph.num_vertices), key=graph.degree)
        expected = 2 * math.ceil(graph.degree(v) / 32)
        assert gather_one(s, v, 0)[1] == expected

    def test_streamed_is_degree(self, graph):
        s = CSRStorage(graph)
        assert gather_one(s, 5, 0)[2] == graph.degree(5)

    def test_space_linear_in_edges(self, graph):
        s = CSRStorage(graph)
        assert s.space_words() == (graph.num_vertices + 1
                                   + 4 * graph.num_edges)


class TestBasicRepresentation:
    def test_locate_o1(self, graph):
        s = BasicRepresentation(graph)
        lab = graph.distinct_edge_labels()[0]
        assert gather_one(s, 0, lab)[0] == 1

    def test_space_includes_per_label_offsets(self, graph):
        s = BasicRepresentation(graph)
        num_labels = len(graph.distinct_edge_labels())
        # offsets alone: (|V|+1) words per label.
        assert s.space_words() >= num_labels * (graph.num_vertices + 1)

    def test_read_is_list_only(self, graph):
        s = BasicRepresentation(graph)
        lab = graph.distinct_edge_labels()[0]
        v = int(graph.num_vertices // 2)
        n = len(graph.neighbors_by_label(v, lab))
        assert gather_one(s, v, lab)[1:] == (math.ceil(n / 32), n)


class TestCompressedRepresentation:
    def test_locate_is_logarithmic(self, graph):
        s = CompressedRepresentation(graph)
        lab = graph.distinct_edge_labels()[0]
        tx = gather_one(s, 0, lab)[0]
        part_sizes = [len(np.unique(np.concatenate(
            [[u, v] for u, v, l in graph.edges() if l == lab])))]
        expect = math.ceil(math.log2(part_sizes[0] + 1)) + 2
        assert tx == expect

    def test_space_linear(self, graph):
        s = CompressedRepresentation(graph)
        # vertex-id + offsets + ci: all O(|E|)-bounded per label.
        assert s.space_words() < 8 * graph.num_edges + 4 * graph.num_vertices


class TestTable2Ordering:
    """The Table II relationships between the four structures."""

    def test_pcsr_locate_beats_compressed(self, graph):
        pcsr = build_storage("pcsr", graph)
        cr = build_storage("compressed", graph)
        lab = graph.distinct_edge_labels()[0]
        hub = max(range(graph.num_vertices), key=graph.degree)
        assert gather_one(pcsr, hub, lab)[0] <= gather_one(cr, hub, lab)[0]

    def test_pcsr_read_beats_csr_on_hub(self, graph):
        pcsr = build_storage("pcsr", graph)
        csr = build_storage("csr", graph)
        lab = graph.distinct_edge_labels()[0]
        hub = max(range(graph.num_vertices), key=graph.degree)
        assert sum(gather_one(pcsr, hub, lab)[:2]) \
            <= sum(gather_one(csr, hub, lab)[:2])

    def test_basic_space_blows_up_with_many_labels(self):
        # BR's O(|E| + |LE| x |V|) term is what makes it unscalable on
        # label-rich graphs like DBpedia (Section IV).
        rich = scale_free_graph(300, 3, 5, 80, seed=9)
        br = build_storage("basic", rich)
        cr = build_storage("compressed", rich)
        csr = build_storage("csr", rich)
        assert br.space_words() > 3 * cr.space_words()
        assert br.space_words() > 3 * csr.space_words()


class TestMeteredLookup:
    def test_lookup_without_meter(self, graph):
        """The unmetered one-vertex read is ``neighbors``, derived from
        a one-vertex gather."""
        s = build_storage("csr", graph)
        arr = s.neighbors(0, 0)
        assert isinstance(arr, np.ndarray)
        assert arr.tolist() == sorted(graph.neighbors_by_label(0, 0))
        assert arr.tolist() == s.gather(
            np.array([0], dtype=np.int64), 0).concat.tolist()
