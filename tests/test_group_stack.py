"""The stacked PCSR group layer kept in place (``storage/pcsr.py``).

A rebuilt or new label is built straight into its rows of the
:class:`GroupStack`: only the rows of the labels after it shift, and the
buffers grow 1.5x only when their headroom runs out.  A store maintained
in place starts with that headroom; a store built once is exact-size.
Checked here against the re-stack every rebuild once made
(:func:`oracle.restack`) for the first, a middle and the last label, a
shrinking label and new labels, together with the memory the in-place
path saves.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.dynamic.index import DynamicPCSRStorage
from repro.graph.labeled_graph import LabeledGraph
from repro.storage.pcsr import PCSRPartition, PCSRStorage

from oracle import (
    partition_digest,
    reference_of_label,
    restack,
    scalar_chain_length,
    stack_view_problems,
)

#: labels of :func:`path_graph`, each a path over 41 vertices of its own
LABELS = (0, 2, 4, 6)
PATH = 40
#: vertices from here on start isolated: every batch draws fresh keys
FRESH = 400


def path_graph(labels=LABELS, num_vertices=1000) -> LabeledGraph:
    edges = [(50 * i + j, 50 * i + j + 1, lab)
             for i, lab in enumerate(labels) for j in range(PATH)]
    return LabeledGraph([0] * num_vertices, edges)


class Streamer:
    """Batches against one store, each committed to the graph first."""

    def __init__(self, store: DynamicPCSRStorage, graph: LabeledGraph):
        self.store, self.graph, self.fresh = store, graph, FRESH

    def fresh_edges(self, label: int, count: int):
        """``count`` edges between vertices no label holds yet."""
        edges = [(self.fresh + 2 * i, self.fresh + 2 * i + 1, label)
                 for i in range(count)]
        self.fresh += 2 * count
        return edges

    def apply(self, inserted=(), deleted=()) -> None:
        self.graph, _ = self.graph.apply_changes(inserted, deleted)
        self.store.apply_batch(self.graph, inserted, deleted)

    def rebuild(self, label: int, deleted=()) -> None:
        """A batch whose new keys push ``label`` past the occupancy
        bound (1.5 keys per group), so the label is rebuilt."""
        rebuilds = self.store.rebuilds
        self.apply(self.fresh_edges(label, 11), deleted)
        assert self.store.rebuilds == rebuilds + 1


def label_rows(stack):
    """Each label's rows of the four stacked arrays, copied."""
    return {int(lab): tuple(arr[base:base + size].copy()
                            for arr in (stack.groups, stack.region_start,
                                        stack.region_cap,
                                        stack.keys_per_group))
            for lab, base, size in zip(stack.labels, stack.base,
                                       stack.sizes)}


class RowsOf:
    """A part-shaped holder of saved rows, for :func:`oracle.restack`."""

    def __init__(self, rows) -> None:
        (self.groups, self._region_start, self._region_cap,
         self._keys_per_group) = rows


def check_one_label_changed(streamer: Streamer, label: int, step) -> None:
    """Run ``step`` (a batch that rebuilds or adds ``label``) and check
    that only ``label``'s rows changed, to exactly its own Algorithm-1
    build, and that the stack equals a re-stack of its parts."""
    store, gpn = streamer.store, streamer.store.gpn
    before = label_rows(store._stack)
    digests = {lab: partition_digest(p) for lab, p in store._parts.items()
               if lab != label}
    step()
    alone = PCSRPartition(reference_of_label(streamer.graph, label), gpn)
    stack = store._stack
    assert stack_view_problems(stack) == []
    assert stack.labels.tolist() == sorted(store._parts)
    expected = [alone if lab == label else RowsOf(before[lab])
                for lab in stack.labels.tolist()]
    for live, want in zip((stack.groups, stack.region_start,
                           stack.region_cap, stack.keys_per_group),
                          restack(expected)):
        assert np.array_equal(live, want)
    assert partition_digest(store.partition(label)) \
        == partition_digest(alone)
    assert {lab: partition_digest(p) for lab, p in store._parts.items()
            if lab != label} == digests
    assert stack.chain_lengths().tolist() == [
        scalar_chain_length(store.partition(lab))
        for lab in stack.labels.tolist()]
    everyone = np.arange(streamer.graph.num_vertices)
    for lab in stack.labels.tolist():
        want = reference_of_label(streamer.graph, lab)
        got = store.gather(everyone, lab)
        assert np.array_equal(got.concat, want.nbrs)
        assert np.array_equal(np.flatnonzero(got.lens), want.vertices)
        assert np.array_equal(got.lens[want.vertices],
                              np.diff(want.offsets))


# (label, how): "rebuild" grows the label by 22 keys, "shrink" first
# deletes 35 of its 40 edges so its rebuild needs fewer rows, "new"
# adds a label the store does not hold yet.
FIRST, MIDDLE, LAST = (0, "rebuild"), (4, "rebuild"), (6, "rebuild")
SHRINK, NEW_MIDDLE, NEW_LAST = (2, "shrink"), (3, "new"), (9, "new")


@pytest.mark.parametrize("gpn", [4, 16])
@pytest.mark.parametrize("order", [
    (FIRST, MIDDLE, LAST, SHRINK, NEW_MIDDLE, NEW_LAST),
    (LAST, NEW_MIDDLE, SHRINK, MIDDLE, NEW_LAST, FIRST),
], ids=["first-to-last", "last-to-first"])
def test_rebuilt_and_new_labels_touch_only_their_rows(order, gpn):
    graph = path_graph()
    streamer = Streamer(DynamicPCSRStorage(graph, gpn=gpn), graph)
    stack = streamer.store._stack
    # Built with one growth step of headroom.
    assert len(stack.groups) == 4 * (PATH + 1)
    assert len(stack._buffers[0]) == 246
    capacities = []
    for label, how in order:
        if how == "new":
            def step(label=label):
                streamer.apply(streamer.fresh_edges(label, 5))
        elif how == "shrink":
            def step(label=label):
                base = 50 * LABELS.index(label)
                streamer.rebuild(label, [(base + j, base + j + 1, label)
                                         for j in range(35)])
        else:
            def step(label=label):
                streamer.rebuild(label)
        check_one_label_changed(streamer, label, step)
        capacities.append(len(stack._buffers[0]))
    # Every rebuild fits in the headroom, so the layer never moved.
    assert capacities == [246] * len(order)


def test_rebuild_in_headroom_allocates_no_second_layer():
    """An in-place rebuild allocates nothing the size of the layer:
    the rows after the label shift within the buffers, where a re-stack
    would concatenate a new layer."""
    labels = tuple(range(0, 16, 2))
    graph = path_graph(labels)
    streamer = Streamer(DynamicPCSRStorage(graph), graph)
    streamer.rebuild(0)
    layer = streamer.store._stack._buffers[0]
    nbytes = streamer.store._stack.groups.nbytes
    inserted = streamer.fresh_edges(6, 11)
    graph, _ = streamer.graph.apply_changes(inserted, ())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        streamer.store.apply_batch(graph, inserted, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streamer.store.rebuilds == 2
    assert peak < nbytes, (peak, nbytes)
    assert streamer.store._stack._buffers[0] is layer


def test_built_once_stores_keep_exact_size_layers():
    graph = path_graph()
    store = PCSRStorage(graph)
    stack = store._stack
    assert stack_view_problems(stack) == []
    assert all(len(buf) == len(stack.groups) == 4 * (PATH + 1)
               for buf in stack._buffers)
    alone = PCSRPartition(reference_of_label(graph, 2), gpn=16)
    assert len(alone._stack._buffers[0]) == alone.num_groups


def test_dynamic_store_builds_its_headroom_up_front():
    """A store maintained in place starts with one growth step of
    headroom, so the first rebuild of a stream shifts rows inside the
    buffers instead of copying the whole layer into larger ones: its
    peak allocation stays below the layer's size."""
    labels = tuple(range(0, 16, 2))
    graph = path_graph(labels)
    streamer = Streamer(DynamicPCSRStorage(graph), graph)
    stack = streamer.store._stack
    assert stack_view_problems(stack) == []
    assert all(len(buf) == 1.5 * len(stack.groups) == 1.5 * 8 * (PATH + 1)
               for buf in stack._buffers)
    layer = stack._buffers[0]
    nbytes = stack.groups.nbytes
    inserted = streamer.fresh_edges(0, 11)
    graph, _ = streamer.graph.apply_changes(inserted, ())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        streamer.store.apply_batch(graph, inserted, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streamer.store.rebuilds == 1
    assert peak < nbytes, (peak, nbytes)
    assert stack._buffers[0] is layer
