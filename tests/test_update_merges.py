"""The update path's sorted merges and batched checks, held against the
code they replaced.

* :func:`repro.storage.pcsr._merge_entries` sorts only a batch's
  inserts and inserts them into the sorted current lists;
  :func:`oracle.reference_merge_entries` re-sorts the whole block with
  ``np.union1d``.  Both must return the same lists and lengths and
  raise the same error, over blocks with empty lists, inserts already
  present, repeated inserts and deletes that empty a list.
* :meth:`LabeledGraph.apply_changes` checks a change set as batched
  lookups; :func:`oracle.reference_first_bad_change` is the per-edge
  loop it once ran.  Change sets with several bad changes must raise
  the message of the first one: deletions before insertions, each in
  input order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, StorageError
from repro.graph.labeled_graph import LabeledGraph
from repro.storage.pcsr import _merge_entries

from oracle import reference_first_bad_change, reference_merge_entries

NEIGHBORS = 12


@st.composite
def merge_blocks(draw):
    """One block of ``(group, slot)`` positions for ``_merge_entries``:
    held positions with sorted-unique lists (some empty), new keys in
    free positions, and the touched keys' insert and delete rows."""
    rows = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(("held", "new", "empty")),
                          min_size=rows * cap, max_size=rows * cap))
    held = np.array([k == "held" for k in kinds]).reshape(rows, cap)
    lists = {e: sorted(draw(st.sets(st.integers(0, NEIGHBORS - 1),
                                    max_size=5)))
             for e in np.flatnonzero(held).tolist()}
    touched_at = [e for e, k in enumerate(kinds)
                  if k == "new" or (k == "held" and draw(st.booleans()))]
    span = 100
    codes = sorted(draw(st.sets(st.integers(0, 4 * span - 1),
                                min_size=len(touched_at),
                                max_size=len(touched_at))))
    order = draw(st.permutations(touched_at))
    inserts, deletes = [], []
    for code, e in zip(codes, order):
        current = lists.get(e, [])
        gone = draw(st.sets(st.sampled_from(current))) if current else set()
        if draw(st.integers(0, 29)) == 13:
            gone.add(draw(st.integers(0, NEIGHBORS - 1)))  # may be absent
        deletes += [(code, w) for w in sorted(gone)]
        # Inserts may repeat, or name neighbors already present.
        inserts += [(code, w) for w in draw(st.lists(
            st.integers(0, NEIGHBORS - 1), max_size=4))]
    length = np.array([len(lists[e]) for e in sorted(lists)],
                      dtype=np.int64)
    cur = np.array([w for e in sorted(lists) for w in lists[e]],
                   dtype=np.int64)
    pairs = (np.array(inserts, dtype=np.int64).reshape(-1, 2),
             np.array(draw(st.permutations(deletes)),
                      dtype=np.int64).reshape(-1, 2))
    return (np.array(order, dtype=np.int64), np.array(codes, dtype=np.int64),
            span, held, length, cur) + pairs


def _outcome(merge, args):
    try:
        content, new_len = merge(*args)
    except StorageError as err:
        return ("raises", str(err))
    return (content.tolist(), new_len.tolist())


@settings(max_examples=300, deadline=None)
@given(merge_blocks())
def test_merge_entries_equals_union1d_reference(block):
    assert _outcome(_merge_entries, block) == \
        _outcome(reference_merge_entries, block)


def test_merge_entries_covers_the_edge_shapes():
    """Hand-made: an empty list gains a neighbor, an insert already
    present is kept once, a delete empties a list, a new key gets its
    first list, and an untouched list passes through."""
    held = np.array([[True, True, True, False]])
    length = np.array([0, 2, 1], dtype=np.int64)
    cur = np.array([3, 7, 5], dtype=np.int64)
    entry = np.array([0, 1, 2, 3], dtype=np.int64)
    touched = np.array([10, 11, 12, 13], dtype=np.int64)
    inserts = np.array([[10, 4], [11, 7], [11, 7], [13, 9]], dtype=np.int64)
    deletes = np.array([[12, 5]], dtype=np.int64)
    args = (entry, touched, 100, held, length, cur, inserts, deletes)
    content, new_len = _merge_entries(*args)
    assert content.tolist() == [4, 3, 7, 9]
    assert new_len.tolist() == [[1, 2, 0, 1]]
    assert _outcome(_merge_entries, args) == \
        _outcome(reference_merge_entries, args)


# ----------------------------------------------------------------------
# apply_changes: the first bad change of a change set
# ----------------------------------------------------------------------

VERTICES = 7


@st.composite
def change_sets(draw):
    """A small graph and a change set mixing valid and bad changes:
    deletes of missing edges, wrong labels and repeated pairs; inserts
    out of range, self loops, repeated pairs and pairs that exist."""
    pairs = [(u, v) for u in range(VERTICES) for v in range(u + 1, VERTICES)]
    edges = [(u, v, draw(st.integers(0, 2)))
             for u, v in draw(st.lists(st.sampled_from(pairs),
                                       unique=True, max_size=12))]
    graph = LabeledGraph([0] * VERTICES, edges)
    new = draw(st.integers(0, 2))
    vertex = st.integers(-1, VERTICES + new)
    label = st.integers(0, 2)
    deleted = draw(st.lists(st.one_of(
        st.sampled_from(edges) if edges else st.nothing(),
        st.sampled_from(edges).map(lambda e: (e[1], e[0], e[2]))
        if edges else st.nothing(),
        st.tuples(vertex, vertex, label)), max_size=5))
    inserted = draw(st.lists(st.one_of(
        st.sampled_from(edges) if edges else st.nothing(),
        st.tuples(vertex, vertex, label)), max_size=6))
    return graph, inserted, deleted, new


@settings(max_examples=400, deadline=None)
@given(change_sets())
def test_first_bad_change_names_the_reference_message(case):
    graph, inserted, deleted, new = case
    want = reference_first_bad_change(graph, inserted, deleted,
                                      VERTICES + new)
    if want is None:
        patched, _ = graph.apply_changes(inserted, deleted, [0] * new)
        assert patched.num_edges == \
            graph.num_edges - len(deleted) + len(inserted)
        return
    with pytest.raises(GraphError) as err:
        graph.apply_changes(np.array(inserted, dtype=np.int64),
                            np.array(deleted, dtype=np.int64), [0] * new)
    assert str(err.value) == want


def test_deletes_are_checked_before_inserts():
    graph = LabeledGraph([0, 0, 0], [(0, 1, 4)])
    with pytest.raises(GraphError, match="^no edge between 1 and 2$"):
        graph.apply_changes([(2, 2, 0), (0, 9, 0)], [(0, 1, 4), (2, 1, 0)])
    with pytest.raises(GraphError, match="self loop at vertex 2"):
        graph.apply_changes([(2, 2, 0), (0, 9, 0)], [(0, 1, 4)])
