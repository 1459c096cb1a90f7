"""The CSR splice checked against its per-row reference.

:meth:`LabeledGraph.apply_changes` splices a change set into the CSR
arrays in whole-batch array passes.  :func:`reference_apply_changes`
keeps the earlier per-row loop — each touched row filtered, merged and
re-sorted on its own, untouched runs block-copied between them — and
every patched graph must equal it exactly: CSR arrays, vertex labels,
``edges()`` order, label frequencies and :class:`CSRPatchStats`.  The
change sets come from the fuzz profiles' streams plus targeted cases,
and every invalid change set must raise before any splice work starts.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.errors import GraphError
from repro.graph import labeled_graph
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import CSRPatchStats, LabeledGraph

from fuzz_harness import PROFILES, _Shadow, generate_batch


def reference_apply_changes(graph: LabeledGraph, inserted, deleted,
                            new_vertex_labels=()):
    """The per-row CSR splice, as it stood before the array passes."""
    n_old = graph.num_vertices
    extra = np.asarray(list(new_vertex_labels), dtype=np.int64)
    n = n_old + len(extra)

    # --- Normalize + validate the change set (O(changes)). --------
    del_pairs: Dict[Tuple[int, int], int] = {}
    for u, v, lab in deleted:
        u, v, lab = int(u), int(v), int(lab)
        key = (u, v) if u < v else (v, u)
        if key in del_pairs:
            raise GraphError(f"edge {key} deleted twice")
        have = graph.get_edge_label(*key)
        if have is None:
            raise GraphError(f"no edge between {key[0]} and {key[1]}")
        if have != lab:
            raise GraphError(
                f"edge {key} carries label {have}, not {lab}")
        del_pairs[key] = lab
    ins_pairs: Dict[Tuple[int, int], int] = {}
    for u, v, lab in inserted:
        u, v, lab = int(u), int(v), int(lab)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(
                f"edge ({u}, {v}) references a missing vertex")
        if u == v:
            raise GraphError(f"self loop at vertex {u} is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in ins_pairs:
            raise GraphError(f"edge {key} inserted twice")
        if graph.has_edge(*key) and key not in del_pairs:
            raise GraphError(
                f"edge {key} already exists; delete it first to "
                f"relabel")
        ins_pairs[key] = lab

    if not del_pairs and not ins_pairs and not len(extra):
        return graph, CSRPatchStats()

    # --- Per-vertex change lists (O(changes)). --------------------
    rem_at: Dict[int, Set[int]] = {}
    add_at: Dict[int, List[Tuple[int, int]]] = {}
    for (lo, hi), _lab in del_pairs.items():
        rem_at.setdefault(lo, set()).add(hi)
        rem_at.setdefault(hi, set()).add(lo)
    for (lo, hi), lab in ins_pairs.items():
        add_at.setdefault(lo, []).append((lab, hi))
        add_at.setdefault(hi, []).append((lab, lo))
    touched = sorted(set(rem_at) | set(add_at)
                     | set(range(n_old, n)))

    # --- Metadata: labels, edge map, label frequencies. -----------
    vlabels = (np.concatenate([graph._vlabels, extra]) if len(extra)
               else graph._vlabels)
    # The whole edge map, copied in ``edges()`` order and spliced.
    edge_map = {(u, v): lab for u, v, lab in graph.edges()}
    freq = dict(graph._edge_label_freq)
    for key, lab in del_pairs.items():
        del edge_map[key]
        freq[lab] -= 1
        if not freq[lab]:
            del freq[lab]
    for key, lab in ins_pairs.items():
        edge_map[key] = lab
        freq[lab] = freq.get(lab, 0) + 1

    # --- Offsets: adjust touched degrees, re-prefix-sum. ----------
    deg = np.empty(n, dtype=np.int64)
    np.subtract(graph._offsets[1:], graph._offsets[:-1],
                out=deg[:n_old])
    deg[n_old:] = 0
    for v in touched:
        deg[v] += (len(add_at.get(v, ()))
                   - len(rem_at.get(v, ())))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])

    # --- Splice rows: bulk-copy untouched runs, rebuild touched. --
    total = int(offsets[n])
    nbr = np.empty(total, dtype=np.int64)
    elab = np.empty(total, dtype=np.int64)
    words_read = 0
    words_written = 0
    prev = 0  # next untouched vertex to copy from
    for v in touched:
        if prev < v and prev < n_old:
            stop = min(v, n_old)
            o_lo, o_hi = int(graph._offsets[prev]), \
                int(graph._offsets[stop])
            d_lo = int(offsets[prev])
            nbr[d_lo:d_lo + (o_hi - o_lo)] = graph._nbr[o_lo:o_hi]
            elab[d_lo:d_lo + (o_hi - o_lo)] = graph._elab[o_lo:o_hi]
        if v < n_old:
            o_lo, o_hi = int(graph._offsets[v]), \
                int(graph._offsets[v + 1])
            seg_n = graph._nbr[o_lo:o_hi]
            seg_l = graph._elab[o_lo:o_hi]
            words_read += o_hi - o_lo
        else:
            seg_n = seg_l = nbr[:0]
        rem = rem_at.get(v)
        if rem:
            keep = ~np.isin(seg_n,
                            np.fromiter(rem, dtype=np.int64,
                                        count=len(rem)))
            seg_n, seg_l = seg_n[keep], seg_l[keep]
        adds = add_at.get(v)
        if adds:
            add_l = np.array([a[0] for a in adds], dtype=np.int64)
            add_n = np.array([a[1] for a in adds], dtype=np.int64)
            seg_n = np.concatenate([seg_n, add_n])
            seg_l = np.concatenate([seg_l, add_l])
            order = np.lexsort((seg_n, seg_l))
            seg_n, seg_l = seg_n[order], seg_l[order]
        d_lo = int(offsets[v])
        nbr[d_lo:d_lo + len(seg_n)] = seg_n
        elab[d_lo:d_lo + len(seg_l)] = seg_l
        words_written += len(seg_n)
        prev = v + 1
    if prev < n_old:
        o_lo, o_hi = int(graph._offsets[prev]), \
            int(graph._offsets[n_old])
        d_lo = int(offsets[prev])
        nbr[d_lo:d_lo + (o_hi - o_lo)] = graph._nbr[o_lo:o_hi]
        elab[d_lo:d_lo + (o_hi - o_lo)] = graph._elab[o_lo:o_hi]

    patched = LabeledGraph._from_csr(vlabels, offsets, nbr, elab, edge_map,
                                     freq)
    stats = CSRPatchStats(rows_spliced=len(touched),
                          words_read=words_read,
                          words_written=words_written)
    return patched, stats


def checked_apply_changes(graph, inserted, deleted, new_vertex_labels=()):
    """``graph.apply_changes``, asserted equal to the reference."""
    inserted, deleted = list(inserted), list(deleted)
    new_vertex_labels = list(new_vertex_labels)
    want, want_stats = reference_apply_changes(graph, inserted, deleted,
                                               new_vertex_labels)
    got, got_stats = _REAL_APPLY_CHANGES(graph, inserted, deleted,
                                         new_vertex_labels)
    assert got_stats == want_stats
    for name in ("_vlabels", "_offsets", "_nbr", "_elab"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert list(got.edges()) == list(want.edges())
    assert got.num_edges == want.num_edges
    assert got._edge_label_freq == want._edge_label_freq
    assert (got is graph) == (want is graph)
    return got, got_stats


_REAL_APPLY_CHANGES = LabeledGraph.apply_changes


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_profiles_match_reference(monkeypatch, seed, profile):
    calls = []

    def spy(*args):
        calls.append(args)
        return checked_apply_changes(*args)

    monkeypatch.setattr(LabeledGraph, "apply_changes", spy)
    rng = np.random.default_rng(seed * 104729 + PROFILES.index(profile))
    graph = scale_free_graph(40, 3, 3, 3, seed=seed)
    shadow = _Shadow(graph)
    vlabel_pool = sorted(set(shadow.vlabels)) or [0]
    elabel_pool = graph.distinct_edge_labels() or [0]
    dyn = DynamicGraph(graph)
    for _ in range(10):
        dyn.apply(generate_batch(rng, shadow, profile, 12, vlabel_pool,
                                 elabel_pool))
        dyn.commit()
    assert calls
    assert {(u, v): lab for u, v, lab in dyn.base.edges()} == shadow.edges


class TestTargetedChangeSets:
    @pytest.fixture
    def graph(self):
        return scale_free_graph(30, 3, 3, 3, seed=4)

    def test_empty_change_set(self, graph):
        assert checked_apply_changes(graph, [], [])[0] is graph

    def test_new_vertices_with_and_without_edges(self, graph):
        n = graph.num_vertices
        checked_apply_changes(graph, [(0, n, 2), (n, n + 2, 1)], [],
                              new_vertex_labels=[1, 0, 2])

    def test_new_vertices_only(self, graph):
        checked_apply_changes(graph, [], [], new_vertex_labels=[5])

    def test_relabel_is_delete_plus_insert(self, graph):
        u, v, lab = next(iter(graph.edges()))
        checked_apply_changes(graph, [(u, v, lab + 7)], [(u, v, lab)])

    def test_vertex_losing_every_edge(self, graph):
        hub = int(np.argmax(np.diff(graph._offsets)))
        gone = [e for e in graph.edges() if hub in e[:2]]
        patched, _ = checked_apply_changes(graph, [], gone)
        assert patched.degree(hub) == 0

    def test_delete_everything_and_reinsert_some(self, graph):
        edges = list(graph.edges())
        checked_apply_changes(graph, edges[:5], edges)

    def test_mixed_batch_with_reversed_endpoints(self, graph):
        edges = list(graph.edges())
        deleted = [(v, u, lab) for u, v, lab in edges[::4]]
        have = {(u, v) for u, v, _ in edges}
        inserted = [(b, a, 1) for a in range(30) for b in range(a + 1, 30)
                    if (a, b) not in have][:9]
        checked_apply_changes(graph, inserted, deleted)


BAD_CHANGE_SETS = {
    "deleted twice": ([], [(0, 1, 4), (1, 0, 4)]),
    "no edge": ([], [(1, 2, 4)]),
    "carries label": ([], [(0, 1, 9)]),
    "missing vertex": ([(0, 7, 0)], []),
    "self loop": ([(2, 2, 0)], []),
    "inserted twice": ([(1, 2, 0), (2, 1, 1)], []),
    "already exists": ([(0, 1, 4)], []),
}


@pytest.mark.parametrize("message", sorted(BAD_CHANGE_SETS))
def test_invalid_change_set_raises_before_splicing(monkeypatch, message):
    graph = LabeledGraph([0, 1, 2], [(0, 1, 4)])
    inserted, deleted = BAD_CHANGE_SETS[message]
    with pytest.raises(GraphError, match=message):
        reference_apply_changes(graph, inserted, deleted)

    def never(*args, **kwargs):
        raise AssertionError("splice work started before validation")

    monkeypatch.setattr(labeled_graph, "concat_ranges", never)
    monkeypatch.setattr(LabeledGraph, "_from_csr", never)
    with pytest.raises(GraphError, match=message):
        graph.apply_changes(inserted, deleted)
    assert list(graph.edges()) == [(0, 1, 4)]
