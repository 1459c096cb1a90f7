"""Vertex signatures: the filtering-phase encoding (Section III-A, Fig. 8).

A signature ``S(v)`` is an N-bit vector in two parts:

* the first ``K = 32`` bits (:data:`LABEL_BITS`) store the vertex label
  *directly* (the paper's Section VII-B refinement: exact label
  comparison instead of hashing);
* the remaining ``N - K`` bits form ``(N - K) / 2`` two-bit groups.  Every
  adjacent ``(edge label, neighbor vertex label)`` pair of ``v`` is hashed
  to a group, whose state encodes how many pairs landed there:
  ``00`` none, ``01`` exactly one, ``11`` more than one.

Filtering rule: ``v`` can only match query vertex ``u`` if the labels are
equal and ``S(v) & S(u) == S(u)`` — i.e. wherever ``u`` has one pair, ``v``
has at least one; wherever ``u`` has several, ``v`` has several.  This is a
*necessary* condition, proved sound in tests (a true match is never
pruned).

Two encoders compute the same rows.  :func:`encode_vertex` is the scalar
definition, one vertex at a time; queries are encoded through it.
:func:`encode_rows` encodes many data vertices in one vectorized pass
over their CSR incidence segments (pair hash, per-group count, state
OR); every signature-table build and every maintained-row refresh goes
through it, and tests hold it byte-equal to :func:`encode_vertex`.
:func:`pack_tail` turns a row's pair groups into one Python int, so a
single containment check is one integer AND.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from repro.arraytypes import Array
from repro.graph.labeled_graph import LabeledGraph

_PAIR_MIX = 1_000_003
_HASH_MULT = 2654435761
_WORD_BITS = 32

#: K, the bits holding the vertex label (fixed to 32 in Section VII-B)
LABEL_BITS = 32


def num_words(signature_bits: int) -> int:
    """32-bit words per signature."""
    return signature_bits // _WORD_BITS


def num_groups(signature_bits: int) -> int:
    """Two-bit groups available for edge-neighbor pairs."""
    return (signature_bits - LABEL_BITS) // 2


def _group_of(edge_label: int, neighbor_label: int, groups: int) -> int:
    """Hash an (edge label, neighbor vertex label) pair to a group id."""
    key = (edge_label * _PAIR_MIX + neighbor_label) & 0xFFFFFFFF
    return ((key * _HASH_MULT) & 0xFFFFFFFF) % groups


def encode_vertex(graph: LabeledGraph, v: int, signature_bits: int) -> Array:
    """Compute ``S(v)`` as a uint32 word array of length ``N / 32``.

    Word 0 holds the vertex label; subsequent words hold the packed
    two-bit groups (group ``i`` occupies bits ``2i`` and ``2i+1`` of the
    tail region).
    """
    words = np.zeros(num_words(signature_bits), dtype=np.uint32)
    words[0] = np.uint32(graph.vertex_label(v) & 0xFFFFFFFF)
    groups = num_groups(signature_bits)
    if groups == 0:
        return words

    counts: Dict[int, int] = {}
    nbrs = graph.neighbors(v)
    labs = graph.incident_labels(v)
    for w, el in zip(nbrs, labs):
        g = _group_of(int(el), graph.vertex_label(int(w)), groups)
        counts[g] = counts.get(g, 0) + 1

    for g, cnt in counts.items():
        bit = 2 * g
        word_idx = 1 + bit // _WORD_BITS
        offset = bit % _WORD_BITS
        # "01" for a single pair, "11" for more than one.
        state = 0b01 if cnt == 1 else 0b11
        words[word_idx] |= np.uint32(state << offset)
    return words


def encode_rows(graph: LabeledGraph, vertices: Union[Sequence[int], Array],
                signature_bits: int) -> Array:
    """``S(v)`` for every ``v`` in ``vertices``, one row each, in order.

    Equal to stacking :func:`encode_vertex` rows, computed in one pass:
    gather the vertices' incidence segments, hash every (edge label,
    neighbor label) pair in uint64 (the same 32-bit arithmetic as
    :func:`_group_of`), count pairs per (row, group), and OR each
    group's ``01``/``11`` state into its word.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    rows = np.zeros((len(verts), num_words(signature_bits)),
                    dtype=np.uint32)
    vlabels = graph.vertex_labels
    rows[:, 0] = (vlabels[verts] & 0xFFFFFFFF).astype(np.uint32)
    groups = num_groups(signature_bits)
    offsets, nbr, elab = graph.incidence()
    starts = offsets[verts]
    degrees = offsets[verts + 1] - starts
    total = int(degrees.sum())
    if groups == 0 or total == 0:
        return rows

    # Position of every incidence entry of every row, row-major.
    row_of = np.repeat(np.arange(len(verts), dtype=np.int64), degrees)
    skip = np.repeat(starts - (np.cumsum(degrees) - degrees), degrees)
    pos = np.arange(total, dtype=np.int64) + skip
    key = ((elab[pos] * _PAIR_MIX + vlabels[nbr[pos]])
           & 0xFFFFFFFF).astype(np.uint64)
    group = (((key * np.uint64(_HASH_MULT)) & np.uint64(0xFFFFFFFF))
             % np.uint64(groups)).astype(np.int64)

    # Sorted unique (row, group) cells; distinct groups of one word own
    # disjoint bits, so the word is the OR of its cells' states.
    cells, counts = np.unique(row_of * groups + group, return_counts=True)
    cell_row, cell_group = np.divmod(cells, groups)
    bit = 2 * cell_group
    state = np.where(counts == 1, 0b01, 0b11).astype(np.uint32)
    bits = state << (bit % _WORD_BITS).astype(np.uint32)
    flat = cell_row * rows.shape[1] + 1 + bit // _WORD_BITS
    first = np.flatnonzero(np.diff(flat, prepend=-1))
    rows.reshape(-1)[flat[first]] = np.bitwise_or.reduceat(bits, first)
    return rows


def encode_all(graph: LabeledGraph, signature_bits: int) -> Array:
    """Signature table: one row per data vertex (computed offline)."""
    return encode_rows(
        graph, np.arange(graph.num_vertices, dtype=np.int64),
        signature_bits)


def pack_tail(sig: Array) -> int:
    """The pair-group words of ``sig`` (every word after word 0) as one
    Python int, word ``i`` in bits ``32 (i - 1)`` to ``32 i - 1``.

    Groups own disjoint bits, so with the labels compared on their own,
    ``v`` passes ``u`` exactly when ``pack_tail(S(v)) & pack_tail(S(u))
    == pack_tail(S(u))``: the filtering rule as one integer AND, for
    checks of one data vertex at a time.
    """
    return int.from_bytes(
        np.ascontiguousarray(sig[1:], dtype="<u4").tobytes(), "little")
