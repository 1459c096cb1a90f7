"""Reference implementations the whole suite checks engines against,
and the PCSR state digests that differential and golden tests compare.

Kept in a plain module (not ``conftest.py``) so test files can import it
explicitly — ``from oracle import brute_force_matches`` — without relying
on conftest module-name resolution, which used to collide with
``benchmarks/conftest.py`` when both directories were collected.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.signature import encode_vertex
from repro.core.signature_table import ScanCost, SignatureTable
from repro.errors import StorageError
from repro.gpusim.constants import CYCLES_PER_GLD, CYCLES_PER_OP, WARP_SIZE
from repro.gpusim.transactions import strided_read
from repro.graph.labeled_graph import GraphBuilder, LabeledGraph
from repro.graph.partition import EdgeLabelPartition
from repro.storage.pcsr import default_hash


def brute_force_matches(query: LabeledGraph,
                        graph: LabeledGraph) -> Set[Tuple[int, ...]]:
    """Reference subgraph-isomorphism enumeration (non-induced,
    label-preserving, injective) by plain backtracking.

    Only suitable for small inputs; used as the oracle all engines are
    checked against.
    """
    nq = query.num_vertices
    cands: List[List[int]] = []
    for u in range(nq):
        cands.append([
            v for v in range(graph.num_vertices)
            if graph.vertex_label(v) == query.vertex_label(u)
        ])
    out: Set[Tuple[int, ...]] = set()

    def rec(u: int, assign: List[int]) -> None:
        if u == nq:
            out.add(tuple(assign))
            return
        for v in cands[u]:
            if v in assign:
                continue
            ok = True
            for w, lab in zip(query.neighbors(u), query.incident_labels(u)):
                w = int(w)
                if w < u:
                    if (not graph.has_edge(assign[w], v)
                            or graph.edge_label(assign[w], v) != int(lab)):
                        ok = False
                        break
            if ok:
                rec(u + 1, assign + [v])

    rec(0, [])
    return out


def tiny_paper_graph() -> LabeledGraph:
    """A small graph shaped like the paper's Figure 1 example.

    Labels: A=0, B=1, C=2 for vertices; a=0, b=1 for edges.  v0 (label A)
    connects to three B-vertices via label a and one C-vertex via label
    b; the C-hub closes triangles.
    """
    b = GraphBuilder()
    v0 = b.add_vertex(0)                     # A
    bs = [b.add_vertex(1) for _ in range(3)]  # B
    c_hub = b.add_vertex(2)                  # C (plays v201)
    cs = [b.add_vertex(2) for _ in range(3)]  # C (play v101..)
    for i, vb in enumerate(bs):
        b.add_edge(v0, vb, 0)        # A-B via a
        b.add_edge(vb, cs[i], 0)     # B-C via a
    b.add_edge(v0, c_hub, 1)         # A-C via b
    b.add_edge(bs[2], c_hub, 0)      # one B reaches the hub via a
    return b.build()


def paper_query() -> LabeledGraph:
    """The paper's Figure 1 query: A-B(a), A-C(b), B-C(a)."""
    b = GraphBuilder()
    u0 = b.add_vertex(0)  # A
    u1 = b.add_vertex(1)  # B
    u2 = b.add_vertex(2)  # C
    b.add_edge(u0, u1, 0)
    b.add_edge(u0, u2, 1)
    b.add_edge(u1, u2, 0)
    return b.build()


def sharing_assignment(block_vertices: Sequence[int]) -> List[int]:
    """Algorithm 5 lines 1-5: ``addr[i]`` = first occurrence of ``v_i``.

    ``block_vertices[i]`` is the vertex warp ``i`` of the block needs;
    the returned ``addr[i]`` points at the warp whose staged buffer warp
    ``i`` reads (itself, when it is the first occurrence).  The
    reference for the join's whole-table duplicate-removal hits,
    ``repro.core.kernels._shared_hit_mask``.
    """
    first_of: Dict[int, int] = {}
    addr: List[int] = []
    for i, v in enumerate(block_vertices):
        if v not in first_of:
            first_of[v] = i
        addr.append(first_of[v])
    return addr


def partition_digest(part) -> str:
    """Digest of one PCSR partition's whole live state: the group layer
    (keys, offsets, GID and END columns), ``region_start`` /
    ``region_cap``, keys per group, the empty-group pool (members and
    iteration order, which fixes future chain extensions), the dead-word
    count, the key count and every key's neighbor extent."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(part.groups, dtype=np.int64).tobytes())
    for arr in (part._region_start, part._region_cap,
                part._keys_per_group):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    h.update(repr((list(part._empty_pool), part.dead_words(),
                   part.key_count(), len(part.ci))).encode())
    for v, nbrs in part.items():
        h.update(repr((v, nbrs.tolist())).encode())
    return h.hexdigest()[:16]


def store_digest(store) -> Dict[str, str]:
    """:func:`partition_digest` of every label of a PCSR store."""
    return {str(lab): partition_digest(part)
            for lab, part in sorted(store._parts.items())}


def restack(parts) -> Tuple[np.ndarray, ...]:
    """The group layer re-stacked anew, as every rebuild once did:
    ``parts``' group rows, region starts, region capacities and keys
    per group, each concatenated in the given (label) order.  The
    reference for the rows :class:`GroupStack` keeps in place (at
    least one part)."""
    return tuple(np.concatenate([getattr(p, name) for p in parts])
                 for name in ("groups", "_region_start", "_region_cap",
                              "_keys_per_group"))


def stack_view_problems(stack) -> List[str]:
    """Where a part's four arrays are not views of its stack's rows at
    its base (empty when every part reads the stack in place)."""
    problems = []
    stacked = (stack.groups, stack.region_start, stack.region_cap,
               stack.keys_per_group)
    for pos, part in enumerate(stack.parts):
        base, size = int(stack.base[pos]), int(stack.sizes[pos])
        own = (part.groups, part._region_start, part._region_cap,
               part._keys_per_group)
        for name, mine, rows in zip(("groups", "region_start",
                                     "region_cap", "keys_per_group"),
                                    own, stacked):
            at = rows[base:base + size]
            if (mine.shape != at.shape
                    or mine.__array_interface__["data"][0]
                    != at.__array_interface__["data"][0]):
                problems.append(f"label {part.label}: {name} is not a "
                                f"view of rows {base}..{base + size}")
    return problems


def scalar_chain_length(part) -> int:
    """Longest overflow chain of one PCSR partition by walking every
    group's chain one GID at a time (the reference for the vectorized
    walk of :meth:`GroupStack.chain_lengths`)."""
    longest = 1
    for gid in range(part.num_groups):
        length, cur = 1, int(part.groups[gid, part.gpn - 1, 0])
        while cur != -1:
            length += 1
            cur = int(part.groups[cur, part.gpn - 1, 0])
        longest = max(longest, length)
    return longest


def pcsr_probe(part, v: int) -> Tuple[int, int, int]:
    """The scalar PCSR lookup (the 4-step procedure under Figure 11c),
    the reference for the vectorized chain walk of
    :meth:`PCSRPartition.gather`: walk ``v``'s group chain from its home
    group, one read per group.  Returns ``(groups_read, begin, end)``,
    with ``begin == end == -1`` if ``v`` is not stored."""
    last = part.gpn - 1
    gid = default_hash(v, part.num_groups)
    reads = 0
    while gid != -1:
        reads += 1
        group = part.groups[gid]
        for j in range(last):
            if group[j, 0] == v:
                begin = int(group[j, 1])
                if j + 1 < last and group[j + 1, 0] != -1:
                    return reads, begin, int(group[j + 1, 1])
                return reads, begin, int(group[last, 1])
        gid = int(group[last, 0])
    return reads, -1, -1


def reference_of_label(graph: LabeledGraph,
                       label: int) -> EdgeLabelPartition:
    """``P(graph, label)`` through the whole incidence, as
    :meth:`EdgeLabelPartition.of_label` once read it: every entry's
    source expanded, then the label's entries masked out and grouped
    by source into the dict constructor.  The reference for
    ``of_label``."""
    offsets, nbr, elab = graph.incidence()
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(offsets))
    mask = elab == label
    src, dst = src[mask], nbr[mask]
    return EdgeLabelPartition(label, {int(v): dst[src == v]
                                      for v in np.unique(src).tolist()})


def is_candidate(sig_v: np.ndarray, sig_u: np.ndarray) -> bool:
    """Whether data signature ``sig_v`` passes query signature ``sig_u``:
    the scalar filtering rule, one row at a time.  The reference for
    :func:`repro.core.signature.pack_tail` containment."""
    if sig_v[0] != sig_u[0]:
        return False
    tail_u = sig_u[1:]
    return bool(np.all((sig_v[1:] & tail_u) == tail_u))


def reference_delta_created(graph: LabeledGraph, table: np.ndarray,
                            query: LabeledGraph, signature_bits: int,
                            inserted: Sequence[Tuple[int, int, int]],
                            new_vertices: Sequence[int]
                            ) -> Set[Tuple[int, ...]]:
    """The matches a stream batch creates, by the earlier per-seed
    backtracker: every query edge x inserted edge x orientation checked
    with :func:`is_candidate`, and each surviving seed extended in a BFS
    order rebuilt per seed, every candidate checked against all of its
    already-placed neighbors.  ``graph`` is the committed snapshot and
    ``table`` its signature rows.  The reference for the created sets
    of :class:`~repro.dynamic.stream.StreamEngine`."""
    if query.num_edges == 0:
        # Connected queries with no edges are single vertices.
        lab = query.vertex_label(0)
        return {(v,) for v in new_vertices if graph.vertex_label(v) == lab}
    qsigs = [encode_vertex(query, u, signature_bits)
             for u in range(query.num_vertices)]

    def candidate(u: int, v: int) -> bool:
        if query.vertex_label(u) != graph.vertex_label(v):
            return False
        return is_candidate(table[v], qsigs[u])

    created: Set[Tuple[int, ...]] = set()
    for qa, qb, qlab in query.edges():
        for gu, gv, lab in inserted:
            if lab != qlab:
                continue
            for x, y in ((gu, gv), (gv, gu)):
                if candidate(qa, x) and candidate(qb, y):
                    _reference_extend({qa: x, qb: y}, query, graph,
                                      candidate, created)
    return created


def _reference_extend(seed: Dict[int, int], query: LabeledGraph,
                      graph: LabeledGraph,
                      candidate: Callable[[int, int], bool],
                      out: Set[Tuple[int, ...]]) -> None:
    """Backtracking completion of one seeded partial embedding, in BFS
    order from the seeded vertices."""
    nq = query.num_vertices
    order: List[int] = []
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for u in frontier:
            for w in query.neighbors(u):
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    assign = dict(seed)
    used = set(seed.values())
    if len(used) < len(seed):
        return  # seed itself is non-injective

    def consistent(u: int, v: int) -> bool:
        for w, lab in zip(query.neighbors(u),
                          query.incident_labels(u)):
            w = int(w)
            if w in assign:
                gw = assign[w]
                if not graph.has_edge(gw, v) or \
                        graph.edge_label(gw, v) != int(lab):
                    return False
        return True

    # The seed pair's own consistency (other query edges between the
    # two seeded vertices, if any).
    for u, v in list(seed.items()):
        if not consistent(u, v):
            return

    def rec(i: int) -> None:
        if i == len(order):
            out.add(tuple(assign[u] for u in range(nq)))
            return
        u = order[i]
        anchor = next(
            (int(w) for w in query.neighbors(u) if int(w) in assign),
            None)
        if anchor is None:
            return
        anchor_lab = None
        for w, lab in zip(query.neighbors(u),
                          query.incident_labels(u)):
            if int(w) == anchor:
                anchor_lab = int(lab)
                break
        for v in graph.neighbors_by_label(assign[anchor], anchor_lab):
            v = int(v)
            if v in used or not candidate(u, v):
                continue
            if not consistent(u, v):
                continue
            assign[u] = v
            used.add(v)
            rec(i + 1)
            del assign[u]
            used.discard(v)

    rec(0)


def candidate_mask(table: np.ndarray, sig_u: np.ndarray) -> np.ndarray:
    """Whole-table filter against ``sig_u``: a boolean mask over data
    vertices, ANDing every tail word of every row.  The reference for
    the candidates of :meth:`SignatureTable.scan`."""
    label_ok = table[:, 0] == sig_u[0]
    tail_u = sig_u[1:]
    structure_ok = np.all((table[:, 1:] & tail_u) == tail_u, axis=1)
    return label_ok & structure_ok


def reference_scan_cost(table: SignatureTable,
                        sig_u: np.ndarray) -> ScanCost:
    """The filtering scan's cost, one warp at a time: the reference for
    the :class:`ScanCost` of :meth:`SignatureTable.scan`.  Every warp
    reads word 0; a warp holding a label match also reads the other
    ``words - 1`` words, strided by the row width under row-first."""
    n, w = table.num_vertices, table.words
    if n == 0:
        return ScanCost(0, ())
    label_hits = table.table[:, 0] == sig_u[0]
    num_warps = math.ceil(n / WARP_SIZE)
    pad = num_warps * WARP_SIZE - n
    hits_padded = np.pad(label_hits, (0, pad))
    warp_has_hit = hits_padded.reshape(num_warps, WARP_SIZE).any(axis=1)

    total_gld = 0
    task_cycles = []
    for warp in range(num_warps):
        if table.column_first:
            word0_tx = 1
            tail_tx = (w - 1) if warp_has_hit[warp] else 0
        else:
            word0_tx = strided_read(WARP_SIZE, w)
            tail_tx = ((w - 1) * strided_read(WARP_SIZE, w)
                       if warp_has_hit[warp] else 0)
        tx = word0_tx + tail_tx
        total_gld += tx
        task_cycles.append(tx * CYCLES_PER_GLD + w * CYCLES_PER_OP)
    return ScanCost(total_gld, tuple(task_cycles))


def reference_merge_entries(entry: np.ndarray, touched: np.ndarray,
                            span: int, held: np.ndarray,
                            length: np.ndarray, cur: np.ndarray,
                            inserts: np.ndarray, deletes: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`repro.storage.pcsr._merge_entries` as one ``np.union1d``
    of the surviving current codes and the insert codes, which re-sorts
    the whole block: the reference for the merge that sorts only the
    inserts.  Same arguments, results and :class:`StorageError`."""
    M = 1 + max((int(a.max()) for a in (cur, inserts[:, 1], deletes[:, 1])
                 if len(a)), default=0)
    if held.size > (2 ** 62) // M:
        raise StorageError("vertex ids too large for pair codes")
    merged = np.repeat(np.flatnonzero(held), length) * M + cur
    if len(deletes):
        rem = entry[np.searchsorted(touched, deletes[:, 0])] * M \
            + deletes[:, 1]
        pos = np.searchsorted(merged, rem)
        present = (merged[np.minimum(pos, len(merged) - 1)] == rem
                   if len(merged) else np.zeros(len(rem), dtype=bool))
        if not present.all():
            code, nbr = deletes[~present, 0], deletes[~present, 1]
            first = int(np.lexsort((nbr, code))[0])
            raise StorageError(f"{int(nbr[first])} is not a neighbor "
                               f"of {int(code[first] % span)}")
        keep = np.ones(len(merged), dtype=bool)
        keep[pos] = False
        merged = merged[keep]
    if len(inserts):
        merged = np.union1d(
            merged, entry[np.searchsorted(touched, inserts[:, 0])] * M
            + inserts[:, 1])
    return (merged % M,
            np.bincount(merged // M, minlength=held.size).reshape(held.shape))


def reference_first_bad_change(graph: LabeledGraph, inserted, deleted,
                               num_vertices: int) -> Optional[str]:
    """The message of the first bad change of a change set for
    :meth:`LabeledGraph.apply_changes`, or ``None`` when it is valid
    (``num_vertices`` counts the new vertices too), by the per-edge
    loop the splice once ran on every change: deletions first, then
    insertions, each in input order."""
    dead: Set[Tuple[int, int]] = set()
    for u, v, lab in deleted:
        key = (u, v) if u < v else (v, u)
        if key in dead:
            return f"edge {key} deleted twice"
        have = graph.get_edge_label(*key)
        if have is None:
            return f"no edge between {key[0]} and {key[1]}"
        if have != lab:
            return f"edge {key} carries label {have}, not {lab}"
        dead.add(key)
    born: Set[Tuple[int, int]] = set()
    for u, v, lab in inserted:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            return f"edge ({u}, {v}) references a missing vertex"
        if u == v:
            return f"self loop at vertex {u} is not allowed"
        key = (u, v) if u < v else (v, u)
        if key in born:
            return f"edge {key} inserted twice"
        if graph.has_edge(*key) and key not in dead:
            return (f"edge {key} already exists; delete it first to "
                    f"relabel")
        born.add(key)
    return None
