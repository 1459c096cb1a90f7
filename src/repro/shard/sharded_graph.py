"""Partitioned shards with h-hop halo replication.

A :class:`ShardedGraph` splits one data graph into ``num_shards``
per-shard :class:`~repro.graph.labeled_graph.LabeledGraph` subgraphs.
Each shard materializes

* its **owned** vertices — the vertices :func:`block_hash_owners`
  assigns to it — and
* an **h-hop halo** — every vertex within ``halo_hops`` hops of an
  owned vertex — as the subgraph *induced* on owned + halo.

Why this is enough (the replication/ownership argument)
-------------------------------------------------------

Subgraph isomorphism maps query edges onto data edges, so a match can
only *shrink* distances: ``d_G(m(u), m(u')) <= d_Q(u, u')`` for every
embedding ``m``.  Anchor a match at the image ``a = m(u_c)`` of a query
*center* vertex ``u_c`` (a vertex of minimum eccentricity).  Every
matched data vertex then lies within ``radius(Q)`` hops of ``a``, and
every matched data *edge* connects two such vertices — so as long as
``halo_hops >= radius(Q)``, the whole match is contained in the induced
subgraph of the shard that owns ``a``, including every edge the match
uses and every edge its signatures need to pass filtering.  Matching
runs under non-induced semantics (query edges must exist; non-edges are
unconstrained), so the shard never has to prove an edge *absent* and
the truncation at the halo boundary cannot create false matches:
every shard-local match is literally a match in ``G``.

Ownership gives exact dedup for free: every vertex has exactly one
owner, so keeping only the matches whose anchor image is owned by the
reporting shard partitions the global match set across shards — no
match is lost (its anchor's owner finds it, by the containment argument
above) and none is double-counted (only the owner reports it).
:mod:`repro.shard.engine` implements that coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.labeled_graph import LabeledGraph

#: default halo depth covers the repo-wide default 12-vertex queries
DEFAULT_QUERY_VERTICES = 12

#: Knuth's multiplicative hash constant (2^32 / phi)
_HASH_MULT = 2654435761


def block_hash_owners(num_vertices: int, num_shards: int) -> np.ndarray:
    """Owner shard id per vertex: contiguous id blocks, one per shard,
    dealt to shards in multiplicative-hash order of the block index.

    Every shard gets one block of ``ceil(num_vertices / num_shards)``
    ids (the last block shorter; trailing shards own nothing when the
    blocks run out).  Keeping each block contiguous preserves the
    id-locality that keeps h-hop halos thin on graphs whose ids carry
    it (the mesh/road generators are row-major).  Needs
    ``num_vertices >= 1`` and ``num_shards >= 1``.
    """
    block_len = -(-num_vertices // num_shards)
    blocks = np.arange(-(-num_vertices // block_len), dtype=np.uint64)
    hashed = (blocks * np.uint64(_HASH_MULT)) % np.uint64(2 ** 32)
    # Deal blocks to shards in hashed order (ties break by index).
    order = np.lexsort((blocks, hashed))
    shard_of_block = np.empty(len(blocks), dtype=np.int64)
    shard_of_block[order] = np.arange(len(blocks),
                                      dtype=np.int64) % num_shards
    return shard_of_block[np.arange(num_vertices, dtype=np.int64)
                          // block_len]


def halo_hops_for_query_vertices(query_vertices: int) -> int:
    """Smallest halo depth safe for any connected ``k``-vertex query.

    A connected query on ``k`` vertices has radius at most
    ``ceil((k - 1) / 2)`` (worst case: a path), so a halo this deep
    contains every possible match anchored at an owned vertex.
    """
    if query_vertices < 1:
        raise ValueError(
            f"query_vertices must be >= 1, got {query_vertices}")
    return max(1, (query_vertices - 1 + 1) // 2)


@dataclass
class Shard:
    """One shard's materialized subgraph plus its id mappings.

    ``graph`` uses dense *local* ids ``0..len(local_to_global)-1``;
    ``local_to_global`` maps them back to data-graph ids (ascending, so
    the mapping is deterministic), and ``owned_mask[local]`` says
    whether the vertex is owned (vs. halo replica).
    """

    shard_id: int
    graph: LabeledGraph
    local_to_global: np.ndarray
    owned_mask: np.ndarray

    @property
    def num_owned(self) -> int:
        return int(np.count_nonzero(self.owned_mask))

    @property
    def num_halo(self) -> int:
        return int(len(self.local_to_global)) - self.num_owned

    def to_global(self, match: tuple) -> tuple:
        """Translate a shard-local match tuple to data-graph ids."""
        l2g = self.local_to_global
        return tuple(int(l2g[v]) for v in match)


@dataclass
class ShardingInfo:
    """Aggregate sharding statistics (CLI ``shard-info``, benchmarks)."""

    num_shards: int
    halo_hops: int
    num_vertices: int
    num_edges: int
    owned_per_shard: List[int] = field(default_factory=list)
    halo_per_shard: List[int] = field(default_factory=list)
    edges_per_shard: List[int] = field(default_factory=list)

    @property
    def vertex_replication(self) -> float:
        """Sum of shard vertex counts over ``|V|`` (1.0 = no halo)."""
        if self.num_vertices == 0:
            return 1.0
        total = sum(self.owned_per_shard) + sum(self.halo_per_shard)
        return total / self.num_vertices

    @property
    def edge_replication(self) -> float:
        """Sum of shard edge counts over ``|E|``."""
        if self.num_edges == 0:
            return 1.0
        return sum(self.edges_per_shard) / self.num_edges


class ShardedGraph:
    """One data graph split into owned-plus-halo shard subgraphs.

    Parameters
    ----------
    graph:
        The data graph ``G``.
    num_shards:
        Shard count; must be >= 1.  Vertex ownership is
        :func:`block_hash_owners`.
    partitioner:
        Must be ``"hash"``, the one ownership rule; any other value
        raises :class:`ValueError`.
    halo_hops:
        Replication depth ``h``: each shard includes every vertex
        within ``h`` hops of its owned set.  Queries of radius up to
        ``h`` can be answered shard-locally (see the module docstring);
        deeper queries are rejected by the engine.  Defaults to the
        bound for the repo-wide default query size.
    """

    def __init__(self, graph: LabeledGraph, num_shards: int,
                 partitioner: str = "hash",
                 halo_hops: Optional[int] = None) -> None:
        if num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {num_shards}")
        if partitioner != "hash":
            raise ValueError(
                f"unknown partitioner {partitioner!r}; ownership is "
                f"always 'hash'")
        if halo_hops is None:
            halo_hops = halo_hops_for_query_vertices(DEFAULT_QUERY_VERTICES)
        if halo_hops < 0:
            raise ValueError(f"halo_hops must be >= 0, got {halo_hops}")
        if graph.num_vertices == 0:
            raise GraphError("cannot shard an empty graph")

        self.graph = graph
        self.num_shards = num_shards
        self.halo_hops = halo_hops
        #: owner shard id per global vertex
        self.owner = block_hash_owners(graph.num_vertices, num_shards)

        edge_arr = np.array([(u, v, lab) for u, v, lab in graph.edges()],
                            dtype=np.int64).reshape(-1, 3)
        self.shards: List[Shard] = [
            self._build_shard(s, edge_arr) for s in range(num_shards)]

    # ------------------------------------------------------------------

    def _halo_members(self, owned: np.ndarray) -> np.ndarray:
        """Owned vertices plus everything within ``halo_hops`` hops."""
        graph = self.graph
        member = np.zeros(graph.num_vertices, dtype=bool)
        member[owned] = True
        frontier = owned
        for _ in range(self.halo_hops):
            nxt: List[np.ndarray] = []
            for v in frontier:
                nbrs = graph.neighbors(int(v))
                if len(nbrs):
                    nxt.append(np.asarray(nbrs))
            if not nxt:
                break
            cand = np.unique(np.concatenate(nxt))
            fresh = cand[~member[cand]]
            if not len(fresh):
                break
            member[fresh] = True
            frontier = fresh
        return np.where(member)[0]

    def _build_shard(self, shard_id: int, edge_arr: np.ndarray) -> Shard:
        owned = np.where(self.owner == shard_id)[0]
        members = self._halo_members(owned)
        member_mask = np.zeros(self.graph.num_vertices, dtype=bool)
        member_mask[members] = True
        g2l = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        g2l[members] = np.arange(len(members), dtype=np.int64)

        if len(edge_arr):
            keep = member_mask[edge_arr[:, 0]] & member_mask[edge_arr[:, 1]]
            kept = edge_arr[keep]
            local_edges = np.column_stack([
                g2l[kept[:, 0]], g2l[kept[:, 1]], kept[:, 2]])
        else:
            local_edges = edge_arr
        sub = LabeledGraph(self.graph.vertex_labels[members], local_edges)
        owned_mask = np.zeros(len(members), dtype=bool)
        owned_mask[g2l[owned]] = True
        return Shard(shard_id=shard_id, graph=sub,
                     local_to_global=members, owned_mask=owned_mask)

    # ------------------------------------------------------------------

    def info(self) -> ShardingInfo:
        """Aggregate replication / balance statistics."""
        return ShardingInfo(
            num_shards=self.num_shards,
            halo_hops=self.halo_hops,
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            owned_per_shard=[s.num_owned for s in self.shards],
            halo_per_shard=[s.num_halo for s in self.shards],
            edges_per_shard=[s.graph.num_edges for s in self.shards])

    def validate(self) -> Dict[str, str]:
        """Structural self-check; returns ``{}`` when consistent.

        Checks that ownership is a partition of ``V(G)``, that every
        shard contains each owned vertex's full ``halo_hops``-hop ball,
        and that shard subgraphs agree with ``G`` on every edge they
        materialize.
        """
        problems: Dict[str, str] = {}
        counts = np.bincount(self.owner, minlength=self.num_shards)
        if int(counts.sum()) != self.graph.num_vertices:
            problems["ownership"] = "owner array does not cover V(G)"
        for shard in self.shards:
            owned_global = shard.local_to_global[shard.owned_mask]
            ball = self._halo_members(owned_global)
            members = set(int(v) for v in shard.local_to_global)
            missing = [int(v) for v in ball if int(v) not in members]
            if missing:
                problems[f"shard{shard.shard_id}"] = (
                    f"halo missing vertices {missing[:5]}")
            for u, v, lab in shard.graph.edges():
                gu = int(shard.local_to_global[u])
                gv = int(shard.local_to_global[v])
                if (not self.graph.has_edge(gu, gv)
                        or self.graph.edge_label(gu, gv) != lab):
                    problems[f"shard{shard.shard_id}/edges"] = (
                        f"edge ({gu}, {gv}) diverges from G")
                    break
        return problems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.info()
        return (f"ShardedGraph(shards={self.num_shards}, "
                f"halo={self.halo_hops}, "
                f"replication={info.vertex_replication:.2f}x)")
