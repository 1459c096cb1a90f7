"""Sharded graph subsystem: block-hash vertex ownership, shards with
halo replication, and a scatter-gather query coordinator.

See :mod:`repro.shard.sharded_graph` for the ownership rule and the
replication/ownership correctness argument, and
:mod:`repro.shard.engine` for the coordinator.
"""

from repro.shard.engine import (
    ShardedEngine,
    ShardedItem,
    ShardedPrepared,
    ShardQueryStats,
    ShardReport,
    query_center,
)
from repro.shard.sharded_graph import (
    Shard,
    ShardedGraph,
    ShardingInfo,
    halo_hops_for_query_vertices,
)

__all__ = [
    "Shard",
    "ShardedEngine",
    "ShardedGraph",
    "ShardedItem",
    "ShardedPrepared",
    "ShardQueryStats",
    "ShardReport",
    "ShardingInfo",
    "halo_hops_for_query_vertices",
    "query_center",
]
