"""Sharded execution: partitioned columns, zone-map routing, per-shard
progressive indexes (optionally built on threads) and a pooled
interactivity budget."""

from repro.shard.column import (
    ShardedColumn,
    ShardedDelta,
    ShardSet,
    shard_column,
    shard_table,
)
from repro.shard.executor import ShardExecutor
from repro.shard.index import ShardedIndex, build_sharded_index, merge_phase
from repro.shard.partition import ShardLayout, build_layout
from repro.shard.router import ShardRouter

__all__ = [
    "ShardLayout",
    "ShardRouter",
    "ShardExecutor",
    "ShardSet",
    "ShardedColumn",
    "ShardedDelta",
    "ShardedIndex",
    "build_layout",
    "build_sharded_index",
    "merge_phase",
    "shard_column",
    "shard_table",
]
