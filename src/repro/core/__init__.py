"""Stable Tree Labelling: construction, queries and dynamic maintenance."""

from repro.core.batch import BatchedParetoEngine, BatchPolicy
from repro.core.labelling import STLLabels, build_labels
from repro.core.query import query_distance
from repro.core.shard import (
    SerialShardBackend,
    ShardBackend,
    ShardedBatchEngine,
    ShardPlan,
    ShardPlanner,
    create_backend,
)
from repro.core.stl import StableTreeLabelling
from repro.core.label_search import LabelSearchDecrease, LabelSearchIncrease
from repro.core.parallel import ProcessShardBackend
from repro.core.pareto_search import ParetoSearchDecrease, ParetoSearchIncrease

__all__ = [
    "BatchPolicy",
    "BatchedParetoEngine",
    "STLLabels",
    "build_labels",
    "query_distance",
    "SerialShardBackend",
    "ShardBackend",
    "ShardedBatchEngine",
    "ShardPlan",
    "ShardPlanner",
    "create_backend",
    "ProcessShardBackend",
    "StableTreeLabelling",
    "LabelSearchDecrease",
    "LabelSearchIncrease",
    "ParetoSearchDecrease",
    "ParetoSearchIncrease",
]
