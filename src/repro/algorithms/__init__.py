"""Search-based shortest-path algorithms (ground truth and query baselines)."""

from repro.algorithms.dijkstra import (
    dijkstra,
    dijkstra_distance,
    dijkstra_rank_restricted,
    dijkstra_with_target,
)
from repro.algorithms.bidirectional import bidirectional_dijkstra
from repro.algorithms.bfs import bfs_distances, bfs_order, double_sweep_pseudo_peripheral

__all__ = [
    "dijkstra",
    "dijkstra_distance",
    "dijkstra_rank_restricted",
    "dijkstra_with_target",
    "bidirectional_dijkstra",
    "bfs_distances",
    "bfs_order",
    "double_sweep_pseudo_peripheral",
]
