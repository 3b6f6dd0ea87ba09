"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import settings

from repro.core import kernels
from repro.core.stl import StableTreeLabelling
from repro.graph.generators import (
    city_road_network,
    grid_road_network,
    paper_example_graph,
    random_connected_graph,
)
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions

#: The suite's property tests draw the same examples on every run, with no
#: example database: a red run reproduces, and a rare failing draw cannot be
#: saved into the git-ignored ``.hypothesis/`` and replayed forever.
#: ``pytest --hypothesis-profile=default`` searches with fresh randomness.
settings.register_profile("derandomized", derandomize=True, database=None)


def pytest_configure(config):
    settings.load_profile(config.getoption("hypothesis_profile") or "derandomized")


def nx_all_pairs(graph: Graph) -> dict[int, dict[int, float]]:
    """All-pairs shortest-path distances via networkx (ground truth)."""
    return dict(nx.all_pairs_dijkstra_path_length(graph.to_networkx()))


def nx_distance(graph: Graph, s: int, t: int) -> float:
    """Single-pair ground-truth distance (inf when disconnected)."""
    nx_graph = graph.to_networkx()
    try:
        return nx.dijkstra_path_length(nx_graph, s, t)
    except nx.NetworkXNoPath:
        return math.inf


def assert_distances_match(expected: float, actual: float, context: str = "") -> None:
    """Assert two distances agree, treating inf exactly."""
    if math.isinf(expected) or math.isinf(actual):
        assert expected == actual, f"{context}: expected {expected}, got {actual}"
    else:
        assert abs(expected - actual) < 1e-9, f"{context}: expected {expected}, got {actual}"


def random_mixed_batch(graph: Graph, num_updates: int, seed: int) -> UpdateBatch:
    """A batch whose chains repeatedly hit the same edges with both kinds.

    Each update replaces a random edge's *current* weight (tracked across
    the batch, so chains stay valid) with a fresh uniform draw -- the mix of
    increases, decreases and repeated edges the batch engines must coalesce.
    Shared by the shard, parallel and engine-equivalence suites.
    """
    rng = random.Random(seed)
    edges = list(graph.edges())
    current = {(u, v): w for u, v, w in edges}
    batch = UpdateBatch()
    for _ in range(num_updates):
        u, v, _ = edges[rng.randrange(len(edges))]
        old = current[(u, v)]
        new = round(rng.uniform(0.5, 40.0), 1)
        batch.append(EdgeUpdate(u, v, old, new))
        current[(u, v)] = new
    return batch


def paired_indexes(
    graph: Graph, leaf_size: int = 8
) -> tuple[StableTreeLabelling, StableTreeLabelling]:
    """Two indexes sharing one hierarchy/label build, on independent graphs.

    The hierarchy is weight-independent and safe to share; the graph and the
    labels are copied so the two indexes maintain fully independent state --
    the setup every cross-engine comparison test starts from.
    """
    serial = StableTreeLabelling.build(graph.copy(), HierarchyOptions(leaf_size=leaf_size))
    other = StableTreeLabelling(graph.copy(), serial.hierarchy, serial.labels.copy())
    return serial, other


def apply_batch_without_numpy(stl: StableTreeLabelling, batch, config=None):
    """``stl.apply_batch`` with numpy switched off for the call.

    The batched Label Search engine then runs its scalar heaps, as on an
    interpreter without numpy: its kernel follows the platform, and no
    config option pins it.  The reference side of every scalar-vs-vector
    comparison goes through here.
    """
    with patch.object(kernels, "HAS_NUMPY", False):
        return stl.apply_batch(batch, config=config)


@pytest.fixture
def triangle_graph() -> Graph:
    """A 3-cycle with distinct weights."""
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])


@pytest.fixture
def path_graph() -> Graph:
    """A 6-vertex path with unit weights."""
    return Graph.from_edges(6, [(i, i + 1, 1.0) for i in range(5)])


@pytest.fixture
def small_grid() -> Graph:
    """An 8x8 perturbed grid road network."""
    return grid_road_network(8, 8, seed=7)


@pytest.fixture
def medium_grid() -> Graph:
    """A 12x12 perturbed grid road network."""
    return grid_road_network(12, 12, seed=11)


@pytest.fixture
def small_city() -> Graph:
    """A small two-city road network with highways."""
    return city_road_network(num_cities=2, city_rows=6, city_cols=6, seed=3)


@pytest.fixture
def small_random() -> Graph:
    """A 40-vertex random connected graph with integer weights."""
    return random_connected_graph(40, 0.08, seed=5)


@pytest.fixture
def paper_graph() -> Graph:
    """The 16-vertex example network from Figure 2 of the paper."""
    return paper_example_graph()


@pytest.fixture(params=[0, 1, 2])
def seeded_random_graph(request) -> Graph:
    """Three random connected graphs with different seeds."""
    return random_connected_graph(35, 0.1, seed=request.param)
