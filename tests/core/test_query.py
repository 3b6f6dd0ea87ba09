"""Unit tests for STL distance queries (Equation 3, Lemma 4.7)."""

import math

import pytest

from repro.core import kernels
from repro.core.labelling import build_labels
from repro.core.query import batch_query, query_distance, query_with_hub
from repro.graph.graph import Graph
from repro.hierarchy.builder import HierarchyOptions, build_hierarchy
from tests.conftest import nx_all_pairs


@pytest.fixture
def built(small_grid):
    hierarchy = build_hierarchy(small_grid, HierarchyOptions(leaf_size=8))
    labels = build_labels(small_grid, hierarchy)
    return small_grid, hierarchy, labels


def test_all_pairs_match_dijkstra(built):
    graph, hierarchy, labels = built
    truth = nx_all_pairs(graph)
    for s in graph.vertices():
        for t in graph.vertices():
            expected = truth[s].get(t, math.inf)
            assert query_distance(hierarchy, labels, s, t) == pytest.approx(expected)


def test_query_is_symmetric(built):
    graph, hierarchy, labels = built
    for s, t in [(0, 10), (5, 40), (13, 27)]:
        assert query_distance(hierarchy, labels, s, t) == query_distance(hierarchy, labels, t, s)


def test_same_vertex_is_zero(built):
    _, hierarchy, labels = built
    assert query_distance(hierarchy, labels, 7, 7) == 0.0


def test_disconnected_pairs_return_inf():
    graph = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    hierarchy = build_hierarchy(graph, HierarchyOptions(leaf_size=2))
    labels = build_labels(graph, hierarchy)
    assert math.isinf(query_distance(hierarchy, labels, 0, 3))
    assert query_distance(hierarchy, labels, 0, 1) == 1.0


def test_query_with_hub_returns_valid_witness(built):
    graph, hierarchy, labels = built
    truth = nx_all_pairs(graph)
    for s, t in [(0, graph.num_vertices - 1), (3, 30)]:
        distance, hub = query_with_hub(hierarchy, labels, s, t)
        assert distance == pytest.approx(truth[s][t])
        assert 0 <= hub < hierarchy.num_common_ancestors(s, t)
        # The hub certificate decomposes the distance.
        assert labels[s][hub] + labels[t][hub] == pytest.approx(distance)


def test_negative_vertex_ids_rejected(built):
    """Regression: Python negative indexing used to answer for vertex n+s."""
    _, hierarchy, labels = built
    with pytest.raises(IndexError):
        query_distance(hierarchy, labels, -1, 5)
    with pytest.raises(IndexError):
        query_distance(hierarchy, labels, 5, -2)
    with pytest.raises(IndexError):
        query_with_hub(hierarchy, labels, -1, 5)
    # Even the s == t early-out must not accept negative ids.
    with pytest.raises(IndexError):
        query_distance(hierarchy, labels, -3, -3)


@pytest.mark.parametrize("pair", [(99, 99), (99, 3), (3, 99), (64, 0)])
def test_too_large_vertex_ids_rejected(built, pair):
    """Every query path raises the batch kernel's error for an id >= n:
    ``s == t`` used to answer ``0.0``, other pairs a bare list IndexError."""
    graph, hierarchy, labels = built
    n = graph.num_vertices
    assert n == 64
    message = f"vertex id out of range for {n} vertices: \\({pair[0]}, {pair[1]}\\)"
    with pytest.raises(IndexError, match=message):
        query_distance(hierarchy, labels, *pair)
    with pytest.raises(IndexError, match=message):
        query_with_hub(hierarchy, labels, *pair)
    for kernel in ("scalar", "vector") if kernels.HAS_NUMPY else ("scalar",):
        with pytest.raises(IndexError, match=message):
            batch_query(hierarchy, labels, [pair], kernel=kernel)


def test_batch_query(built):
    graph, hierarchy, labels = built
    pairs = [(0, 5), (1, 9), (2, 2)]
    results = batch_query(hierarchy, labels, pairs)
    assert len(results) == 3
    assert results[2] == 0.0


def test_paper_example_all_pairs(paper_graph):
    hierarchy = build_hierarchy(paper_graph, HierarchyOptions(leaf_size=3))
    labels = build_labels(paper_graph, hierarchy)
    truth = nx_all_pairs(paper_graph)
    for s in paper_graph.vertices():
        for t in paper_graph.vertices():
            assert query_distance(hierarchy, labels, s, t) == pytest.approx(truth[s][t])
