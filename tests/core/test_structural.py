"""Unit tests for structural updates (Section 8: insertions and deletions)."""

import math

import pytest

from repro.core.batch import BatchPolicy
from repro.core.config import STLConfig
from repro.core.labelling import verify_labels
from repro.core.stl import StableTreeLabelling
from repro.core.structural import StructuralUpdater
from repro.graph.generators import grid_road_network
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions
from tests.conftest import nx_all_pairs


@pytest.fixture
def stl(small_grid):
    return StableTreeLabelling.build(small_grid, HierarchyOptions(leaf_size=8))


def _assert_queries_match_truth(stl):
    truth = nx_all_pairs(stl.graph)
    for s in range(0, stl.graph.num_vertices, 9):
        for t in range(0, stl.graph.num_vertices, 8):
            expected = truth[s].get(t, math.inf)
            assert stl.query(s, t) == pytest.approx(expected)


class TestDeletions:
    def test_delete_edge(self, stl):
        updater = StructuralUpdater(stl)
        u, v, _ = next(iter(stl.graph.edges()))
        updater.delete_edge(u, v)
        assert math.isinf(stl.graph.weight(u, v))
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []
        _assert_queries_match_truth(stl)

    def test_delete_vertex_disconnects_it(self, stl):
        updater = StructuralUpdater(stl)
        victim = 10
        updater.delete_vertex(victim)
        for nbr, weight in stl.graph.neighbors(victim):
            assert math.isinf(weight)
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []
        other = 0 if victim != 0 else 1
        assert math.isinf(stl.query(victim, other))


class TestInsertions:
    def test_reinsert_deleted_edge(self, stl):
        updater = StructuralUpdater(stl)
        u, v, w = next(iter(stl.graph.edges()))
        updater.delete_edge(u, v)
        updater.insert_edge(u, v, w)
        assert stl.graph.weight(u, v) == w
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []
        _assert_queries_match_truth(stl)

    def test_insert_edge_between_comparable_vertices(self, stl):
        hierarchy = stl.hierarchy
        graph = stl.graph
        pair = None
        for v in graph.vertices():
            chain = hierarchy.ancestors(v)
            for ancestor in chain[:-1]:
                if not graph.has_edge(ancestor, v):
                    pair = (ancestor, v)
                    break
            if pair:
                break
        assert pair is not None
        updater = StructuralUpdater(stl)
        updater.insert_edge(pair[0], pair[1], 1.0)
        assert stl.graph.weight(*pair) == 1.0
        _assert_queries_match_truth(stl)

    def test_insert_edge_between_incomparable_vertices_rebuilds(self, stl):
        hierarchy = stl.hierarchy
        graph = stl.graph
        pair = None
        for u in graph.vertices():
            for v in graph.vertices():
                if u < v and not graph.has_edge(u, v):
                    if not hierarchy.precedes(u, v) and not hierarchy.precedes(v, u):
                        pair = (u, v)
                        break
            if pair:
                break
        assert pair is not None
        updater = StructuralUpdater(stl, HierarchyOptions(leaf_size=8))
        stats = updater.insert_edge(pair[0], pair[1], 2.0)
        assert stats.extra.get("rebuilds") == 1
        _assert_queries_match_truth(stl)

    def test_insert_existing_edge_with_larger_weight_rejected(self, stl):
        updater = StructuralUpdater(stl)
        u, v, w = next(iter(stl.graph.edges()))
        with pytest.raises(Exception):
            updater.insert_edge(u, v, w * 5)

    def test_insert_vertex(self, stl):
        updater = StructuralUpdater(stl, HierarchyOptions(leaf_size=8))
        old_n = stl.graph.num_vertices
        new_id = updater.insert_vertex([(0, 3.0), (5, 4.0)])
        assert new_id == old_n
        assert stl.graph.num_vertices == old_n + 1
        assert stl.query(new_id, 0) == pytest.approx(3.0)
        _assert_queries_match_truth(stl)


class TestShardedAfterStructuralRebuild:
    def test_thread_batch_after_insert_vertex_plans_over_the_new_graph(self):
        # The rebuild swaps in a graph with one more vertex; a shard planner
        # kept from before it maps only the old vertex set and indexed past
        # it on the first batch touching the new vertex.
        stl = StableTreeLabelling.build(
            grid_road_network(12, 12, seed=3), HierarchyOptions(leaf_size=8)
        )
        updater = StructuralUpdater(stl, HierarchyOptions(leaf_size=8))
        new_id = updater.insert_vertex([(0, 3.0), (5, 4.0), (17, 2.5)])
        updates = [
            EdgeUpdate(new_id, 0, 3.0, 6.0),
            EdgeUpdate(new_id, 5, 4.0, 1.5),
            EdgeUpdate(new_id, 17, 2.5, math.inf),
        ]
        config = STLConfig(backend="thread", policy=BatchPolicy(rebuild_fraction=None))
        stats = stl.apply_batch(updates, config=config)
        assert stats.extra["sharded"] == 1
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []
        _assert_queries_match_truth(stl)
