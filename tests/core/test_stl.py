"""Unit tests for the StableTreeLabelling facade."""

import math

import pytest

from repro.core.labelling import verify_labels
from repro.core.stl import StableTreeLabelling
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.errors import UpdateError
from tests.conftest import nx_all_pairs


@pytest.fixture
def stl(small_grid):
    return StableTreeLabelling.build(small_grid, HierarchyOptions(leaf_size=8))


class TestBuildAndQuery:
    def test_queries_match_truth(self, stl):
        truth = nx_all_pairs(stl.graph)
        for s in range(0, stl.graph.num_vertices, 5):
            for t in range(0, stl.graph.num_vertices, 4):
                assert stl.query(s, t) == pytest.approx(truth[s].get(t, math.inf))

    def test_construction_time_recorded(self, stl):
        assert stl.construction_seconds > 0

    def test_batch_query(self, stl):
        assert stl.batch_query([(0, 0), (0, 1)])[0] == 0.0

    def test_batch_query_entry_points_agree(self, stl):
        """The facade delegates to core.query.batch_query; both must match."""
        from repro.core.query import batch_query

        pairs = [(0, 5), (3, 17), (2, 2), (7, 40)]
        assert stl.batch_query(pairs) == batch_query(stl.hierarchy, stl.labels, pairs)
        assert stl.batch_query(iter(pairs)) == [stl.query(s, t) for s, t in pairs]

    def test_query_rejects_negative_ids(self, stl):
        with pytest.raises(IndexError):
            stl.query(-1, 5)

    def test_query_with_hub(self, stl):
        distance, hub = stl.query_with_hub(0, stl.graph.num_vertices - 1)
        assert distance > 0
        assert hub >= 0

    def test_stats(self, stl):
        stats = stl.stats()
        assert stats.num_label_entries == stl.labels.num_entries()
        assert stats.tree_height == stl.hierarchy.height
        assert stats.average_label_length > 1
        assert "STL" in stats.method
        assert stats.as_row()["tree height"] == str(stl.hierarchy.height)

    def test_rebuild_gives_equivalent_labels(self, stl):
        rebuilt = stl.rebuild(HierarchyOptions(leaf_size=8))
        truth = nx_all_pairs(stl.graph)
        for s in range(0, stl.graph.num_vertices, 9):
            for t in range(0, stl.graph.num_vertices, 9):
                assert rebuilt.query(s, t) == pytest.approx(truth[s].get(t, math.inf))


class TestMaintenanceModes:
    def test_default_is_label_search(self, stl):
        assert stl.maintenance_mode == "label_search"

    def test_switch_to_label_search(self, stl):
        stl.set_maintenance("label_search")
        assert stl.maintenance_mode == "label_search"
        u, v, w = next(iter(stl.graph.edges()))
        stl.increase_edge(u, v, w * 2)
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_invalid_mode_rejected(self, stl):
        with pytest.raises(ValueError):
            stl.set_maintenance("magic")

    @pytest.mark.parametrize("mode", ["pareto", "label_search"])
    def test_build_with_mode(self, small_grid, mode):
        index = StableTreeLabelling.build(small_grid.copy(), maintenance=mode)
        assert index.maintenance_mode == mode


class TestMaintenanceOperations:
    def test_increase_edge(self, stl):
        u, v, w = next(iter(stl.graph.edges()))
        stl.increase_edge(u, v, w * 2)
        assert stl.graph.weight(u, v) == w * 2
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_decrease_edge(self, stl):
        u, v, w = max(stl.graph.edges(), key=lambda e: e[2])
        stl.decrease_edge(u, v, 1.0)
        assert stl.graph.weight(u, v) == 1.0
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_increase_edge_validates_direction(self, stl):
        u, v, w = next(iter(stl.graph.edges()))
        with pytest.raises(UpdateError):
            stl.increase_edge(u, v, w / 2)

    def test_decrease_edge_validates_direction(self, stl):
        u, v, w = next(iter(stl.graph.edges()))
        with pytest.raises(UpdateError):
            stl.decrease_edge(u, v, w * 2)

    def test_apply_update_neutral_is_noop(self, stl):
        u, v, w = next(iter(stl.graph.edges()))
        stats = stl.apply_update(EdgeUpdate(u, v, w, w))
        assert stats.labels_changed == 0

    def test_apply_batch_mixed(self, stl):
        edges = list(stl.graph.edges())[:4]
        updates = [EdgeUpdate(u, v, w, w * 2) for u, v, w in edges[:2]]
        updates += [EdgeUpdate(u, v, w, max(1.0, w / 2)) for u, v, w in edges[2:]]
        stats = stl.apply_batch(updates)
        assert stats.updates_processed == 4
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_remove_edge(self, stl):
        truth_before = nx_all_pairs(stl.graph)
        u, v, w = next(iter(stl.graph.edges()))
        stl.remove_edge(u, v)
        assert math.isinf(stl.graph.weight(u, v))
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []
        # Removing an edge can only make distances larger.
        assert stl.query(u, v) >= truth_before[u][v] - 1e-9
        # A second removal is a no-op.
        stats = stl.remove_edge(u, v)
        assert stats.updates_processed == 0

    def test_queries_track_truth_through_updates(self, stl):
        edges = list(stl.graph.edges())
        for u, v, w in edges[:3]:
            stl.increase_edge(u, v, w * 2)
        for u, v, _ in edges[:3]:
            stl.decrease_edge(u, v, 2.0)
        truth = nx_all_pairs(stl.graph)
        for s in range(0, stl.graph.num_vertices, 8):
            for t in range(0, stl.graph.num_vertices, 7):
                assert stl.query(s, t) == pytest.approx(truth[s].get(t, math.inf))
