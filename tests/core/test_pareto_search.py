"""Unit tests for Pareto Search maintenance (Algorithms 3-5).

Pareto writes differently associated sums, so its output is compared with
:func:`repro.core.pareto_search.slack_differences` -- the package's one
float tolerance, which lives beside the Pareto marks that need it.
"""

import math
import random
from array import array

import pytest

from repro.core import kernels
from repro.core.label_search import LabelSearchDecrease, LabelSearchIncrease
from repro.core.labelling import STLLabels, build_labels
from repro.core.pareto_search import (
    MARK_SLACK,
    ParetoSearchDecrease,
    ParetoSearchIncrease,
    _realises,
    interval_hit_levels,
    on_old_shortest_path,
    slack_differences,
)
from repro.core.query import query_distance
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions, build_hierarchy
from repro.utils.errors import UpdateError
from tests.conftest import nx_all_pairs, slack_from_rebuild

needs_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="requires numpy (repro[fast])")


def _build(graph, leaf_size=8):
    hierarchy = build_hierarchy(graph, HierarchyOptions(leaf_size=leaf_size))
    labels = build_labels(graph, hierarchy)
    return hierarchy, labels


def _assert_matches_rebuild(graph, hierarchy, labels):
    problems = slack_from_rebuild(graph, hierarchy, labels)
    assert problems == [], problems[:5]


class TestParetoDecrease:
    def test_single_decrease_matches_rebuild(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = max(small_grid.edges(), key=lambda e: e[2])
        ParetoSearchDecrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, 1.0))
        _assert_matches_rebuild(small_grid, hierarchy, labels)

    def test_matches_label_search_result(self, small_grid):
        hierarchy_a, labels_a = _build(small_grid)
        graph_b = small_grid.copy()
        hierarchy_b, labels_b = hierarchy_a, labels_a.copy()
        u, v, w = list(small_grid.edges())[3]
        update = EdgeUpdate(u, v, w, max(1.0, w / 2))
        ParetoSearchDecrease(small_grid, hierarchy_a, labels_a).apply(update)
        LabelSearchDecrease(graph_b, hierarchy_b, labels_b).apply(update)
        assert slack_differences(labels_a, labels_b) == []

    def test_rejects_increase(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        with pytest.raises(UpdateError):
            ParetoSearchDecrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w * 2))

    def test_sequence_of_decreases(self, small_grid):
        hierarchy, labels = _build(small_grid)
        maintainer = ParetoSearchDecrease(small_grid, hierarchy, labels)
        for u, v, w in list(small_grid.edges())[:8]:
            maintainer.apply(EdgeUpdate(u, v, w, max(1.0, w // 2)))
        _assert_matches_rebuild(small_grid, hierarchy, labels)


class TestParetoIncrease:
    def test_single_increase_matches_rebuild(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = min(small_grid.edges(), key=lambda e: e[2])
        ParetoSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w * 4))
        _assert_matches_rebuild(small_grid, hierarchy, labels)

    def test_matches_label_search_result(self, small_grid):
        hierarchy_a, labels_a = _build(small_grid)
        graph_b = small_grid.copy()
        labels_b = labels_a.copy()
        u, v, w = list(small_grid.edges())[5]
        update = EdgeUpdate(u, v, w, w * 3)
        ParetoSearchIncrease(small_grid, hierarchy_a, labels_a).apply(update)
        LabelSearchIncrease(graph_b, hierarchy_a, labels_b).apply(update)
        assert slack_differences(labels_a, labels_b) == []

    def test_increase_to_infinity(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        ParetoSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, math.inf))
        _assert_matches_rebuild(small_grid, hierarchy, labels)

    def test_rejects_decrease(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        with pytest.raises(UpdateError):
            ParetoSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w / 2))

    def test_queries_match_truth_after_increase(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = min(small_grid.edges(), key=lambda e: e[2])
        ParetoSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w * 8))
        truth = nx_all_pairs(small_grid)
        for s in range(0, small_grid.num_vertices, 7):
            for t in range(0, small_grid.num_vertices, 6):
                assert query_distance(hierarchy, labels, s, t) == pytest.approx(
                    truth[s].get(t, math.inf)
                )


class TestRandomisedSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_mixed_sequence_stays_exact(self, small_city, seed):
        graph = small_city.copy()
        hierarchy, labels = _build(graph, leaf_size=6)
        decrease = ParetoSearchDecrease(graph, hierarchy, labels)
        increase = ParetoSearchIncrease(graph, hierarchy, labels)
        rng = random.Random(seed)
        edges = list(graph.edges())
        for step in range(24):
            u, v, _ = edges[rng.randrange(len(edges))]
            w = graph.weight(u, v)
            if rng.random() < 0.5:
                increase.apply(EdgeUpdate(u, v, w, w * rng.choice([2.0, 3.0, 5.0])))
            else:
                decrease.apply(EdgeUpdate(u, v, w, max(1.0, w // 2)))
            if step % 6 == 5:
                _assert_matches_rebuild(graph, hierarchy, labels)
        _assert_matches_rebuild(graph, hierarchy, labels)

    def test_restore_cycle_returns_to_original_labels(self, small_grid):
        """Doubling then restoring every edge weight must restore the labels."""
        hierarchy, labels = _build(small_grid)
        original = labels.copy()
        increase = ParetoSearchIncrease(small_grid, hierarchy, labels)
        decrease = ParetoSearchDecrease(small_grid, hierarchy, labels)
        edges = list(small_grid.edges())[:10]
        for u, v, w in edges:
            increase.apply(EdgeUpdate(u, v, w, w * 2))
        for u, v, w in edges:
            decrease.apply(EdgeUpdate(u, v, w * 2, w))
        assert slack_differences(labels, original) == []


class TestOnOldShortestPath:
    """The package's one float tolerance: ``MARK_SLACK * max(1.0, entry)``."""

    def test_relative_at_large_magnitude(self):
        # The Pareto / rebuild pair of the pinned property-test stream: one
        # ulp apart at 1e15, far beyond any absolute 1e-9.
        assert on_old_shortest_path(1000000000000038.5, 1000000000000038.6)
        bound = MARK_SLACK * 1e15
        assert on_old_shortest_path(1e15 + 0.5 * bound, 1e15)
        assert not on_old_shortest_path(1e15 + 2.0 * bound, 1e15)

    def test_absolute_floor_below_one(self):
        for entry in (0.0, 0.5, 1.0):
            assert on_old_shortest_path(entry + 0.5 * MARK_SLACK, entry)
            assert not on_old_shortest_path(entry + 2.0 * MARK_SLACK, entry)

    @needs_numpy
    def test_row_predicate_matches_scalar(self):
        import numpy as np

        entries = [0.0, 0.5, 1.0, 7.25, 1e6, 1e15]
        offsets = [0.0, 0.4, 0.6, 2.0, 1e3]
        candidate = [e + o * MARK_SLACK * max(1.0, e) for e in entries for o in offsets]
        entry = [e for e in entries for _ in offsets]
        vector = _realises(np.asarray(candidate), np.asarray(entry))
        assert list(vector) == [on_old_shortest_path(c, e) for c, e in zip(candidate, entry)]

    def test_interval_kernel_short_span_falls_back(self):
        row = array("d", [0.0, 1.0])
        assert interval_hit_levels(1.0, row, row, 0, 1) is None

    def test_slack_differences_forgive_an_ulp_and_nothing_else(self):
        """``slack_differences`` forgives what ``equals`` does not: finite
        pairs within the slack.  ``inf`` mismatches and missing entries
        still count."""
        entry = 1e15
        one_ulp = math.nextafter(entry, math.inf)
        mine = STLLabels([[0.0, one_ulp], [math.inf]])
        assert not mine.equals(STLLabels([[0.0, entry], [math.inf]]))
        assert slack_differences(mine, STLLabels([[0.0, entry], [math.inf]])) == []
        assert slack_differences(mine, STLLabels([[0.0, entry], [7.0]])) == [(1, 0, math.inf, 7.0)]
        assert len(slack_differences(mine, STLLabels([[0.0, entry]]))) == 1
