"""Unit tests for Label Search maintenance (Algorithms 1 and 2)."""

import math
import random

import pytest

from repro.core.batch_label_search import BatchedLabelSearchEngine
from repro.core.label_search import LabelSearchDecrease, LabelSearchIncrease
from repro.core.labelling import build_labels, verify_labels
from repro.core.query import query_distance
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions, build_hierarchy
from repro.utils.errors import UpdateError
from tests.conftest import nx_all_pairs, random_mixed_batch


def _build(graph, leaf_size=8):
    hierarchy = build_hierarchy(graph, HierarchyOptions(leaf_size=leaf_size))
    labels = build_labels(graph, hierarchy)
    return hierarchy, labels


def _assert_labels_exact(graph, hierarchy, labels):
    problems = verify_labels(graph, hierarchy, labels)
    assert problems == [], problems[:5]


class TestDecrease:
    def test_single_decrease_matches_rebuild(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        LabelSearchDecrease(small_grid, hierarchy, labels).apply(
            EdgeUpdate(u, v, w, max(1.0, w / 2))
        )
        _assert_labels_exact(small_grid, hierarchy, labels)

    def test_decrease_changes_queries(self, small_grid):
        hierarchy, labels = _build(small_grid)
        # Pick the heaviest edge and make it nearly free: some query must improve.
        u, v, w = max(small_grid.edges(), key=lambda e: e[2])
        before = query_distance(hierarchy, labels, u, v)
        LabelSearchDecrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, 1.0))
        after = query_distance(hierarchy, labels, u, v)
        assert after <= before
        assert after == 1.0

    def test_no_op_decrease_changes_nothing(self, small_grid):
        hierarchy, labels = _build(small_grid)
        snapshot = labels.copy()
        u, v, w = next(iter(small_grid.edges()))
        # Decrease to a value still larger than any alternative path won't
        # change labels if the edge was not on any shortest path; either way,
        # labels must remain exact.
        LabelSearchDecrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w * 0.999))
        _assert_labels_exact(small_grid, hierarchy, labels)
        assert labels.num_entries() == snapshot.num_entries()

    def test_batch_decrease(self, small_grid):
        hierarchy, labels = _build(small_grid)
        edges = list(small_grid.edges())[:5]
        updates = [EdgeUpdate(u, v, w, max(1.0, w / 3)) for u, v, w in edges]
        stats = LabelSearchDecrease(small_grid, hierarchy, labels).apply(updates)
        assert stats.updates_processed == 5
        _assert_labels_exact(small_grid, hierarchy, labels)

    def test_rejects_increase(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        with pytest.raises(UpdateError):
            LabelSearchDecrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w * 2))


class TestIncrease:
    def test_single_increase_matches_rebuild(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        LabelSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w * 3))
        _assert_labels_exact(small_grid, hierarchy, labels)

    def test_increase_then_queries_match_truth(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = min(small_grid.edges(), key=lambda e: e[2])
        LabelSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w * 10))
        truth = nx_all_pairs(small_grid)
        for s in range(0, small_grid.num_vertices, 6):
            for t in range(0, small_grid.num_vertices, 5):
                assert query_distance(hierarchy, labels, s, t) == pytest.approx(
                    truth[s].get(t, math.inf)
                )

    def test_batch_increase(self, small_grid):
        hierarchy, labels = _build(small_grid)
        edges = list(small_grid.edges())[:5]
        updates = [EdgeUpdate(u, v, w, w * 2) for u, v, w in edges]
        LabelSearchIncrease(small_grid, hierarchy, labels).apply(updates)
        _assert_labels_exact(small_grid, hierarchy, labels)

    def test_increase_to_infinity_models_deletion(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        LabelSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, math.inf))
        _assert_labels_exact(small_grid, hierarchy, labels)

    def test_rejects_decrease(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        with pytest.raises(UpdateError):
            LabelSearchIncrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, w / 2))


class TestRandomisedSequences:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_long_mixed_sequence_stays_exact(self, small_city, seed):
        hierarchy, labels = _build(small_city, leaf_size=6)
        decrease = LabelSearchDecrease(small_city, hierarchy, labels)
        increase = LabelSearchIncrease(small_city, hierarchy, labels)
        rng = random.Random(seed)
        edges = list(small_city.edges())
        for step in range(20):
            u, v, _ = edges[rng.randrange(len(edges))]
            w = small_city.weight(u, v)
            if rng.random() < 0.5:
                increase.apply(EdgeUpdate(u, v, w, w * rng.choice([2.0, 3.0])))
            else:
                decrease.apply(EdgeUpdate(u, v, w, max(1.0, w // 2)))
            if step % 5 == 4:
                _assert_labels_exact(small_city, hierarchy, labels)
        _assert_labels_exact(small_city, hierarchy, labels)

    def test_stats_are_populated(self, small_grid):
        hierarchy, labels = _build(small_grid)
        u, v, w = next(iter(small_grid.edges()))
        stats = LabelSearchDecrease(small_grid, hierarchy, labels).apply(EdgeUpdate(u, v, w, 1.0))
        assert stats.updates_processed == 1
        assert stats.heap_pushes >= 0
        merged = stats
        merged.merge(stats)
        assert merged.updates_processed == 2


class TestBatchedEngine:
    """Regression coverage for the batched Label Search engine (PR 7)."""

    def test_repeated_batches_stay_exact(self, small_grid):
        """Label Search mirror of the sharded engine's regression: repeated
        mixed batches land on labels whose entries were rewritten by earlier
        repairs, so a marking predicate that is too strict silently loses
        increase deltas only from round two onward.  The exact marks do not,
        because every repair writes the build's bytes."""
        hierarchy, labels = _build(small_grid)
        engine = BatchedLabelSearchEngine(small_grid, hierarchy, labels)
        for round_ in range(3):
            batch = random_mixed_batch(small_grid, 40, seed=round_)
            engine.apply(batch.coalesce(small_grid).updates)
            _assert_labels_exact(small_grid, hierarchy, labels)

    def test_matches_per_kind_classes(self, small_grid):
        """The batch lift changes scheduling, not results: one mixed batch
        through the engine equals the per-kind classes applied serially."""
        hierarchy, labels = _build(small_grid)
        other = small_grid.copy()
        other_labels = labels.copy()
        engine = BatchedLabelSearchEngine(small_grid, hierarchy, labels)
        batch = random_mixed_batch(small_grid, 30, seed=9).coalesce(small_grid)
        engine.apply(batch.updates)
        increases = batch.increases()
        decreases = batch.decreases()
        if len(increases):
            LabelSearchIncrease(other, hierarchy, other_labels).apply(increases)
        if len(decreases):
            LabelSearchDecrease(other, hierarchy, other_labels).apply(decreases)
        assert labels.differences(other_labels) == []
