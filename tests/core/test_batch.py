"""Unit tests for the batched Pareto maintenance engine (core/batch.py)."""

import math
import random

import pytest

from repro.core.batch import BatchedParetoEngine, BatchPolicy
from repro.core.labelling import build_labels, verify_labels
from repro.core.stl import StableTreeLabelling
from repro.core.config import STLConfig
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from tests.conftest import nx_all_pairs, slack_from_rebuild
from tests.core.test_labelling import per_root_bytes


@pytest.fixture
def stl(small_grid):
    return StableTreeLabelling.build(small_grid, HierarchyOptions(leaf_size=8))


def random_mixed_batch(graph, num_updates, seed):
    """A batch whose chains repeatedly hit the same edges with both kinds."""
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
    return batch, current


class TestBatchPolicy:
    def test_small_batches_never_rebuild(self):
        policy = BatchPolicy(rebuild_min_updates=64, rebuild_fraction=0.0)
        assert not policy.should_rebuild(63, 100)
        assert policy.should_rebuild(64, 100)

    def test_fraction_threshold(self):
        policy = BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.25)
        assert not policy.should_rebuild(25, 100)
        assert policy.should_rebuild(26, 100)

    def test_default_crossover_keeps_rush_hour_batches_maintained(self):
        """On the 10k benchmark grid (19,526 edges) the 601-update rush-hour
        class maintains and batches past the measured crossover rebuild."""
        policy = BatchPolicy()
        assert not policy.should_rebuild(601, 19_526)
        assert policy.should_rebuild(1_200, 19_526)

    def test_none_disables_rebuild(self):
        policy = BatchPolicy(rebuild_min_updates=0, rebuild_fraction=None)
        assert not policy.should_rebuild(10_000, 1)


class TestReorderRegression:
    def test_mixed_chain_on_one_edge_lands_on_net_weight(self, stl):
        """The apply_batch reorder corruption: increases must not be hoisted
        over decreases on the same edge.  The ISSUE's repro: a chain meant to
        end at 42.0 used to land on 7.0."""
        u, v, w = next(iter(stl.graph.edges()))
        batch = [
            EdgeUpdate(u, v, w, w + 30),
            EdgeUpdate(u, v, w + 30, 7.0),
            EdgeUpdate(u, v, 7.0, 42.0),
        ]
        stats = stl.apply_batch(batch)
        assert stl.graph.weight(u, v) == 42.0
        assert stats.updates_processed == 3
        assert stats.extra["net_updates"] == 1
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    @pytest.mark.parametrize("mode", ["pareto", "label_search"])
    def test_labels_match_rebuild_after_mixed_batch(self, small_grid, mode):
        stl = StableTreeLabelling.build(
            small_grid.copy(), HierarchyOptions(leaf_size=8), maintenance=mode
        )
        stl.batch_policy = BatchPolicy(rebuild_fraction=None)
        batch, final_weights = random_mixed_batch(stl.graph, 40, seed=13)
        stl.apply_batch(batch)
        for (u, v), w in final_weights.items():
            assert stl.graph.weight(u, v) == w
        rebuilt = build_labels(stl.graph, stl.hierarchy)
        assert stl.labels.equals(rebuilt)


class TestBatchedParetoEngine:
    """Pareto output matches a rebuild up to ``MARK_SLACK``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coalesced_batches_match_rebuild(self, seeded_random_graph, seed):
        stl = StableTreeLabelling.build(seeded_random_graph, HierarchyOptions(leaf_size=6))
        batch, _ = random_mixed_batch(stl.graph, 25, seed=seed)
        net = batch.coalesce(stl.graph)
        engine = BatchedParetoEngine(stl.graph, stl.hierarchy, stl.labels)
        stats = engine.apply(net.updates)
        assert stats.updates_processed == len(net)
        assert slack_from_rebuild(stl.graph, stl.hierarchy, stl.labels) == []

    def test_non_coalesced_batch_rejected(self, stl):
        """The engine's precondition is enforced, not just documented: a
        repeated edge would be silently reordered by the kind partition."""
        from repro.utils.errors import UpdateError

        u, v, w = next(iter(stl.graph.edges()))
        engine = BatchedParetoEngine(stl.graph, stl.hierarchy, stl.labels)
        with pytest.raises(UpdateError):
            engine.apply([EdgeUpdate(u, v, w, w / 2), EdgeUpdate(u, v, w / 2, w * 2)])

    def test_stale_old_weight_rejected(self, stl):
        """A stale old_weight mis-scopes the mark phase; the engine must
        refuse it rather than silently corrupt labels."""
        from repro.utils.errors import UpdateError

        u, v, w = next(iter(stl.graph.edges()))
        engine = BatchedParetoEngine(stl.graph, stl.hierarchy, stl.labels)
        with pytest.raises(UpdateError):
            engine.apply([EdgeUpdate(u, v, w + 1.0, w + 5.0)])

    def test_pure_increase_batch(self, stl):
        updates = [EdgeUpdate(u, v, w, w * 3) for u, v, w in list(stl.graph.edges())[:6]]
        engine = BatchedParetoEngine(stl.graph, stl.hierarchy, stl.labels)
        engine.apply(updates)
        assert slack_from_rebuild(stl.graph, stl.hierarchy, stl.labels) == []

    def test_pure_decrease_batch_shares_frontier(self, stl):
        updates = [EdgeUpdate(u, v, w, w / 4) for u, v, w in list(stl.graph.edges())[:6]]
        engine = BatchedParetoEngine(stl.graph, stl.hierarchy, stl.labels)
        engine.apply(updates)
        assert slack_from_rebuild(stl.graph, stl.hierarchy, stl.labels) == []

    def test_increase_to_infinity_in_batch(self, stl):
        """Edge deletions (weight -> inf) ride along in a batch."""
        edges = list(stl.graph.edges())
        updates = [EdgeUpdate(edges[0][0], edges[0][1], edges[0][2], math.inf)]
        updates += [EdgeUpdate(u, v, w, w / 2) for u, v, w in edges[5:8]]
        engine = BatchedParetoEngine(stl.graph, stl.hierarchy, stl.labels)
        engine.apply(updates)
        assert slack_from_rebuild(stl.graph, stl.hierarchy, stl.labels) == []

    def test_queries_match_truth_after_batch(self, stl):
        batch, _ = random_mixed_batch(stl.graph, 30, seed=99)
        stl.batch_policy = BatchPolicy(rebuild_fraction=None)
        stl.apply_batch(batch)
        truth = nx_all_pairs(stl.graph)
        for s in range(0, stl.graph.num_vertices, 7):
            for t in range(0, stl.graph.num_vertices, 6):
                assert stl.query(s, t) == pytest.approx(truth[s].get(t, math.inf))


class TestRebuildFallback:
    def test_large_batch_triggers_rebuild(self, stl):
        stl.batch_policy = BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0)
        updates = [EdgeUpdate(u, v, w, w * 2) for u, v, w in list(stl.graph.edges())[:5]]
        stats = stl.apply_batch(updates)
        assert stats.extra.get("rebuild_fallback") == 1
        assert stats.updates_processed == 5
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_fallback_keeps_engines_valid(self, stl):
        """The in-place label swap must not orphan the maintenance engines."""
        stl.batch_policy = BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0)
        edges = list(stl.graph.edges())
        stl.apply_batch([EdgeUpdate(u, v, w, w * 2) for u, v, w in edges[:5]])
        u, v, w = edges[10]
        stl.increase_edge(u, v, w * 2)
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_policy_argument_overrides_default(self, stl):
        updates = [EdgeUpdate(u, v, w, w * 2) for u, v, w in list(stl.graph.edges())[:5]]
        stats = stl.apply_batch(
            updates,
            config=STLConfig(policy=BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0)),
        )
        assert stats.extra.get("rebuild_fallback") == 1

    def test_forced_rebuild_with_closures_and_reopenings_is_byte_exact(self, small_grid):
        """The fallback rebuilds through ``build_labels`` (the relax with
        numpy): after closing edges and then reopening some while closing
        others, the store holds exactly the bytes of a fresh per-root build."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        forced = STLConfig(policy=BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0))
        edges = [(u, v) for u, v, _ in stl.graph.edges()]
        closed = edges[::5]
        first = dict.fromkeys(closed, math.inf)
        first.update({edge: 3 * stl.graph.weight(*edge) for edge in edges[1::5]})
        second = dict.fromkeys(edges[2::5], math.inf)
        second.update({edge: stl.graph.weight(*edge) for edge in closed[::2]})  # reopen
        for targets in (first, second):
            batch = [EdgeUpdate(u, v, stl.graph.weight(u, v), w) for (u, v), w in targets.items()]
            stats = stl.apply_batch(batch, config=forced)
            assert stats.extra.get("rebuild_fallback") == 1
            assert bytes(stl.labels.view) == per_root_bytes(stl.graph, stl.hierarchy)
            assert any(math.isinf(d) for _, _, d in stl.labels.iter_entries())
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []


class TestNeutralCounting:
    def test_neutral_only_batch_counts_processed(self, stl):
        u, v, w = next(iter(stl.graph.edges()))
        stats = stl.apply_batch([EdgeUpdate(u, v, w, w)])
        assert stats.updates_processed == 1
        assert stats.labels_changed == 0

    @pytest.mark.parametrize("mode", ["pareto", "label_search"])
    def test_cancelling_chain_counts_all_inputs(self, small_grid, mode):
        stl = StableTreeLabelling.build(
            small_grid.copy(), HierarchyOptions(leaf_size=8), maintenance=mode
        )
        u, v, w = next(iter(stl.graph.edges()))
        stats = stl.apply_batch([EdgeUpdate(u, v, w, w * 2), EdgeUpdate(u, v, w * 2, w)])
        assert stats.updates_processed == 2
        assert stats.extra["net_updates"] == 1
        assert stl.graph.weight(u, v) == w

    def test_empty_batch(self, stl):
        stats = stl.apply_batch([])
        assert stats.updates_processed == 0
