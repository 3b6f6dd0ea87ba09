"""Unit tests for the edge-update model."""

import math

import pytest

from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, UpdateKind
from repro.utils.errors import InvalidWeightError, UpdateError


@pytest.fixture
def graph() -> Graph:
    return Graph.from_edges(4, [(0, 1, 2.0), (1, 2, 4.0), (2, 3, 6.0)])


class TestEdgeUpdate:
    def test_kind_classification(self):
        assert EdgeUpdate(0, 1, 2.0, 5.0).kind is UpdateKind.INCREASE
        assert EdgeUpdate(0, 1, 5.0, 2.0).kind is UpdateKind.DECREASE
        assert EdgeUpdate(0, 1, 2.0, 2.0).kind is UpdateKind.NEUTRAL

    def test_nan_weights_rejected(self, graph):
        # A NaN would classify as NEUTRAL and be dropped without landing.
        with pytest.raises(InvalidWeightError):
            EdgeUpdate(0, 1, 2.0, math.nan)
        with pytest.raises(InvalidWeightError):
            EdgeUpdate(0, 1, math.nan, 2.0)
        with pytest.raises(InvalidWeightError):
            EdgeUpdate.setting(graph, 0, 1, math.nan)
        assert graph.weight(0, 1) == 2.0

    def test_delta(self):
        assert EdgeUpdate(0, 1, 2.0, 5.0).delta == 3.0
        assert EdgeUpdate(0, 1, 5.0, 2.0).delta == -3.0

    def test_reversed(self):
        update = EdgeUpdate(0, 1, 2.0, 5.0)
        assert update.reversed() == EdgeUpdate(0, 1, 5.0, 2.0)

    def test_apply(self, graph):
        EdgeUpdate(0, 1, 2.0, 5.0).apply(graph)
        assert graph.weight(0, 1) == 5.0

    def test_apply_validates_old_weight(self, graph):
        with pytest.raises(UpdateError):
            EdgeUpdate(0, 1, 3.0, 5.0).apply(graph)

    def test_scaling_factory(self, graph):
        update = EdgeUpdate.scaling(graph, 1, 2, 2.0)
        assert update.old_weight == 4.0
        assert update.new_weight == 8.0

    def test_setting_factory(self, graph):
        update = EdgeUpdate.setting(graph, 2, 3, 1.0)
        assert update.old_weight == 6.0
        assert update.new_weight == 1.0


class TestUpdateBatch:
    def test_filtering_by_kind(self):
        batch = UpdateBatch(
            [EdgeUpdate(0, 1, 2.0, 5.0), EdgeUpdate(1, 2, 4.0, 1.0), EdgeUpdate(2, 3, 6.0, 6.0)]
        )
        assert len(batch.increases()) == 1
        assert len(batch.decreases()) == 1
        assert len(batch) == 3

    def test_apply_and_rollback(self, graph):
        batch = UpdateBatch([EdgeUpdate(0, 1, 2.0, 5.0), EdgeUpdate(1, 2, 4.0, 1.0)])
        batch.apply(graph)
        assert graph.weight(0, 1) == 5.0
        assert graph.weight(1, 2) == 1.0
        batch.rollback(graph)
        assert graph.weight(0, 1) == 2.0
        assert graph.weight(1, 2) == 4.0

    def test_reversed_batch_is_reverse_order(self):
        batch = UpdateBatch([EdgeUpdate(0, 1, 2.0, 5.0), EdgeUpdate(1, 2, 4.0, 1.0)])
        reversed_updates = list(batch.reversed())
        assert reversed_updates[0].u == 1
        assert reversed_updates[0].old_weight == 1.0

    def test_edges_deduplicates(self):
        batch = UpdateBatch(
            [EdgeUpdate(1, 0, 2.0, 5.0), EdgeUpdate(0, 1, 5.0, 2.0), EdgeUpdate(1, 2, 4.0, 8.0)]
        )
        assert batch.edges() == [(0, 1), (1, 2)]

    def test_indexing_and_append(self):
        batch = UpdateBatch()
        update = EdgeUpdate(0, 1, 2.0, 5.0)
        batch.append(update)
        assert batch[0] == update
        assert batch.updates == (update,)


class TestCoalesce:
    def test_single_updates_pass_through(self, graph):
        batch = UpdateBatch([EdgeUpdate(0, 1, 2.0, 5.0), EdgeUpdate(1, 2, 4.0, 1.0)])
        net = batch.coalesce(graph)
        assert list(net) == list(batch)

    def test_chain_folds_to_net_update(self, graph):
        batch = UpdateBatch(
            [
                EdgeUpdate(0, 1, 2.0, 9.0),
                EdgeUpdate(0, 1, 9.0, 1.0),
                EdgeUpdate(0, 1, 1.0, 7.0),
            ]
        )
        net = batch.coalesce(graph)
        assert list(net) == [EdgeUpdate(0, 1, 2.0, 7.0)]
        assert net[0].kind is UpdateKind.INCREASE

    def test_net_kind_reclassifies_mixed_chain(self, graph):
        # An increase followed by a larger decrease nets to a DECREASE.
        batch = UpdateBatch([EdgeUpdate(1, 2, 4.0, 10.0), EdgeUpdate(1, 2, 10.0, 3.0)])
        net = batch.coalesce(graph)
        assert list(net) == [EdgeUpdate(1, 2, 4.0, 3.0)]
        assert net[0].kind is UpdateKind.DECREASE

    def test_cancelling_chain_nets_to_neutral(self, graph):
        batch = UpdateBatch([EdgeUpdate(2, 3, 6.0, 12.0), EdgeUpdate(2, 3, 12.0, 6.0)])
        net = batch.coalesce(graph)
        assert len(net) == 1
        assert net[0].kind is UpdateKind.NEUTRAL

    def test_first_touch_order_and_orientation_insensitivity(self, graph):
        # (1, 0) and (0, 1) are the same undirected edge; first touch wins
        # the output slot.
        batch = UpdateBatch(
            [
                EdgeUpdate(2, 3, 6.0, 8.0),
                EdgeUpdate(1, 0, 2.0, 5.0),
                EdgeUpdate(0, 1, 5.0, 3.0),
            ]
        )
        net = batch.coalesce(graph)
        assert [(u.u, u.v) for u in net] == [(2, 3), (1, 0)]
        assert net[1].new_weight == 3.0

    def test_first_old_weight_validated_against_graph(self, graph):
        batch = UpdateBatch([EdgeUpdate(0, 1, 3.0, 5.0)])
        with pytest.raises(UpdateError):
            batch.coalesce(graph)

    def test_broken_chain_rejected(self, graph):
        batch = UpdateBatch([EdgeUpdate(0, 1, 2.0, 5.0), EdgeUpdate(0, 1, 4.0, 6.0)])
        with pytest.raises(UpdateError):
            batch.coalesce(graph)

    def test_empty_batch(self, graph):
        assert len(UpdateBatch().coalesce(graph)) == 0

    def test_first_seen_order_is_deterministic(self, graph):
        """Coalescing preserves first-seen edge order, every time.

        Shard planning (repro.core.shard.ShardPlanner) splits the coalesced
        batch by iterating it in order; a coalesce that reordered edges (or
        ordered them differently between runs) would make shard sub-batches
        -- and with them the whole parallel schedule -- nondeterministic.
        """
        batch = UpdateBatch(
            [
                EdgeUpdate(1, 2, 4.0, 7.0),
                EdgeUpdate(0, 1, 2.0, 5.0),
                EdgeUpdate(2, 3, 6.0, 1.0),
                EdgeUpdate(1, 2, 7.0, 3.0),  # second touch must not move (1, 2)
                EdgeUpdate(0, 1, 5.0, 8.0),
            ]
        )
        first_seen = [(1, 2), (0, 1), (2, 3)]
        for _ in range(3):
            net = batch.coalesce(graph)
            assert [(u.u, u.v) for u in net] == first_seen
        assert [u.new_weight for u in batch.coalesce(graph)] == [3.0, 8.0, 1.0]
