"""Unit tests for sharded parallel batch maintenance (core/shard.py)."""

import inspect

import pytest

from repro.core.batch import BatchedParetoEngine, BatchPolicy
from repro.core.batch_label_search import BatchedLabelSearchEngine
from repro.core.labelling import verify_labels
from repro.core.parallel import ProcessShardBackend
from repro.core.pareto_search import slack_differences
from repro.core.shard import (
    SerialShardBackend,
    ShardedBatchEngine,
    ShardPlanner,
    create_backend,
    default_num_shards,
)
from repro.core.stl import StableTreeLabelling
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.errors import UpdateError
from repro.core.config import STLConfig
from tests.conftest import paired_indexes, random_mixed_batch, slack_from_rebuild


class TestShardPlanner:
    def test_regions_partition_the_vertex_set(self, small_grid):
        planner = ShardPlanner(small_grid, num_shards=4)
        regions, separator = planner.regions()
        seen: set[int] = set(separator)
        assert len(seen) == len(separator), "separator has duplicates"
        for region in regions:
            assert not seen.intersection(region), "regions/separator overlap"
            seen.update(region)
        assert seen == set(range(small_grid.num_vertices))

    def test_no_edge_joins_two_regions(self, small_grid):
        """The defining property: regions only touch through the separator."""
        planner = ShardPlanner(small_grid, num_shards=4)
        regions, _ = planner.regions()
        region_of = {}
        for rid, region in enumerate(regions):
            for v in region:
                region_of[v] = rid
        for u, v, _ in small_grid.edges():
            ru, rv = region_of.get(u), region_of.get(v)
            if ru is not None and rv is not None:
                assert ru == rv, f"edge ({u}, {v}) crosses regions {ru}/{rv}"

    def test_planning_is_deterministic(self, small_grid):
        batch = random_mixed_batch(small_grid, 40, seed=5).coalesce(small_grid)
        plans = [ShardPlanner(small_grid.copy(), num_shards=4).plan(batch) for _ in range(2)]
        assert plans[0].regions == plans[1].regions
        assert plans[0].separator == plans[1].separator
        for a, b in zip(plans[0].shards, plans[1].shards):
            assert list(a) == list(b)
        assert list(plans[0].residual) == list(plans[1].residual)

    def test_plan_respects_first_seen_order(self, small_grid):
        """Sub-batches inherit the coalesced batch's first-seen edge order."""
        net = random_mixed_batch(small_grid, 60, seed=9).coalesce(small_grid)
        position = {
            (u.u, u.v) if u.u < u.v else (u.v, u.u): k for k, u in enumerate(net)
        }
        plan = ShardPlanner(small_grid, num_shards=4).plan(net)
        for sub in [*plan.shards, plan.residual]:
            keys = [(u.u, u.v) if u.u < u.v else (u.v, u.u) for u in sub]
            assert [position[k] for k in keys] == sorted(position[k] for k in keys)

    def test_plan_routes_updates_by_region(self, small_grid):
        planner = ShardPlanner(small_grid, num_shards=4)
        regions, separator = planner.regions()
        sep = set(separator)
        net = random_mixed_batch(small_grid, 50, seed=3).coalesce(small_grid)
        plan = planner.plan(net)
        assert plan.num_updates == len(net)
        for rid, sub in enumerate(plan.shards):
            region = set(regions[rid])
            for u in sub:
                assert u.u in region and u.v in region
        for u in plan.residual:
            assert u.u in sep or u.v in sep or any(
                (u.u in set(r)) != (u.v in set(r)) for r in regions
            )

    def test_num_shards_validation(self, small_grid):
        with pytest.raises(ValueError):
            ShardPlanner(small_grid, num_shards=1)
        assert default_num_shards() >= 2

    def test_balance_metrics(self, small_grid):
        net = random_mixed_batch(small_grid, 50, seed=11).coalesce(small_grid)
        plan = ShardPlanner(small_grid, num_shards=4).plan(net)
        assert 0.0 <= plan.balance <= 1.0
        assert plan.sharded_updates + len(plan.residual) == len(net)


class TestShardedEquivalence:
    """Property-style: sharded Pareto labels match the serial Pareto engine
    and a rebuild, up to ``MARK_SLACK`` (Pareto output's comparison)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_mixed_batches_match_serial(self, small_grid, seed):
        serial, sharded = paired_indexes(small_grid)
        batch = random_mixed_batch(serial.graph, 70, seed=seed)
        serial_engine = BatchedParetoEngine(serial.graph, serial.hierarchy, serial.labels)
        serial_engine.apply(batch.coalesce(serial.graph).updates)
        engine = ShardedBatchEngine(
            sharded.graph,
            sharded.hierarchy,
            sharded.labels,
            planner=ShardPlanner(sharded.graph, num_shards=4),
        )
        engine.apply(batch.coalesce(sharded.graph).updates)
        assert slack_differences(serial.labels, sharded.labels) == []
        assert slack_from_rebuild(sharded.graph, sharded.hierarchy, sharded.labels) == []

    def test_repeated_batches_stay_exact(self, small_grid):
        """Regression for the float-equality marking bug: a second mixed
        batch lands on labels whose entries were rewritten by decrease
        repairs; before the tolerant through-the-edge test both the serial
        and the sharded engine silently lost whole increase deltas here."""
        serial, sharded = paired_indexes(small_grid)
        serial_engine = BatchedParetoEngine(serial.graph, serial.hierarchy, serial.labels)
        engine = ShardedBatchEngine(
            sharded.graph,
            sharded.hierarchy,
            sharded.labels,
            planner=ShardPlanner(sharded.graph, num_shards=4),
        )
        for round_ in range(3):
            batch = random_mixed_batch(serial.graph, 40, seed=round_)
            serial_engine.apply(batch.coalesce(serial.graph).updates)
            engine.apply(batch.coalesce(sharded.graph).updates)
            assert slack_from_rebuild(serial.graph, serial.hierarchy, serial.labels) == []
            assert slack_from_rebuild(sharded.graph, sharded.hierarchy, sharded.labels) == []
            assert slack_differences(serial.labels, sharded.labels) == []

    def test_fully_separator_crossing_batch(self, small_grid):
        """Degenerate plan: every update touches the separator, so the whole
        batch is residual and the engine runs the serial path."""
        serial, sharded = paired_indexes(small_grid)
        planner = ShardPlanner(sharded.graph, num_shards=4)
        _, separator = planner.regions()
        sep = set(separator)
        updates = [
            EdgeUpdate(u, v, w, w * 2)
            for u, v, w in sharded.graph.edges()
            if u in sep or v in sep
        ]
        assert updates, "grid separator must touch some edges"
        engine = ShardedBatchEngine(
            sharded.graph, sharded.hierarchy, sharded.labels, planner=planner
        )
        stats = engine.apply(updates)
        assert stats.extra["sharded_updates"] == 0
        assert stats.extra["residual_updates"] == len(updates)
        BatchedParetoEngine(serial.graph, serial.hierarchy, serial.labels).apply(updates)
        assert slack_differences(serial.labels, sharded.labels) == []
        assert slack_from_rebuild(sharded.graph, sharded.hierarchy, sharded.labels) == []

    def test_non_coalesced_batch_rejected(self, small_grid):
        _, sharded = paired_indexes(small_grid)
        u, v, w = next(iter(sharded.graph.edges()))
        engine = ShardedBatchEngine(sharded.graph, sharded.hierarchy, sharded.labels)
        with pytest.raises(UpdateError):
            engine.apply([EdgeUpdate(u, v, w, w / 2), EdgeUpdate(u, v, w / 2, w * 2)])

    def test_stale_old_weight_rejected(self, small_grid):
        _, sharded = paired_indexes(small_grid)
        u, v, w = next(iter(sharded.graph.edges()))
        engine = ShardedBatchEngine(sharded.graph, sharded.hierarchy, sharded.labels)
        with pytest.raises(UpdateError):
            engine.apply([EdgeUpdate(u, v, w + 1.0, w + 5.0)])


class TestBackendSurface:
    @pytest.mark.parametrize(
        "cls", [SerialShardBackend, ShardedBatchEngine, ProcessShardBackend]
    )
    def test_backends_share_one_apply_signature(self, cls):
        """Every backend plans its own batch; none takes a precomputed plan."""
        params = list(inspect.signature(cls.apply).parameters)
        assert params == ["self", "updates", "max_workers", "engine"]

    @pytest.mark.parametrize(
        "engine, reference",
        [("pareto", BatchedParetoEngine), ("label_search", BatchedLabelSearchEngine)],
    )
    def test_serial_backend_is_the_named_engine(self, small_grid, engine, reference):
        serial, other = paired_indexes(small_grid)
        batch = random_mixed_batch(serial.graph, 40, seed=6)
        reference(serial.graph, serial.hierarchy, serial.labels).apply(
            batch.coalesce(serial.graph).updates
        )
        backend = create_backend("serial", other.graph, other.hierarchy, other.labels)
        stats = backend.apply(batch.coalesce(other.graph).updates, engine=engine)
        assert "shards" not in stats.extra
        assert other.labels.differences(serial.labels) == []


class TestPolicyCrossover:
    def test_tiny_batches_run_the_engine(self, small_grid):
        """No per-update loop: one or two net updates go to the engine too."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        edges = list(stl.graph.edges())
        for size in (1, 2):
            batch = [EdgeUpdate(u, v, w, 3.0 * w) for u, v, w in edges[size : 2 * size]]
            stats = stl.apply_batch(batch)
            assert stats.extra["label_search_engine"] == 1
            assert stats.extra["net_updates"] == size
            assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    @pytest.mark.parametrize("backend", [None, "serial"])
    def test_apply_batch_never_shards_unless_named(self, small_grid, backend):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stl.batch_policy = BatchPolicy(rebuild_fraction=None)
        batch = random_mixed_batch(stl.graph, 30, seed=1)
        stats = stl.apply_batch(batch, config=STLConfig(backend=backend))
        assert "sharded" not in stats.extra
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_apply_batch_named_thread_backend_shards(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        # Even a policy that would rebuild is bypassed by a named backend.
        stl.batch_policy = BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0)
        batch = random_mixed_batch(stl.graph, 30, seed=2)
        stats = stl.apply_batch(batch, config=STLConfig(backend="thread"))
        assert stats.extra["sharded"] == 1
        assert "rebuild_fallback" not in stats.extra
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_apply_batch_label_search_runs_parallel(self, small_grid):
        """Label-search mode shards on the thread backend (PR 7 lifted the
        pre-PR-7 ValueError) and stays entry-wise equal to the serial engine."""
        serial = StableTreeLabelling.build(
            small_grid.copy(), HierarchyOptions(leaf_size=8), maintenance="label_search"
        )
        sharded = StableTreeLabelling(
            small_grid.copy(), serial.hierarchy, serial.labels.copy(),
            maintenance="label_search",
        )
        batch = random_mixed_batch(serial.graph, 50, seed=3)
        serial.apply_batch(batch, config=STLConfig(backend="serial"))
        stats = sharded.apply_batch(batch, config=STLConfig(backend="thread"))
        assert stats.extra["sharded"] == 1
        assert stats.extra["label_search_engine"] == 1
        assert sharded.labels.differences(serial.labels) == []

    def test_tiny_batch_runs_per_update_loop(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        u, v, w = next(iter(stl.graph.edges()))
        stats = stl.apply_batch([EdgeUpdate(u, v, w, w * 2)])
        # The loop path reports no engine-only extras, just the net size.
        assert stats.extra["net_updates"] == 1
        assert stats.updates_processed == 1
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []
