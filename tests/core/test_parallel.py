"""Unit tests for the process-pool shard backend (core/parallel.py).

These tests spawn real worker processes; CI runs them with
``-p no:cacheprovider`` and a hard timeout so a deadlocked pool fails fast
(see ``.github/workflows/ci.yml``).
"""

import random
from itertools import accumulate

import pytest

from repro.core.batch import BatchedParetoEngine, BatchPolicy
from repro.core.parallel import ProcessShardBackend
from repro.core.pareto_search import slack_differences
from repro.core.shard import (
    SHARD_BACKEND_NAMES,
    SerialShardBackend,
    ShardBackend,
    ShardedBatchEngine,
    ShardPlanner,
    create_backend,
    normalize_backend,
)
from repro.core.stl import StableTreeLabelling
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.errors import UpdateError
from repro.workloads.updates import mixed_update_stream
from repro.core.config import STLConfig
from tests.conftest import paired_indexes, random_mixed_batch, slack_from_rebuild

#: Worker count used throughout: more workers than this box has cores, so
#: the multi-worker ownership merge is exercised even on a 1-CPU runner.
WORKERS = 4


@pytest.fixture
def process_pair(small_grid):
    """(serial engine + index, process backend + index) on the same build."""
    serial, par = paired_indexes(small_grid)
    engine = BatchedParetoEngine(serial.graph, serial.hierarchy, serial.labels)
    backend = ProcessShardBackend(
        par.graph,
        par.hierarchy,
        par.labels,
        planner=ShardPlanner(par.graph, num_shards=4),
        max_workers=WORKERS,
    )
    yield serial, engine, par, backend
    backend.close()


class TestProcessBackendEquivalence:
    def test_figure10_workload_matches_serial(self, medium_grid):
        """Label equality on the Figure 10 workload.

        The same stream halves (a 200-edge sample doubled, then restored --
        the paper's grouped-maintenance input) go through the serial batched
        Pareto engine and the process backend; labels must agree entry-wise
        up to ``MARK_SLACK`` and both graphs must return to their original
        weights.
        """
        serial, par = paired_indexes(medium_grid)
        engine = BatchedParetoEngine(serial.graph, serial.hierarchy, serial.labels)
        backend = ProcessShardBackend(
            par.graph,
            par.hierarchy,
            par.labels,
            planner=ShardPlanner(par.graph, num_shards=4),
            max_workers=WORKERS,
        )
        try:
            stream = mixed_update_stream(serial.graph, 400, factor=2.0, seed=2025)
            escapes = 0
            for half in (stream.increases(), stream.decreases()):
                engine.apply(half.coalesce(serial.graph).updates)
                stats = backend.apply(half.coalesce(par.graph).updates)
                escapes += stats.extra.get("mark_escapes", 0)
                escapes += stats.extra.get("decrease_escapes", 0)
            assert slack_differences(serial.labels, par.labels) == []
            assert slack_from_rebuild(par.graph, par.hierarchy, par.labels) == []
            for u, v, w in medium_grid.edges():
                assert par.graph.weight(u, v) == w
            # The workload must actually exercise the ownership protocol:
            # separator crossings exist on any grid plan of this size.
            assert escapes > 0
        finally:
            backend.close()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multi_round_mixed_batches_stay_exact(self, process_pair, seed):
        """Several mixed batches in sequence: each round starts from labels
        rewritten by the previous round's owned-region repairs, which is
        exactly where a merge/settlement bug would compound."""
        serial, engine, par, backend = process_pair
        for round_ in range(3):
            batch = random_mixed_batch(serial.graph, 50, seed=seed * 10 + round_)
            engine.apply(batch.coalesce(serial.graph).updates)
            backend.apply(batch.coalesce(par.graph).updates)
            assert slack_differences(serial.labels, par.labels) == []
            assert slack_from_rebuild(par.graph, par.hierarchy, par.labels) == []

    def test_fully_separator_crossing_batch_degrades_serially(self, small_grid):
        """Degenerate plan: every update touches the separator, so the whole
        batch is residual; the backend must hand it to the serial engine
        without spawning a single worker."""
        serial, par = paired_indexes(small_grid)
        planner = ShardPlanner(par.graph, num_shards=4)
        _, separator = planner.regions()
        sep = set(separator)
        updates = [
            EdgeUpdate(u, v, w, w * 2)
            for u, v, w in par.graph.edges()
            if u in sep or v in sep
        ]
        assert updates, "grid separator must touch some edges"
        backend = ProcessShardBackend(
            par.graph, par.hierarchy, par.labels, planner=planner, max_workers=WORKERS
        )
        try:
            stats = backend.apply(updates)
            assert stats.extra["sharded_updates"] == 0
            assert stats.extra["residual_updates"] == len(updates)
            assert "process_workers" not in stats.extra
            assert backend._workers is None, "degenerate plan must not spawn workers"
            BatchedParetoEngine(serial.graph, serial.hierarchy, serial.labels).apply(
                updates
            )
            assert slack_differences(serial.labels, par.labels) == []
        finally:
            backend.close()

    def test_increase_only_and_decrease_only_batches(self, process_pair):
        """Each half of the phase protocol also works without the other."""
        serial, engine, par, backend = process_pair
        increases = UpdateBatch(
            EdgeUpdate(u, v, w, w * 2) for u, v, w in list(serial.graph.edges())[:40]
        )
        engine.apply(increases.coalesce(serial.graph).updates)
        backend.apply(increases.coalesce(par.graph).updates)
        assert slack_differences(serial.labels, par.labels) == []
        decreases = UpdateBatch(
            EdgeUpdate(up.u, up.v, up.new_weight, up.old_weight)
            for up in increases.updates
        )
        engine.apply(decreases.coalesce(serial.graph).updates)
        backend.apply(decreases.coalesce(par.graph).updates)
        assert slack_differences(serial.labels, par.labels) == []
        assert slack_from_rebuild(par.graph, par.hierarchy, par.labels) == []

    def test_non_coalesced_batch_rejected(self, small_grid):
        _, par = paired_indexes(small_grid)
        backend = ProcessShardBackend(par.graph, par.hierarchy, par.labels)
        try:
            u, v, w = next(iter(par.graph.edges()))
            with pytest.raises(UpdateError):
                backend.apply([EdgeUpdate(u, v, w, w / 2), EdgeUpdate(u, v, w / 2, w * 2)])
        finally:
            backend.close()

    def test_failed_round_tears_the_pool_down(self, process_pair, monkeypatch):
        """A worker failure mid-batch must not leave buffered replies behind:
        the pool is torn down so a retry starts from fresh workers instead of
        consuming the failed batch's replies as its own."""
        serial, engine, par, backend = process_pair
        batch = random_mixed_batch(serial.graph, 50, seed=13)
        net = batch.coalesce(par.graph)
        assert backend.planner.plan(net).populated_shards >= 2, "need a non-degenerate plan"
        from repro.core import parallel as parallel_mod

        def boom(self, timeout):
            raise RuntimeError("synthetic worker failure")

        monkeypatch.setattr(parallel_mod._RegionWorker, "recv", boom)
        with pytest.raises(RuntimeError, match="synthetic worker failure"):
            backend.apply(net.updates)
        assert backend._workers is None, "failed batch must close the pool"
        monkeypatch.undo()
        # The index state is torn (the failed batch half-applied), so rebuild
        # a fresh pair to show the backend itself recovered.
        engine.apply(batch.coalesce(serial.graph).updates)

    def test_explicit_max_workers_resizes_the_pool(self, process_pair):
        serial, engine, par, backend = process_pair
        batch = random_mixed_batch(serial.graph, 50, seed=14)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        assert len(backend._workers) > 1
        batch = random_mixed_batch(serial.graph, 50, seed=15)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates, max_workers=1)
        assert len(backend._workers) == 1, "conflicting request must resize"
        assert slack_differences(serial.labels, par.labels) == []

    def test_close_is_idempotent_and_pool_respawns(self, process_pair):
        serial, engine, par, backend = process_pair
        batch = random_mixed_batch(serial.graph, 40, seed=7)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        assert backend._workers is not None
        backend.close()
        backend.close()
        assert backend._workers is None
        # A fresh batch after close() transparently respawns the pool.
        batch = random_mixed_batch(serial.graph, 40, seed=8)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        assert slack_differences(serial.labels, par.labels) == []


class TestBackendSelection:
    def test_normalize_backend_accepts_names(self):
        assert normalize_backend(None) is None
        for name in SHARD_BACKEND_NAMES:
            assert normalize_backend(name) == name

    @pytest.mark.parametrize("bogus", [True, False, 1, 2.5, "threads", "fork", object()])
    def test_anything_else_raises_with_allowed_set(self, bogus):
        """Booleans, numbers and misspellings are not backend names."""
        with pytest.raises(ValueError) as err:
            normalize_backend(bogus)
        assert "allowed backends: 'process', 'serial', 'thread'" in str(err.value)

    def test_apply_batch_rejects_unknown_backend(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        u, v, w = next(iter(stl.graph.edges()))
        with pytest.raises(ValueError, match="allowed backends"):
            stl.apply_batch([EdgeUpdate(u, v, w, w * 2)], config=STLConfig(backend="proces"))

    def test_create_backend_registry(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        planner = ShardPlanner(stl.graph, num_shards=4)
        for name, cls in (
            ("serial", SerialShardBackend),
            ("thread", ShardedBatchEngine),
            ("process", ProcessShardBackend),
        ):
            backend = create_backend(name, stl.graph, stl.hierarchy, stl.labels, planner)
            try:
                assert isinstance(backend, cls)
                assert isinstance(backend, ShardBackend)
                assert backend.name == name
                assert backend.planner is planner
            finally:
                backend.close()
        with pytest.raises(ValueError, match="allowed backends"):
            create_backend("gpu", stl.graph, stl.hierarchy, stl.labels)

    def test_apply_batch_parallel_process_end_to_end(self, small_grid):
        """``STLConfig(backend="process")`` forces the process backend and
        matches the serial route entry-wise."""
        serial, par = paired_indexes(small_grid)
        par.batch_policy = BatchPolicy(rebuild_fraction=None, max_workers=WORKERS)
        try:
            for round_ in range(2):
                batch = random_mixed_batch(serial.graph, 60, seed=round_ + 20)
                serial.apply_batch(UpdateBatch(batch.updates), config=STLConfig(backend="serial"))
                stats = par.apply_batch(UpdateBatch(batch.updates), config=STLConfig(backend="process"))
                assert stats.extra["sharded"] == 1
                assert serial.labels.equals(par.labels)
            assert par._process_backend is not None
            assert par._process_backend.planner is par._shard_engine.planner
        finally:
            par.close()
            par.close()  # idempotent

    def test_label_search_mode_runs_process(self, small_grid):
        """Label-search mode runs on the process backend (PR 7 lifted the
        pre-PR-7 ValueError) and stays entry-wise equal to the serial engine."""
        serial = StableTreeLabelling.build(
            small_grid.copy(), HierarchyOptions(leaf_size=8), maintenance="label_search"
        )
        par = StableTreeLabelling(
            small_grid.copy(), serial.hierarchy, serial.labels.copy(),
            maintenance="label_search",
        )
        try:
            batch = random_mixed_batch(serial.graph, 50, seed=3)
            serial.apply_batch(batch, config=STLConfig(backend="serial"))
            stats = par.apply_batch(batch, config=STLConfig(backend="process"))
            assert stats.extra["sharded"] == 1
            assert stats.extra["label_search_engine"] == 1
            assert par.labels.differences(serial.labels) == []
        finally:
            par.close()


class TestSharedMemoryResidency:
    """Lifecycle and cross-round consistency of the resident worker pool."""

    def test_segment_exists_while_pool_lives_and_is_unlinked_on_close(
        self, process_pair
    ):
        import os

        serial, engine, par, backend = process_pair
        assert backend.segment_name is None, "no segment before the first batch"
        batch = random_mixed_batch(serial.graph, 50, seed=31)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        name = backend.segment_name
        assert name is not None
        assert os.path.exists(f"/dev/shm/{name}")
        assert par.labels.is_shared
        backend.close()
        assert backend.segment_name is None
        assert not os.path.exists(f"/dev/shm/{name}")
        assert not par.labels.is_shared, "close() must copy labels back out"
        assert slack_differences(serial.labels, par.labels) == []

    def test_numpy_cache_invalidated_across_residency_lifecycle(self, process_pair):
        """The cached query views must never outlive a buffer adoption.

        ``share_into`` (pool spawn) and ``unshare`` (``close()``) each adopt
        a new entries buffer; a cached ``frombuffer`` view over the old one
        would serve stale distances, and would keep the closed segment's
        mapping alive.  The test holds only a weak reference to the view
        over the segment, so after ``close()`` it must be dead.
        """
        pytest.importorskip("numpy")
        import weakref

        from repro.core.kernels import label_arrays

        serial, engine, par, backend = process_pair
        before = label_arrays(par.labels)
        epoch = par.labels.buffer_epoch
        pairs = [(0, v) for v in range(min(60, par.graph.num_vertices))]
        par.batch_query(pairs, config=STLConfig(kernel="vector"))  # cache is hot pre-share

        batch = random_mixed_batch(serial.graph, 50, seed=39)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        assert par.labels.is_shared
        assert par.labels.buffer_epoch > epoch, "share_into must bump the epoch"
        shared = weakref.ref(label_arrays(par.labels)[0])
        assert shared() is not before[0], "cache must be rebuilt over the segment"
        assert par.batch_query(pairs, config=STLConfig(kernel="vector")) == par.batch_query(
            pairs, config=STLConfig(kernel="scalar"
        ))

        shared_epoch = par.labels.buffer_epoch
        backend.close()
        assert not par.labels.is_shared
        assert par.labels.buffer_epoch > shared_epoch
        assert shared() is None, "close() must drop the cached view over the segment"
        assert par.batch_query(pairs, config=STLConfig(kernel="vector")) == par.batch_query(
            pairs, config=STLConfig(kernel="scalar"
        ))
        assert slack_differences(serial.labels, par.labels) == []

    def test_pool_resize_unlinks_the_old_segment(self, process_pair):
        import os

        serial, engine, par, backend = process_pair
        batch = random_mixed_batch(serial.graph, 50, seed=32)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        first = backend.segment_name
        assert os.path.exists(f"/dev/shm/{first}")
        batch = random_mixed_batch(serial.graph, 50, seed=33)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates, max_workers=1)
        second = backend.segment_name
        assert second != first
        assert not os.path.exists(f"/dev/shm/{first}"), "old segment must be unlinked"
        assert os.path.exists(f"/dev/shm/{second}")
        assert slack_differences(serial.labels, par.labels) == []

    def test_stl_close_unlinks_every_segment(self, small_grid):
        import os

        serial, par = paired_indexes(small_grid)
        par.batch_policy = BatchPolicy(rebuild_fraction=None, max_workers=WORKERS)
        batch = random_mixed_batch(serial.graph, 60, seed=34)
        serial.apply_batch(UpdateBatch(batch.updates), config=STLConfig(backend="serial"))
        par.apply_batch(UpdateBatch(batch.updates), config=STLConfig(backend="process"))
        name = par._process_backend.segment_name
        assert name is not None and os.path.exists(f"/dev/shm/{name}")
        par.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert serial.labels.equals(par.labels)

    def test_workers_survive_rounds_touching_no_owned_rows(self, process_pair):
        """A round whose plan skips a worker (or the whole pool) must leave
        the idle workers consistent: their next sync has to replay every
        write they missed, including serial-path writes through the shared
        labels."""
        serial, engine, par, backend = process_pair
        # Round 1: a global batch spawns the pool.
        batch = random_mixed_batch(serial.graph, 60, seed=35)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        workers_after_round1 = backend._workers
        assert workers_after_round1 is not None
        assert slack_differences(serial.labels, par.labels) == []
        # Round 2: confine all updates to the edges inside one region; the
        # plan degenerates (one populated shard) and runs serially, so every
        # resident worker owns zero touched rows and receives no message.
        regions, _ = backend.planner.regions()
        target = max(regions, key=len)
        inside = set(target)
        local_edges = [
            (u, v, w) for u, v, w in par.graph.edges() if u in inside and v in inside
        ]
        assert len(local_edges) >= 10, "need a populated region"
        confined = UpdateBatch(
            EdgeUpdate(u, v, w, round(w * 1.7, 3)) for u, v, w in local_edges[:20]
        )
        engine.apply(confined.coalesce(serial.graph).updates)
        stats = backend.apply(confined.coalesce(par.graph).updates)
        assert "process_workers" not in stats.extra, "confined round must run serially"
        assert backend._workers is workers_after_round1, "idle pool must survive"
        assert slack_differences(serial.labels, par.labels) == []
        # Round 3: a global batch again; the workers apply it from the owned
        # rows shipped with it (which carry round 2's serial writes).
        batch = random_mixed_batch(serial.graph, 60, seed=36)
        engine.apply(batch.coalesce(serial.graph).updates)
        backend.apply(batch.coalesce(par.graph).updates)
        assert backend._workers is workers_after_round1, "pool must not respawn"
        assert slack_differences(serial.labels, par.labels) == []
        assert slack_from_rebuild(par.graph, par.hierarchy, par.labels) == []

    def test_delta_sync_survives_interleaved_serial_updates(self, process_pair):
        """Three mixed process rounds with per-update serial writes between
        them: the interleaved writes go through the master graph only, so the
        workers must see them in the owned rows shipped with the next batch."""
        serial, engine, par, backend = process_pair
        rng = random.Random(36)
        for round_ in range(3):
            batch = random_mixed_batch(serial.graph, 50, seed=360 + round_)
            engine.apply(batch.coalesce(serial.graph).updates)
            backend.apply(batch.coalesce(par.graph).updates)
            assert slack_differences(serial.labels, par.labels) == []
            # Interleave: single-edge updates applied through the serial
            # engine path on BOTH indexes (the process pool never sees them
            # except through the owned rows shipped with the next batch).
            edges = list(serial.graph.edges())
            for _ in range(5):
                u, v, w = edges[rng.randrange(len(edges))]
                new = round(rng.uniform(0.5, 40.0), 1)
                for index in (serial, par):
                    cur = index.graph.weight(u, v)
                    single = UpdateBatch([EdgeUpdate(u, v, cur, new)])
                    BatchedParetoEngine(
                        index.graph, index.hierarchy, index.labels
                    ).apply(single.coalesce(index.graph).updates)
                edges = list(serial.graph.edges())
            assert slack_differences(serial.labels, par.labels) == []
        assert slack_from_rebuild(par.graph, par.hierarchy, par.labels) == []

    def test_process_rounds_keep_the_master_arrays_current(self, process_pair):
        """The process backend writes the master graph's weights; its CSR
        arrays, which the vector kernel reads, follow them in place."""
        serial, engine, par, backend = process_pair
        weights = par.graph.csr()[2]
        for seed in (37, 38):
            batch = random_mixed_batch(serial.graph, 50, seed=seed)
            engine.apply(batch.coalesce(serial.graph).updates)
            stats = backend.apply(batch.coalesce(par.graph).updates)
            assert stats.extra.get("process_workers", 0) > 0
            rows = par.graph.adjacency()
            indptr, neighbors, current = par.graph.csr()
            assert current is weights
            assert list(indptr) == list(accumulate(map(len, rows), initial=0))
            assert list(neighbors) == [nbr for row in rows for nbr, _ in row]
            assert list(current) == [w for row in rows for _, w in row]
        assert list(weights) == list(serial.graph.csr()[2])
        assert slack_differences(serial.labels, par.labels) == []
