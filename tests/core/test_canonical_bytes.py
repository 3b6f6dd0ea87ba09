"""Every production Label Search path leaves a build's bytes behind.

Bytes are the one notion of label equality (:meth:`STLLabels.equals`).  The
build is the greatest fixed point of the relax, and every Label Search write
is the build's own expression ``fl(L(u)[i] + w)``, so after every step below
the store must equal ``build_labels`` on the current graph byte for byte --
on the vector rounds and on the scalar heaps.  Pareto Search writes
differently associated sums; the first Label Search pass after one reloads a
build (:attr:`STLLabels.pareto_written`), which these tests also follow
through copies, files and the serving layer.

The last test shows that the byte check is sharp: a repair written as
``L(u)[i] + (w_old + Δ)`` instead of ``L(u)[i] + w_new`` fails it, where the
Pareto tolerance would let it pass.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core import kernels
from repro.core.batch import BatchPolicy
from repro.core.config import STLConfig
from repro.core.labelling import build_labels
from repro.core.serialization import (
    deserialize_labelling,
    load_labelling,
    save_labelling,
    serialize_labelling,
)
from repro.core.stl import StableTreeLabelling
from repro.core.structural import StructuralUpdater
from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions
from repro.serve.service import QueryService
from tests.conftest import assert_bytes_of_a_build, random_mixed_batch, slack_from_rebuild

needs_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="requires numpy (repro[fast])")

KERNELS = [pytest.param("vector", marks=needs_numpy), "scalar"]

FORCED_REBUILD = STLConfig(policy=BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0))
NO_REBUILD = BatchPolicy(rebuild_fraction=None)


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """``"vector"``, or ``"scalar"`` with numpy switched off for the test."""
    if request.param == "scalar":
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
    return request.param


def build_index(graph: Graph | None = None, maintenance: str = "label_search"):
    graph = graph if graph is not None else grid_road_network(10, 10, seed=4)
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=4), maintenance)
    stl.batch_policy = NO_REBUILD
    return stl


def steps_on(graph: Graph, picks: int, seed: int):
    """Double, then third, a few random edges, one update each."""
    rng = random.Random(seed)
    for u, v, _ in rng.sample(sorted(graph.edges()), picks):
        yield EdgeUpdate(u, v, graph.weight(u, v), 2.0 * graph.weight(u, v))
        yield EdgeUpdate(u, v, graph.weight(u, v), graph.weight(u, v) / 3.0)


def pareto_steps(stl: StableTreeLabelling, seed: int = 5) -> None:
    """A few Pareto single updates; they leave the store Pareto-written."""
    stl.set_maintenance("pareto")
    for update in steps_on(stl.graph, 4, seed):
        stl.apply_update(update)
    stl.set_maintenance("label_search")
    assert stl.labels.pareto_written


def label_search_steps(stl: StableTreeLabelling, seed: int = 6) -> None:
    """Label Search single updates, checking the bytes after each."""
    for update in steps_on(stl.graph, 4, seed):
        stl.apply_update(update)
        assert not stl.labels.pareto_written
        assert_bytes_of_a_build(stl)


class TestRebuildFallback:
    def test_forced_fallback_then_label_search(self, kernel):
        """The fallback loads a build (clearing the Pareto fact), and Label
        Search steps after it keep the bytes of one."""
        stl = build_index()
        pareto_steps(stl)
        batch = random_mixed_batch(stl.graph, 12, seed=3)
        stats = stl.apply_batch(batch, config=FORCED_REBUILD)
        assert stats.extra["rebuild_fallback"] == 1
        assert not stl.labels.pareto_written
        assert_bytes_of_a_build(stl)
        label_search_steps(stl)

    def test_label_search_batches_after_pareto_batches(self, kernel):
        """A Pareto batch, then a Label Search batch on the serial engine and
        on the thread shards: each Label Search batch ends on a build's bytes."""
        stl = build_index()
        pareto = STLConfig(engine="pareto", policy=NO_REBUILD)
        for backend in ("serial", "thread"):
            stl.apply_batch(random_mixed_batch(stl.graph, 20, seed=7), config=pareto)
            assert stl.labels.pareto_written
            assert slack_from_rebuild(stl.graph, stl.hierarchy, stl.labels) == []
            config = STLConfig(engine="label_search", backend=backend, policy=NO_REBUILD)
            stl.apply_batch(random_mixed_batch(stl.graph, 20, seed=8), config=config)
            assert not stl.labels.pareto_written
            assert_bytes_of_a_build(stl)
        stl.close()


class TestStructuralUpdates:
    def test_deletions_and_insertions(self, kernel):
        """``delete_edge``, a re-insertion, ``delete_vertex`` and a brand-new
        edge between comparable vertices all run Label Search in place."""
        stl = build_index()
        store = stl.labels
        updater = StructuralUpdater(stl)
        u, v, w = sorted(stl.graph.edges())[7]
        updater.delete_edge(u, v)
        assert_bytes_of_a_build(stl)
        updater.insert_edge(u, v, w)
        assert_bytes_of_a_build(stl)
        updater.delete_vertex(33)
        assert_bytes_of_a_build(stl)
        n = stl.graph.num_vertices
        a, b = next(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if not stl.graph.has_edge(a, b) and stl.hierarchy.precedes(a, b)
        )
        updater.insert_edge(a, b, 0.5)
        assert stl.graph.weight(a, b) == 0.5
        assert_bytes_of_a_build(stl)
        assert stl.labels is store, "comparable insertions patch the store in place"


class TestSavedFiles:
    def test_round_trip_then_label_search(self, kernel, tmp_path):
        stl = build_index()
        label_search_steps(stl, seed=1)
        path = tmp_path / "labelling.json"
        save_labelling(stl, path)
        loaded = load_labelling(path, stl.graph.copy())
        assert loaded.labels.equals(stl.labels)
        assert not loaded.labels.pareto_written
        loaded.batch_policy = NO_REBUILD
        label_search_steps(loaded)

    def test_file_saved_after_pareto_steps(self, kernel, tmp_path):
        """The file says a Pareto pass wrote the store, so the loaded index
        reloads a build before its first Label Search step."""
        stl = build_index()
        pareto_steps(stl)
        path = tmp_path / "labelling.json"
        save_labelling(stl, path)
        loaded = load_labelling(path, stl.graph.copy())
        assert loaded.labels.pareto_written
        assert loaded.maintenance_mode == "label_search"
        label_search_steps(loaded)

    def test_payload_without_the_key(self):
        """Files written before the key existed count as Pareto-written when
        their maintenance family is Pareto."""
        stl = build_index(maintenance="pareto")
        payload = serialize_labelling(stl)
        assert payload.pop("pareto_written") is False
        assert deserialize_labelling(payload, stl.graph).labels.pareto_written
        payload["maintenance"] = "label_search"
        assert not deserialize_labelling(payload, stl.graph).labels.pareto_written


def run(coro):
    return asyncio.run(coro)


def assert_published_bytes(service: QueryService) -> None:
    snap = service.active_snapshot
    fresh = build_labels(snap.graph, snap.hierarchy)
    assert bytes(snap.labels.view) == bytes(fresh.view), snap.labels.differences(fresh)[:5]


def commits(graph: Graph, count: int, seed: int):
    rng = random.Random(seed)
    edges = sorted(graph.edges())
    for _ in range(count):
        yield [(u, v, round(rng.uniform(0.5, 40.0), 1)) for u, v, _ in rng.sample(edges, 6)]


class TestServiceCommits:
    def test_every_published_store_is_a_build(self, kernel):
        graph = grid_road_network(8, 8, seed=12)

        async def scenario():
            async with QueryService(graph.copy()) as service:
                await service.wait_ready()
                assert_published_bytes(service)
                for batch in commits(graph, 4, seed=2):
                    await service.submit(batch)
                    assert_published_bytes(service)

        run(scenario())

    def test_restart_after_pareto_commits(self, tmp_path):
        """A snapshot persisted by a Pareto service restores a Pareto-written
        store; a Label Search service's first commit on it reloads a build."""
        path = tmp_path / "snapshot.json"
        graph = grid_road_network(8, 8, seed=13)

        async def pareto_life():
            async with QueryService(
                graph.copy(), config=STLConfig(engine="pareto"), snapshot_path=path
            ) as service:
                await service.wait_ready()
                for batch in commits(graph, 2, seed=3):
                    await service.submit(batch)
                assert service.active_snapshot.labels.pareto_written

        async def label_search_life():
            async with QueryService(graph.copy(), snapshot_path=path) as service:
                assert service.active_snapshot.labels.pareto_written
                for batch in commits(graph, 2, seed=4):
                    await service.submit(batch)
                    assert not service.active_snapshot.labels.pareto_written
                    assert_published_bytes(service)

        run(pareto_life())
        run(label_search_life())


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
def test_a_reassociated_repair_fails_the_byte_check(kernel):
    """Mutation: an increase of a bridge whose repairs add ``w_old + Δ``
    (the weight landed as ``w_old + (w_new - w_old)``, one ulp off
    ``w_new``) instead of ``w_new``.  The entries across the bridge then
    differ from a build's by an ulp: the byte check fails, while the Pareto
    tolerance sees nothing wrong."""
    w_old, w_new = 0.1, 0.45
    reassociated = w_old + (w_new - w_old)
    assert reassociated != w_new

    def bridge_index() -> StableTreeLabelling:
        path = [(i, i + 1, w_old if i == 20 else 1.0) for i in range(39)]
        return build_index(Graph.from_edges(40, path))

    honest = bridge_index()
    honest.apply_update(EdgeUpdate(20, 21, w_old, w_new))
    assert_bytes_of_a_build(honest)

    mutated = bridge_index()
    mutated.apply_update(EdgeUpdate(20, 21, w_old, reassociated))
    mutated.graph.set_weight(20, 21, w_new)  # the weight the update meant
    with pytest.raises(AssertionError):
        assert_bytes_of_a_build(mutated)
    assert slack_from_rebuild(mutated.graph, mutated.hierarchy, mutated.labels) == []
