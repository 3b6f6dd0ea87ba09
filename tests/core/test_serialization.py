"""Unit tests for index serialization."""

import io
import pickle
import random

import pytest

from repro.core.serialization import (
    deserialize_labelling,
    load_labelling,
    save_labelling,
    serialize_labelling,
    serialize_snapshot,
)
from repro.core.shard import ShardPlanner
from repro.core.stl import StableTreeLabelling
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.errors import SerializationError
from tests.conftest import nx_all_pairs


@pytest.fixture
def stl(small_grid):
    return StableTreeLabelling.build(small_grid, HierarchyOptions(leaf_size=8))


def test_round_trip_preserves_queries(stl, tmp_path):
    path = tmp_path / "index.json"
    save_labelling(stl, str(path))
    loaded = load_labelling(str(path), stl.graph)
    truth = nx_all_pairs(stl.graph)
    for s in range(0, stl.graph.num_vertices, 9):
        for t in range(0, stl.graph.num_vertices, 8):
            assert loaded.query(s, t) == pytest.approx(truth[s][t])


def test_round_trip_through_handle(stl):
    buffer = io.StringIO()
    save_labelling(stl, buffer)
    buffer.seek(0)
    loaded = load_labelling(buffer, stl.graph)
    assert loaded.labels.equals(stl.labels)
    assert loaded.hierarchy.tau == stl.hierarchy.tau


def test_round_trip_preserves_maintenance_mode(stl):
    stl.set_maintenance("label_search")
    payload = serialize_labelling(stl)
    loaded = deserialize_labelling(payload, stl.graph)
    assert loaded.maintenance_mode == "label_search"


def test_loaded_index_is_maintainable(stl):
    payload = serialize_labelling(stl)
    loaded = deserialize_labelling(payload, stl.graph)
    u, v, w = next(iter(loaded.graph.edges()))
    loaded.increase_edge(u, v, w * 2)
    from repro.core.labelling import verify_labels

    assert verify_labels(loaded.graph, loaded.hierarchy, loaded.labels) == []


def test_wrong_graph_rejected(stl):
    payload = serialize_labelling(stl)
    with pytest.raises(SerializationError):
        deserialize_labelling(payload, Graph(3))


def test_wrong_version_rejected(stl):
    payload = serialize_labelling(stl)
    payload["format_version"] = 99
    with pytest.raises(SerializationError):
        deserialize_labelling(payload, stl.graph)


def test_infinite_entries_survive_round_trip():
    graph = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=2))
    payload = serialize_labelling(stl)
    loaded = deserialize_labelling(payload, graph)
    assert loaded.labels.equals(stl.labels)


def test_infinite_entries_survive_file_round_trip(tmp_path):
    """inf entries must survive the full JSON file path, not just the dict."""
    import math

    graph = Graph.from_edges(6, [(i, i + 1, 1.0) for i in range(5)])
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=2))
    # Deleting the middle edge leaves inf entries for ancestors that became
    # unreachable inside their own subgraph.
    stl.remove_edge(2, 3)
    assert any(math.isinf(d) for _, _, d in stl.labels.iter_entries())
    path = tmp_path / "index.json"
    save_labelling(stl, str(path))
    loaded = load_labelling(str(path), graph)
    assert loaded.labels.equals(stl.labels)
    assert math.isinf(loaded.query(0, 5))


def test_construction_seconds_survive_round_trip(stl):
    """Regression: stats() on a loaded index used to report 0.0 construction time."""
    assert stl.construction_seconds > 0
    payload = serialize_labelling(stl)
    loaded = deserialize_labelling(payload, stl.graph)
    assert loaded.construction_seconds == stl.construction_seconds
    assert loaded.stats().construction_seconds == stl.construction_seconds


@pytest.mark.parametrize("version", [1, 2])
def test_nested_list_versions_rejected(stl, version):
    """Versions 1-2 stored nested per-vertex lists; they are refused by name."""
    payload = serialize_labelling(stl)
    payload["format_version"] = version
    with pytest.raises(SerializationError, match=rf"format version {version}\b"):
        deserialize_labelling(payload, stl.graph)


def test_snapshot_embeds_the_labelling_payload(stl):
    """A snapshot's labelling section is the checkpoint payload, field for field."""
    stl.set_maintenance("pareto")
    expected = serialize_labelling(stl)
    expected.update(maintenance="label_search", construction_seconds=0.0)
    assert serialize_snapshot(stl.snapshot())["labelling"] == expected


def test_corrupt_flat_payload_rejected(stl):
    """A flat payload with inconsistent offsets raises SerializationError."""
    payload = serialize_labelling(stl)
    payload["label_offsets"] = payload["label_offsets"][:-1] + [
        payload["label_offsets"][-1] + 1
    ]
    with pytest.raises(SerializationError):
        deserialize_labelling(payload, stl.graph)


# --------------------------------------------------------------------------- #
# Pickle round-trips (the process shard backend silently depends on these)
# --------------------------------------------------------------------------- #

def _mixed_net_batch(graph, seed=3):
    rng = random.Random(seed)
    batch = UpdateBatch()
    for u, v, w in graph.edges():
        if rng.random() < 0.4:
            batch.append(EdgeUpdate(u, v, w, round(w * rng.uniform(0.5, 2.0), 3)))
    return batch.coalesce(graph)


def test_shard_plan_pickle_round_trip(small_grid):
    """A ShardPlan ships to worker processes; pickling must be lossless."""
    planner = ShardPlanner(small_grid, num_shards=4)
    plan = planner.plan(_mixed_net_batch(small_grid))
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.regions == plan.regions
    assert clone.separator == plan.separator
    assert list(clone.residual) == list(plan.residual)
    assert len(clone.shards) == len(plan.shards)
    for mine, theirs in zip(plan.shards, clone.shards):
        assert list(mine) == list(theirs)
    assert clone.balance == plan.balance
    assert clone.num_updates == plan.num_updates
