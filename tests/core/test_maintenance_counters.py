"""Exact maintenance counters and label bytes for a fixed sequence of runs.

The ``MaintenanceStats`` counters back Figure 10's asserts, the maintenance
ledger and the bench's ``maint.*`` probes, so a refactor of a search body
must leave them unchanged, not merely plausible.  This test replays one
fixed sequence on a seeded grid and compares every counter, plus a sha256
prefix of the label buffer, with values recorded before the per-update
classes and the batch engines started sharing their search code:

* per-update Pareto Search increases and decreases (a closure to ``inf``
  and its re-opening included),
* per-update Label Search increases and decreases, through the scalar
  ``LabelSearchIncrease`` / ``LabelSearchDecrease`` classes (``apply_update``
  with numpy switched off),
* one ``BatchedParetoEngine`` batch,
* one batched Label Search batch on the scalar heaps (numpy switched off).

Every Label Search step must also hold a build's bytes: the index reloads a
build before the first Label Search pass on a store Pareto wrote, so the
batch after ``batch.pareto`` starts from canonical labels.  (Its digest was
re-recorded when that reload arrived; its counters did not move.)

The same Label Search steps through the default ``apply_update`` -- a
one-update batch of the batched Label Search engine, on the vector rounds
when numpy is installed -- must write the same bytes; their counters are
pinned separately (:data:`ONE_UPDATE_BATCHES`), because a frontier counts
its entries differently from a heap.
"""

from __future__ import annotations

import hashlib
import math
from unittest.mock import patch

from repro.core import kernels
from repro.core.batch import BatchPolicy
from repro.core.config import STLConfig
from repro.core.labelling import build_labels
from repro.core.stl import StableTreeLabelling
from repro.graph.generators import grid_road_network
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from tests.conftest import apply_batch_without_numpy

COUNTERS = (
    "updates_processed",
    "ancestors_touched",
    "labels_changed",
    "vertices_affected",
    "heap_pushes",
)

#: ``(step, counters in COUNTERS order, label buffer sha256 prefix)``.
EXPECTED = [
    ("build", None, "3171b53ff115c5bd"),
    ("pareto.increase.3", (1, 0, 68, 16, 110), "58669886e0723c0b"),
    ("pareto.decrease.3", (1, 0, 40, 36, 61), "1067601d77a2f536"),
    ("pareto.increase.57", (1, 0, 88, 68, 268), "be711b33265e35d7"),
    ("pareto.decrease.57", (1, 0, 114, 79, 240), "d633427b87583726"),
    ("pareto.increase.140", (1, 0, 52, 26, 107), "6384210e5f8454e0"),
    ("pareto.decrease.140", (1, 0, 49, 34, 93), "85dc03949d7050aa"),
    ("pareto.increase.201", (1, 0, 14, 9, 30), "ac6e825db0fb732e"),
    ("pareto.decrease.201", (1, 0, 29, 11, 27), "acfbc0e0ce025dbc"),
    ("pareto.close.3", (1, 0, 80, 18, 144), "f6820e4448967a53"),
    ("pareto.reopen.3", (1, 0, 18, 18, 26), "c129efee5b57b338"),
    ("label_search.increase.11", (1, 21, 71, 71, 73), "3db77989e68a940d"),
    ("label_search.decrease.11", (1, 22, 73, 0, 104), "c52bb74dce0b82f3"),
    ("label_search.increase.88", (1, 23, 93, 93, 94), "8a6841bc9be4bef0"),
    ("label_search.decrease.88", (1, 23, 93, 0, 97), "6097122d36c393a1"),
    ("label_search.increase.176", (1, 28, 71, 71, 73), "2036cea573bd7711"),
    ("label_search.decrease.176", (1, 28, 71, 0, 82), "190a46f830488a35"),
    ("label_search.increase.230", (1, 10, 10, 10, 10), "b45c44ce82bc61b1"),
    ("label_search.decrease.230", (1, 23, 33, 0, 33), "fb6e47dd7765203b"),
    ("label_search.close.11", (1, 22, 74, 74, 76), "50449f3d1598f4c4"),
    ("label_search.reopen.11", (1, 18, 58, 0, 80), "d0d90209ec2193f5"),
    ("batch.pareto", (7, 0, 803, 232, 933), "a840469a80364b4e"),
    ("batch.label_search.scalar", (7, 42, 638, 284, 726), "d613fb617faab9d0"),
]

#: The steps whose bytes must be a build's: the build and every Label
#: Search step (the first after Pareto steps reloads a build first).
CANONICAL = ("build", "label_search.", "batch.label_search.")


#: The ``label_search.*`` steps through the default ``apply_update`` on the
#: vector rounds: ``(step, counters in COUNTERS order)``.  Their label bytes
#: are the scalar rows' above.
ONE_UPDATE_BATCHES = [
    ("label_search.increase.11", (1, 21, 71, 71, 157)),
    ("label_search.decrease.11", (1, 22, 73, 0, 79)),
    ("label_search.increase.88", (1, 23, 93, 93, 207)),
    ("label_search.decrease.88", (1, 23, 93, 0, 94)),
    ("label_search.increase.176", (1, 28, 71, 71, 164)),
    ("label_search.decrease.176", (1, 28, 71, 0, 73)),
    ("label_search.increase.230", (1, 10, 10, 10, 20)),
    ("label_search.decrease.230", (1, 23, 33, 0, 33)),
    ("label_search.close.11", (1, 22, 74, 74, 157)),
    ("label_search.reopen.11", (1, 18, 58, 0, 62)),
]


def _edges(stl: StableTreeLabelling) -> list[tuple[int, int, float]]:
    return sorted(stl.graph.edges())


def _per_update_steps(stl: StableTreeLabelling, family: str, picks: list[int]):
    """Double, halve, close and re-open a few fixed edges, one update each."""
    edges = _edges(stl)
    for k in picks:
        u, v, w = edges[k]
        yield f"{family}.increase.{k}", EdgeUpdate(u, v, w, 2.0 * w)
        yield f"{family}.decrease.{k}", EdgeUpdate(u, v, 2.0 * w, 0.75 * w)
    u, v, w = edges[picks[0]]
    yield f"{family}.close.{picks[0]}", EdgeUpdate(u, v, 0.75 * w, math.inf)
    yield f"{family}.reopen.{picks[0]}", EdgeUpdate(u, v, math.inf, w)


def _batch(stl: StableTreeLabelling, picks: list[int]) -> UpdateBatch:
    """Mixed kinds on distinct edges: doubled, thirded, and one closure."""
    edges = _edges(stl)
    batch = UpdateBatch()
    for j, k in enumerate(picks):
        u, v, _ = edges[k]
        w = stl.graph.weight(u, v)
        new = math.inf if j == 0 else (2.0 * w if j % 2 else w / 3.0)
        batch.append(EdgeUpdate(u, v, w, new))
    return batch


def scalar_label_search_update(stl: StableTreeLabelling, update: EdgeUpdate):
    """One update through ``apply_update`` with numpy switched off: the
    scalar Label Search class of its kind, after the index's reload of a
    build into a store Pareto wrote."""
    with patch.object(kernels, "HAS_NUMPY", False):
        stats = stl.apply_update(update)
    assert "vector_kernel" not in stats.extra
    return stats


def default_update(stl: StableTreeLabelling, update: EdgeUpdate):
    """One update through the index's default path."""
    return stl.apply_update(update)


def run_sequence(stl: StableTreeLabelling, scalar_label_search_batch, label_search_update):
    """Yield ``(step, stats or None, labels sha256)`` for the fixed sequence.

    ``scalar_label_search_batch(stl, batch)`` applies one batch through the
    batched Label Search engine on its scalar heaps;
    ``label_search_update(stl, update)`` applies one Label Search update.
    """

    def digest() -> str:
        return store_digest(stl.labels)

    yield "build", None, digest()
    stl.set_maintenance("pareto")
    for step, update in _per_update_steps(stl, "pareto", [3, 57, 140, 201]):
        yield step, stl.apply_update(update), digest()
    stl.set_maintenance("label_search")
    for step, update in _per_update_steps(stl, "label_search", [11, 88, 176, 230]):
        yield step, label_search_update(stl, update), digest()
    pareto = STLConfig(engine="pareto", policy=BatchPolicy(rebuild_fraction=None))
    stats = stl.apply_batch(_batch(stl, [5, 40, 77, 120, 163, 199, 244]), config=pareto)
    yield "batch.pareto", stats, digest()
    stats = scalar_label_search_batch(stl, _batch(stl, [9, 31, 64, 101, 150, 188, 225]))
    yield "batch.label_search.scalar", stats, digest()


def store_digest(labels) -> str:
    return hashlib.sha256(labels.view.tobytes()).hexdigest()[:16]


def build_index() -> StableTreeLabelling:
    graph = grid_road_network(12, 12, seed=5)
    return StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=4))


def observed(scalar_label_search_batch, label_search_update) -> list[tuple]:
    """The sequence's record, in :data:`EXPECTED`'s shape."""
    stl = build_index()
    record = []
    for step, stats, sha in run_sequence(stl, scalar_label_search_batch, label_search_update):
        counters = None if stats is None else tuple(getattr(stats, name) for name in COUNTERS)
        record.append((step, counters, sha))
        if step.startswith(CANONICAL):
            assert sha == store_digest(build_labels(stl.graph, stl.hierarchy)), step
    stl.close()
    return record


def scalar_batch(stl, batch):
    label_search = STLConfig(engine="label_search", policy=BatchPolicy(rebuild_fraction=None))
    stats = apply_batch_without_numpy(stl, batch, label_search)
    assert "vector_kernel" not in stats.extra
    return stats


def test_counters_and_label_bytes_match_the_recorded_sequence():
    record = observed(scalar_batch, scalar_label_search_update)
    assert [step for step, _, _ in record] == [step for step, _, _ in EXPECTED]
    for got, want in zip(record, EXPECTED):
        assert got == want, f"step {want[0]}: got {got[1:]}, recorded {want[1:]}"


def test_default_apply_update_writes_the_scalar_bytes():
    """The Label Search steps through ``apply_update``: same bytes as the
    scalar classes, and the one-update batches' own pinned counters (the
    scalar rows' counters when numpy is absent, where the engine runs those
    classes)."""
    expected = list(EXPECTED)
    if kernels.HAS_NUMPY:
        rows = {step: i for i, (step, _, _) in enumerate(expected)}
        for step, counters in ONE_UPDATE_BATCHES:
            expected[rows[step]] = (step, counters, expected[rows[step]][2])
    record = observed(scalar_batch, default_update)
    assert [step for step, _, _ in record] == [step for step, _, _ in expected]
    for got, want in zip(record, expected):
        assert got == want, f"step {want[0]}: got {got[1:]}, recorded {want[1:]}"
