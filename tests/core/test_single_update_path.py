"""Single updates on the default path: one-update batches of Label Search.

``apply_update`` under the default ``"label_search"`` maintenance hands each
update to the batched Label Search engine: the vector rounds (with their
scalar drain) when numpy is installed, the scalar ``LabelSearchIncrease`` /
``LabelSearchDecrease`` classes otherwise.  Every write is ``fl(L(u)[i] +
w)``, the expression the build relaxes, so after every single step the
labels must equal a from-scratch build byte for byte -- on both kernels.
Nothing here reads a clock: the drain shows in the rounds counter.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import kernels
from repro.core.label_search import LabelSearchDecrease, LabelSearchIncrease
from repro.core.labelling import build_labels
from repro.core.stl import StableTreeLabelling
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.hierarchy.builder import HierarchyOptions

needs_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="requires numpy (repro[fast])")

KERNELS = [pytest.param("vector", marks=needs_numpy), "scalar"]

#: The counters that do not depend on the order of the relaxations.
ORDER_FREE = ("updates_processed", "ancestors_touched", "labels_changed", "vertices_affected")

#: Weights whose sums round, 1-ulp gaps, ``1e15`` beside small weights, and
#: closures to ``inf`` with their re-openings.
DESIGNED_WEIGHTS = (
    0.1,
    0.2,
    0.3,
    math.nextafter(1.0, math.inf),
    1e15,
    math.inf,
    0.3,
    1e15,
    math.inf,
    0.1,
)


@pytest.fixture
def kernel(request, monkeypatch):
    """``"vector"``, or ``"scalar"`` with numpy switched off for the test."""
    if request.param == "scalar":
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
    return request.param


def steps_on(graph: Graph, picks: int, seed: int):
    """Double, halve, close and re-open a few random edges, one update each."""
    rng = random.Random(seed)
    edges = rng.sample(list(graph.edges()), picks)
    for u, v, w in edges:
        yield EdgeUpdate(u, v, graph.weight(u, v), 2.0 * w)
        yield EdgeUpdate(u, v, graph.weight(u, v), 0.5 * w)
    u, v, w = edges[0]
    yield EdgeUpdate(u, v, graph.weight(u, v), math.inf)
    yield EdgeUpdate(u, v, math.inf, w)


def designed_steps(graph: Graph, picks: int, seed: int):
    """Walk a few edges through :data:`DESIGNED_WEIGHTS`, one update each."""
    rng = random.Random(seed)
    edges = rng.sample(list(graph.edges()), picks)
    for k, new in enumerate(DESIGNED_WEIGHTS * 2):
        u, v, _ = edges[k % picks]
        yield EdgeUpdate(u, v, graph.weight(u, v), new)


def assert_every_step_equals_a_build(graph: Graph, steps, kernel: str) -> list[tuple]:
    """Replay ``steps`` through ``apply_update``; returns the order-free counters."""
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=4))
    assert stl.maintenance_mode == "label_search"
    kinds = set()
    counters = []
    for number, update in enumerate(steps(stl.graph)):
        stats = stl.apply_update(update)
        kinds.add(update.kind)
        counters.append(tuple(getattr(stats, name) for name in ORDER_FREE))
        assert ("vector_kernel" in stats.extra) == (kernel == "vector")
        fresh = build_labels(stl.graph, stl.hierarchy)
        assert bytes(stl.labels.view) == bytes(fresh.view), f"step {number}: {update}"
    assert {UpdateKind.INCREASE, UpdateKind.DECREASE} <= kinds
    return counters


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestEveryStepEqualsABuild:
    def test_grid(self, kernel):
        graph = grid_road_network(12, 12, seed=5)
        assert_every_step_equals_a_build(graph, lambda g: steps_on(g, 10, seed=1), kernel)

    def test_random_graph(self, kernel):
        graph = random_connected_graph(60, 0.3, seed=8)
        assert_every_step_equals_a_build(graph, lambda g: steps_on(g, 10, seed=2), kernel)

    def test_designed_weights(self, kernel):
        graph = random_connected_graph(40, 0.3, seed=3)
        assert_every_step_equals_a_build(graph, lambda g: designed_steps(g, 4, seed=3), kernel)


@needs_numpy
@pytest.mark.parametrize("width", [0, 2, 10**9])
def test_any_drain_width_gives_the_scalar_result(width, monkeypatch):
    """Rounds only (0), a hand-off between rounds and drain at almost every
    hop (2), the drain only: every step equals a build, and the counters
    that do not depend on the relaxation order equal the scalar classes'."""
    def steps(graph):
        return steps_on(graph, 10, seed=4)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "HAS_NUMPY", False)
        scalar = assert_every_step_equals_a_build(
            grid_road_network(12, 12, seed=6), steps, "scalar"
        )
    monkeypatch.setattr(kernels, "_DRAIN_WIDTH", width)
    vector = assert_every_step_equals_a_build(grid_road_network(12, 12, seed=6), steps, "vector")
    assert vector == scalar


@pytest.mark.parametrize(
    "kernel, width",
    [
        pytest.param("vector", 2, marks=needs_numpy),
        pytest.param("vector", 16, marks=needs_numpy),
        ("scalar", 16),
    ],
    indirect=["kernel"],
)
def test_marks_after_pareto_steps(kernel, width, monkeypatch):
    """Pareto Search repairs leave differently associated sums behind, which
    exact marks can miss: the first Label Search step after them reloads a
    build, and every step then holds a build's bytes."""
    monkeypatch.setattr(kernels, "_DRAIN_WIDTH", width)
    graph = grid_road_network(12, 12, seed=2)
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=4))
    stl.set_maintenance("pareto")
    for update in designed_steps(stl.graph, 6, seed=5):
        stl.apply_update(update)
    assert stl.labels.pareto_written
    assert not stl.labels.equals(build_labels(stl.graph, stl.hierarchy))
    stl.set_maintenance("label_search")
    # The same edges again: their old shortest paths run through those sums.
    for update in designed_steps(stl.graph, 6, seed=5):
        stl.apply_update(update)
        assert not stl.labels.pareto_written
        assert bytes(stl.labels.view) == bytes(build_labels(stl.graph, stl.hierarchy).view)


#: Most rounds one update may take on :func:`long_path`.  Without the scalar
#: drain every hop is a round: thousands per update.
PATH_ROUNDS_BOUND = 8


def long_path(n: int = 4000) -> Graph:
    return Graph.from_edges(n, [(i, i + 1, 1.0 + (i % 7) / 8) for i in range(n - 1)])


@needs_numpy
def test_narrow_frontiers_drain_on_a_heap():
    """A 4,000-vertex path, 40 edges doubled and restored: the frontiers are
    one entry wide, so the drain takes them over after at most a few
    rounds -- and the bytes equal the scalar classes' after every step."""
    graph = long_path()
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=4))
    reference = StableTreeLabelling(graph.copy(), stl.hierarchy, stl.labels.copy())
    increase = LabelSearchIncrease(reference.graph, reference.hierarchy, reference.labels)
    decrease = LabelSearchDecrease(reference.graph, reference.hierarchy, reference.labels)
    before = bytes(stl.labels.view)
    rounds = []
    for u, v, w in random.Random(2).sample(list(graph.edges()), 40):
        up = EdgeUpdate(u, v, w, 2.0 * w)
        for update, scalar in ((up, increase), (up.reversed(), decrease)):
            stats = stl.apply_update(update)
            scalar.apply(update)
            rounds.append(stats.extra["rounds"])
            assert bytes(stl.labels.view) == bytes(reference.labels.view)
    assert 0 < max(rounds) <= PATH_ROUNDS_BOUND
    assert bytes(stl.labels.view) == before
