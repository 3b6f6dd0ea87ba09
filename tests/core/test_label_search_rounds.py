"""The vector kernel of batched Label Search and the graph arrays under it.

``tests/core/test_engine_equivalence.py`` holds the vector rounds to the
scalar heaps on the suite's three workload shapes; this file covers what the
flat-position formulation could get wrong on its own: ``inf`` entries and
``inf`` weights, labels living in shared memory, rewritten (re-associated)
entries, deep thin frontiers, frontiers wider than one chunk -- and the
graph's CSR arrays, which must see every weight write whoever made it.
"""

import math
import pickle
import signal
from contextlib import contextmanager
from itertools import accumulate, combinations

import pytest

from repro.core import kernels
from repro.core.batch import BatchPolicy
from repro.core.batch_label_search import BatchedLabelSearchEngine
from repro.core.config import STLConfig
from repro.core.labelling import build_labels
from repro.core.stl import StableTreeLabelling
from repro.core.structural import StructuralUpdater
from repro.graph.generators import grid_road_network, highway_grid_network
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.errors import ConfigError
from repro.workloads.updates import rush_hour_stream
from tests.conftest import apply_batch_without_numpy, paired_indexes, random_mixed_batch

needs_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="requires numpy (repro[fast])")

NO_REBUILD = BatchPolicy(rebuild_fraction=None)
LABEL_SEARCH = STLConfig(engine="label_search", backend="serial", policy=NO_REBUILD)


def apply_to_both(scalar, vector, batch):
    """One batch through both kernels; labels must match byte for byte and
    equal a from-scratch rebuild.  Returns both stats objects."""
    reference = apply_batch_without_numpy(scalar, batch, LABEL_SEARCH)
    stats = vector.apply_batch(batch, config=LABEL_SEARCH)
    assert stats.extra["vector_kernel"] == 1
    assert vector.labels.view.tobytes() == scalar.labels.view.tobytes()
    fresh = build_labels(vector.graph, vector.hierarchy)
    assert vector.labels.differences(fresh) == []
    return reference, stats


def two_component_graph() -> Graph:
    """Two 5x5 grids with no edge between them: ``inf`` label entries."""
    left = grid_road_network(5, 5, seed=3)
    right = grid_road_network(5, 5, seed=4)
    n = left.num_vertices
    graph = Graph(2 * n)
    for u, v, w in left.edges():
        graph.add_edge(u, v, w)
    for u, v, w in right.edges():
        graph.add_edge(n + u, n + v, w)
    return graph


@needs_numpy
class TestVectorKernelCases:
    def test_disconnected_graph_keeps_inf_entries(self):
        graph = two_component_graph()
        scalar, vector = paired_indexes(graph, leaf_size=4)
        assert any(math.isinf(x) for x in vector.labels.view), "scenario needs inf entries"
        for seed in range(3):
            apply_to_both(scalar, vector, random_mixed_batch(scalar.graph, 30, seed=seed))

    def test_closures_and_reopenings_in_one_batch(self, small_grid):
        """Edges closed (weight ``inf``) next to ordinary updates, then
        reopened: ``inf`` weights on arcs, ``inf`` entries appearing and
        disappearing."""
        scalar, vector = paired_indexes(small_grid)
        edges = list(small_grid.edges())
        closing = UpdateBatch(
            [EdgeUpdate(u, v, w, math.inf) for u, v, w in edges[::5]]
            + [EdgeUpdate(u, v, w, round(w * 1.5, 2)) for u, v, w in edges[1::5]]
        )
        up, _ = apply_to_both(scalar, vector, closing)
        assert up.labels_changed > 0
        # Cut the best-connected vertex off entirely: whole rows go to inf.
        graph = scalar.graph
        open_edges = {
            v: [(nbr, w) for nbr, w in graph.neighbors(v) if not math.isinf(w)]
            for v in graph.vertices()
        }
        hub = max(open_edges, key=lambda v: len(open_edges[v]))
        isolate = UpdateBatch([EdgeUpdate(hub, nbr, w, math.inf) for nbr, w in open_edges[hub]])
        apply_to_both(scalar, vector, isolate)
        assert any(math.isinf(x) for x in vector.labels.view)
        apply_to_both(scalar, vector, isolate.reversed())
        apply_to_both(scalar, vector, closing.reversed())

    def test_labels_resident_in_shared_memory(self, small_grid):
        """After a process-backend batch the store lives in a shared segment;
        the cached array views must follow it there."""
        scalar, vector = paired_indexes(small_grid)
        try:
            warm = random_mixed_batch(small_grid, 40, seed=1)
            process = STLConfig(
                backend="process", policy=BatchPolicy(rebuild_fraction=None, max_workers=2)
            )
            apply_batch_without_numpy(scalar, warm, LABEL_SEARCH)
            vector.apply_batch(warm, config=process)
            assert vector.labels.is_shared
            for seed in (2, 3):
                apply_to_both(scalar, vector, random_mixed_batch(scalar.graph, 40, seed=seed))
            assert vector.labels.is_shared
        finally:
            vector.close()
        assert not vector.labels.is_shared
        apply_to_both(scalar, vector, random_mixed_batch(scalar.graph, 40, seed=4))

    def test_repeated_batches_stay_exact(self, small_grid):
        """The tolerance regression (``on_old_shortest_path``) with the vector
        kernel pinned: from round two on, entries are differently-associated
        sums written by earlier repairs, and an exact mark would miss them."""
        scalar, vector = paired_indexes(small_grid)
        for round_ in range(4):
            apply_to_both(scalar, vector, random_mixed_batch(scalar.graph, 40, seed=round_))

    def test_deep_chain(self, monkeypatch):
        """A path graph with the scalar drain off: one entry per frontier, a
        round per hop."""
        monkeypatch.setattr(kernels, "_DRAIN_WIDTH", 0)
        n = 600
        graph = Graph.from_edges(n, [(i, i + 1, 1.0 + (i % 7) / 8) for i in range(n - 1)])
        scalar, vector = paired_indexes(graph, leaf_size=4)
        rising = UpdateBatch(
            [EdgeUpdate(i, i + 1, graph.weight(i, i + 1), 9.0) for i in (3, n // 2, n - 5)]
        )
        _, stats = apply_to_both(scalar, vector, rising)
        assert stats.extra["rounds"] > 50
        apply_to_both(scalar, vector, rising.reversed())

    def test_frontier_spanning_several_chunks(self, medium_grid, monkeypatch):
        """Chunking must not show: a 5-entry chunk against the default."""
        whole, chunked = paired_indexes(medium_grid)
        scalar = StableTreeLabelling(medium_grid.copy(), whole.hierarchy, whole.labels.copy())
        for seed in range(2):
            batch = random_mixed_batch(whole.graph, 50, seed=seed)
            expected = whole.apply_batch(batch, config=LABEL_SEARCH)
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_FRONTIER_CHUNK_ENTRIES", 5)
                _, stats = apply_to_both(scalar, chunked, batch)
            assert expected.vertices_affected > 5, "frontiers never outgrew a chunk"
            assert chunked.labels.view.tobytes() == whole.labels.view.tobytes()
            for key in ("labels_changed", "vertices_affected", "ancestors_touched"):
                assert getattr(stats, key) == getattr(expected, key)

    def test_decrease_counts_each_entry_once(self, medium_grid):
        """A decreased entry may improve in several rounds; ``labels_changed``
        is the number of *distinct* entries rewritten."""
        _, vector = paired_indexes(medium_grid)
        rising = UpdateBatch(
            [EdgeUpdate(u, v, w, w * 3.0) for u, v, w in list(medium_grid.edges())[::4]]
        )
        up = vector.apply_batch(rising, config=LABEL_SEARCH)
        assert up.labels_changed == up.vertices_affected > 0
        before = vector.labels.copy()
        down = vector.apply_batch(rising.reversed(), config=LABEL_SEARCH)
        rewritten = sum(a != b for a, b in zip(before.view, vector.labels.view))
        assert down.labels_changed == rewritten
        assert down.heap_pushes >= rewritten and down.extra["rounds"] > 1

    def test_batches_after_label_adoption(self, small_grid):
        """The serving layer adopts a shadow store before every commit."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stl.batch_policy = NO_REBUILD
        stl.apply_batch(random_mixed_batch(stl.graph, 20, seed=1))
        stl.adopt_labels(stl.labels.snapshot_store())
        stl.apply_batch(random_mixed_batch(stl.graph, 20, seed=2))
        assert stl.labels.differences(build_labels(stl.graph, stl.hierarchy)) == []

    def test_arc_tables_are_reused_until_the_graph_arrays_change(self, small_grid):
        """One-update batches reuse the per-arc tables cached on the store;
        a new edge rebuilds the graph's CSR arrays, and the tables follow."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        u, v, w = next(iter(stl.graph.edges()))
        stl.apply_update(EdgeUpdate(u, v, w, w * 2))
        tables = stl.labels._arc_cache
        stl.apply_update(EdgeUpdate(u, v, w * 2, w))
        assert stl.labels._arc_cache is tables
        a, b = next(
            (a, b)
            for a, b in combinations(stl.graph.vertices(), 2)
            if not stl.graph.has_edge(a, b) and stl.hierarchy.precedes(a, b)
        )
        StructuralUpdater(stl).insert_edge(a, b, 0.5)
        stl.apply_batch(random_mixed_batch(stl.graph, 10, seed=3), config=LABEL_SEARCH)
        assert stl.labels._arc_cache[0] is stl.graph.csr()[1]
        assert stl.labels.view.tobytes() == build_labels(stl.graph, stl.hierarchy).view.tobytes()

    def test_engine_built_over_a_stale_graph_state(self, small_grid):
        """An engine created long after the graph started changing."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        for seed in range(3):
            batch = random_mixed_batch(stl.graph, 20, seed=seed)
            apply_batch_without_numpy(stl, batch, LABEL_SEARCH)
        engine = BatchedLabelSearchEngine(stl.graph, stl.hierarchy, stl.labels)
        batch = random_mixed_batch(stl.graph, 20, seed=9).coalesce(stl.graph)
        assert engine.apply(batch.updates).extra["vector_kernel"] == 1
        assert stl.labels.differences(build_labels(stl.graph, stl.hierarchy)) == []


# --------------------------------------------------------------------------- #
# Nearest-first relax (the gate lowered onto small graphs)
# --------------------------------------------------------------------------- #


@pytest.fixture
def windows(monkeypatch):
    """Lower the nearest-first gate to a few entries and record, for every
    near window the relaxes open, how many entries it took and how many it
    left on the far pile."""
    monkeypatch.setattr(kernels, "_FRONTIER_CHUNK_ENTRIES", 8)
    opened: list[tuple[int, int]] = []
    advance = kernels.LabelSearchRounds._advance

    def recording(self, pile, width):
        window = advance(self, pile, width)
        opened.append((len(window[1]), sum(len(part[1]) for part in window[3])))
        return window

    monkeypatch.setattr(kernels.LabelSearchRounds, "_advance", recording)
    return opened


def relax_fifo(self, vertices, positions, changed=None):
    """``LabelSearchRounds.relax`` pinned to FIFO rounds, the order before
    nearest-first."""
    return self._relax_fifo(vertices, positions, changed)


@contextmanager
def deadline(seconds: float):
    """Raise instead of hanging when a relax never terminates."""

    def expire(signum, frame):
        raise TimeoutError(f"the relax did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


needs_alarm = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


def far_pile_ran(windows) -> bool:
    """Whether some window left entries on the far pile for a later one."""
    return any(left for _, left in windows)


def assert_build_bytes(stl):
    assert bytes(stl.labels.view) == bytes(build_labels(stl.graph, stl.hierarchy).view)


def rush_hour_cycles(graph):
    """S/M/L-style cycles: growing congestion zones, each cycle netting to zero."""
    for hotspots, radius, seed in ((2, 1, 102), (3, 2, 103), (4, 3, 6)):
        stream = rush_hour_stream(
            graph, num_steps=8, num_hotspots=hotspots, radius=radius, seed=seed
        )
        yield [batch for batch in stream if len(batch)]


def to_weights(graph, targets):
    """One batch moving each ``(u, v)`` edge to its new weight (the last
    one listed for it)."""
    last = {(u, v): new for u, v, new in targets}
    return UpdateBatch([EdgeUpdate(u, v, graph.weight(u, v), new) for (u, v), new in last.items()])


def designed_graph() -> Graph:
    """Zero-weight arcs and a zero-weight cycle, ``1e15`` beside ``1.0``, a
    closed edge, and a second component whose weights are all zero."""
    grid = grid_road_network(6, 6, seed=11)
    zeros = grid_road_network(3, 3, seed=12)
    n = grid.num_vertices
    graph = Graph(n + zeros.num_vertices)
    for k, (u, v, w) in enumerate(grid.edges()):
        graph.add_edge(u, v, (0.0, 1.0, 1e15, w, 1.0, 2.0, 0.5)[k % 7])
        if k % 7 == 5:
            graph.set_weight(u, v, math.inf)  # closed, not absent
    for u, v in ((0, 1), (1, 7), (7, 6), (6, 0)):  # a zero-weight 4-cycle
        graph.set_weight(u, v, 0.0)
    for u, v, _ in zeros.edges():
        graph.add_edge(n + u, n + v, 0.0)
    return graph


def designed_steps(graph: Graph):
    """Batches over the designed graph: edges to 0 and back, closures and
    re-openings, 1e15 and 1.0 trading places, the zero component opening up
    and closing again, and mixed random weights."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    n = graph.num_vertices - 9
    zero_part = [(u, v) for u, v in edges if u >= n]
    steps = [
        [(u, v, 0.0) for u, v in edges[1::5]] + [(u, v, 1e15) for u, v in edges[3::11]],
        [(u, v, math.inf) for u, v in edges[::4]] + [(u, v, 1.0) for u, v in zero_part[::2]],
        [(u, v, 1.0) for u, v in edges[2::3]] + [(u, v, math.inf) for u, v in zero_part[1::2]],
        [(u, v, 0.0) for u, v in edges[::4]] + [(u, v, 0.0) for u, v in zero_part],
        [(u, v, 1e15 if k % 2 else 1.0) for k, (u, v) in enumerate(edges[::3])],
    ]
    for targets in steps:
        yield to_weights(graph, targets)
    for seed in range(3):
        yield random_mixed_batch(graph, 25, seed=seed)


@needs_numpy
class TestNearestFirst:
    """A relax that starts from at least one chunk of entries runs
    nearest-first; every order must write the build's bytes (the class
    docstring's invariant), and the counters keep their meaning."""

    def test_rush_hour_cycles_equal_a_build_after_every_batch(self, windows):
        graph = highway_grid_network(400, seed=3)
        stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=8))
        for cycle in rush_hour_cycles(graph):
            for batch in cycle:
                stl.apply_batch(batch, config=LABEL_SEARCH)
                assert_build_bytes(stl)
        assert far_pile_ran(windows)

    @needs_alarm
    @pytest.mark.parametrize("width", [0.0, kernels._NEAR_WIDTH, math.inf])
    def test_designed_weights_equal_a_build_after_every_batch(self, windows, monkeypatch, width):
        monkeypatch.setattr(kernels, "_NEAR_WIDTH", width)
        stl = StableTreeLabelling.build(designed_graph(), HierarchyOptions(leaf_size=4))
        assert_build_bytes(stl)
        for batch in designed_steps(stl.graph):
            with deadline(10):
                stl.apply_batch(batch, config=LABEL_SEARCH)
            assert_build_bytes(stl)
        # An infinite window is FIFO order without the drain.
        assert far_pile_ran(windows) == (width < math.inf)

    @needs_alarm
    def test_zero_width_enqueues_each_entry_once(self, windows, monkeypatch, medium_grid):
        """At width 0 a window holds one distance and positive weights put
        every improvement beyond it, so each written entry joins exactly one
        frontier: a stale pile entry back on a frontier shows as
        ``heap_pushes > labels_changed``, and a window that misses the
        minimum never finishes."""
        monkeypatch.setattr(kernels, "_NEAR_WIDTH", 0.0)
        stl = StableTreeLabelling.build(medium_grid.copy(), HierarchyOptions(leaf_size=8))
        rising = UpdateBatch(
            [EdgeUpdate(u, v, w, w * 4.0) for u, v, w in list(stl.graph.edges())[::3]]
        )
        stl.apply_batch(rising, config=LABEL_SEARCH)
        with deadline(10):
            down = stl.apply_batch(rising.reversed(), config=LABEL_SEARCH)
        assert_build_bytes(stl)
        assert down.labels_changed > 100
        assert down.heap_pushes == down.labels_changed
        assert far_pile_ran(windows)

    def test_counters_match_fifo_order(self, windows, monkeypatch, medium_grid):
        """Same bytes and ``labels_changed`` as FIFO rounds; fewer entries
        enqueued on a multi-seed decrease, in more rounds."""
        fifo, near = paired_indexes(medium_grid)
        edges = list(medium_grid.edges())
        for step in (2, 3, 5):
            rising = UpdateBatch([EdgeUpdate(u, v, w, w * 3.0) for u, v, w in edges[::step]])
            batches = (rising, rising.reversed())
            with monkeypatch.context() as patch:
                patch.setattr(kernels.LabelSearchRounds, "relax", relax_fifo)
                expected = [fifo.apply_batch(b, config=LABEL_SEARCH) for b in batches]
            del windows[:]
            got = [near.apply_batch(b, config=LABEL_SEARCH) for b in batches]
            assert far_pile_ran(windows)
            assert bytes(near.labels.view) == bytes(fifo.labels.view)
            for stats, reference in zip(got, expected):
                for key in ("labels_changed", "vertices_affected", "ancestors_touched"):
                    assert getattr(stats, key) == getattr(reference, key)
            down, fifo_down = got[1], expected[1]
            assert down.heap_pushes < fifo_down.heap_pushes
            assert down.extra["rounds"] > fifo_down.extra["rounds"]
        assert_build_bytes(near)


class TestKernelSelection:
    """Selection is by what the interpreter offers; no config option pins it."""

    def test_default_config_runs_label_search_serial(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stats = stl.apply_batch(random_mixed_batch(stl.graph, 12, seed=5))
        assert stats.extra["label_search_engine"] == 1
        assert "sharded" not in stats.extra and "process_workers" not in stats.extra
        assert ("vector_kernel" in stats.extra) == kernels.HAS_NUMPY
        assert stl.labels.differences(build_labels(stl.graph, stl.hierarchy)) == []

    @needs_numpy
    def test_config_kernel_does_not_pin_the_batch_engine(self, small_grid):
        """``STLConfig.kernel`` selects the ``batch_query`` kernel only."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        config = LABEL_SEARCH.replace(kernel="scalar")
        stats = stl.apply_batch(random_mixed_batch(stl.graph, 12, seed=5), config=config)
        assert stats.extra["vector_kernel"] == 1

    def test_without_numpy_the_scalar_kernels_run(self, small_grid, monkeypatch):
        """What the no-numpy CI leg sees, shown on every leg."""
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        monkeypatch.setattr(kernels, "DEFAULT_KERNEL", "scalar")
        with pytest.raises(ConfigError, match="numpy"):
            STLConfig(kernel="vector")
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stats = stl.apply_batch(random_mixed_batch(stl.graph, 12, seed=5))
        assert stats.extra["label_search_engine"] == 1
        assert "vector_kernel" not in stats.extra and "sharded" not in stats.extra
        assert stl.labels.differences(build_labels(stl.graph, stl.hierarchy)) == []


def csr_from_lists(graph: Graph) -> list[list]:
    """``[indptr, neighbors, weights]`` built from scratch out of the adjacency lists."""
    rows = graph.adjacency()
    return [
        list(accumulate(map(len, rows), initial=0)),
        [nbr for row in rows for nbr, _ in row],
        [w for row in rows for _, w in row],
    ]


def first_non_edge(graph: Graph) -> tuple[int, int]:
    return next(
        (a, b)
        for a in graph.vertices()
        for b in graph.vertices()
        if a < b and not graph.has_edge(a, b)
    )


class TestGraphArrays:
    """``Graph.csr()`` equals a from-scratch build after every kind of write.

    Needs no numpy: the graph keeps its arrays on every interpreter, although
    only the vector kernel reads them.
    """

    @staticmethod
    def assert_current(graph):
        assert [list(array) for array in graph.csr()] == csr_from_lists(graph)

    def test_follows_every_writer(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stl.batch_policy = NO_REBUILD
        graph = stl.graph
        weights = graph.csr()[2]
        self.assert_current(graph)

        # Batches on either kernel, and on the other engine family.
        apply_batch_without_numpy(stl, random_mixed_batch(graph, 30, seed=1), LABEL_SEARCH)
        self.assert_current(graph)
        if kernels.HAS_NUMPY:
            stl.apply_batch(random_mixed_batch(graph, 30, seed=2), config=LABEL_SEARCH)
            self.assert_current(graph)
        stl.apply_batch(random_mixed_batch(graph, 30, seed=3), config=STLConfig(engine="pareto"))
        self.assert_current(graph)

        # Per-update calls between batches, the same edge written twice.
        u, v, w = next(iter(graph.edges()))
        stl.increase_edge(u, v, w * 2)
        stl.decrease_edge(u, v, w / 2)
        self.assert_current(graph)

        # An inf closure and a re-opening through the structural layer.
        structural = StructuralUpdater(stl)
        structural.delete_edge(u, v)
        self.assert_current(graph)
        structural.insert_edge(u, v, w)
        self.assert_current(graph)

        # A rebuild fallback writes the weights without any engine.
        forced = STLConfig(policy=BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0))
        stats = stl.apply_batch(random_mixed_batch(graph, 30, seed=4), config=forced)
        assert stats.extra["rebuild_fallback"] == 1
        self.assert_current(graph)

        # Every one of those wrote the arrays in place; none rebuilt them.
        assert graph.csr()[2] is weights
        # ...and the batch after all of that is still exact.
        stl.apply_batch(random_mixed_batch(graph, 30, seed=5))
        assert stl.labels.differences(build_labels(graph, stl.hierarchy)) == []

    def test_new_edge_rebuilds_the_arrays(self, small_grid):
        graph = small_grid.copy()
        before = graph.csr()
        a, b = first_non_edge(graph)
        graph.add_edge(a, b, 2.5)
        assert graph.csr() is not before
        self.assert_current(graph)
        graph.set_weight(b, a, 4.0)
        self.assert_current(graph)

    def test_copy_is_independent_both_ways(self, small_grid):
        graph = small_grid.copy()
        graph.csr()
        clone = graph.copy()
        self.assert_current(clone)
        u, v, w = next(iter(graph.edges()))
        graph.set_weight(u, v, w + 1.0)
        assert clone.weight(u, v) == w
        clone.set_weight(u, v, math.inf)
        assert graph.weight(u, v) == w + 1.0
        for g in (graph, clone):
            self.assert_current(g)
        a, b = first_non_edge(graph)
        clone.add_edge(a, b, 3.0)
        assert not graph.has_edge(a, b) and graph.num_edges == clone.num_edges - 1
        graph.set_weight(u, v, w)
        for g in (graph, clone):
            self.assert_current(g)
        # A copy taken before the arrays exist builds its own on request.
        fresh = small_grid.copy()
        fresh.set_weight(u, v, 7.0)
        self.assert_current(fresh)
        assert small_grid.weight(u, v) == w

    def test_pickle_round_trip(self, small_grid):
        """The construction and shard workers receive pickled graphs."""
        graph = small_grid.copy()
        u, v, _ = next(iter(graph.edges()))
        graph.set_weight(u, v, math.inf)
        for built in (False, True):
            if built:
                graph.csr()
            clone = pickle.loads(pickle.dumps(graph))
            assert list(clone.edges()) == list(graph.edges())
            assert clone.coordinates == graph.coordinates
            self.assert_current(clone)
            clone.set_weight(u, v, 1.5)
            self.assert_current(clone)
            assert math.isinf(graph.weight(u, v))
