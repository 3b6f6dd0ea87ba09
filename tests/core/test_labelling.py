"""Unit tests for STL label construction (Definition 4.6, Lemma 4.7)."""

import math
import tracemalloc
from array import array
from multiprocessing import shared_memory

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra_rank_restricted
from repro.core import kernels
from repro.core.construction import build_index, run_label_roots
from repro.core.labelling import (
    ENTRY_BYTES,
    UNREACHABLE,
    STLLabels,
    build_labels,
    build_labels_with_counts,
    label_offsets,
    verify_labels,
)
from repro.graph.generators import (
    grid_road_network,
    highway_grid_network,
    random_connected_graph,
)
from repro.graph.graph import Graph
from repro.hierarchy.builder import HierarchyOptions, build_hierarchy
from repro.utils.errors import LabellingError
from repro.workloads.datasets import build_dataset

needs_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="requires numpy (repro[fast])")


@pytest.fixture
def built(small_grid):
    hierarchy = build_hierarchy(small_grid, HierarchyOptions(leaf_size=8))
    labels = build_labels(small_grid, hierarchy)
    return small_grid, hierarchy, labels


class TestConstruction:
    def test_label_lengths_match_tau(self, built):
        graph, hierarchy, labels = built
        for v in graph.vertices():
            assert len(labels[v]) == hierarchy.tau[v] + 1

    def test_self_entry_is_zero(self, built):
        graph, hierarchy, labels = built
        for v in graph.vertices():
            assert labels[v][hierarchy.tau[v]] == 0.0

    def test_entries_are_subgraph_distances(self, built):
        graph, hierarchy, labels = built
        for r in list(hierarchy.vertices_in_label_order())[:20]:
            index = hierarchy.tau[r]
            expected = dijkstra_rank_restricted(graph, r, hierarchy.tau)
            for x in hierarchy.descendants(r):
                want = expected.get(x, math.inf)
                assert labels[x][index] == pytest.approx(want)

    def test_entries_never_below_global_distance(self, built):
        """Subgraph distances can only be >= distances in the whole graph."""
        from tests.conftest import nx_all_pairs

        graph, hierarchy, labels = built
        truth = nx_all_pairs(graph)
        for v in range(0, graph.num_vertices, 5):
            chain = hierarchy.ancestors(v)
            for index, r in enumerate(chain):
                entry = labels[v][index]
                if not math.isinf(entry):
                    assert entry >= truth[v][r] - 1e-9

    def test_verify_labels_passes(self, built):
        graph, hierarchy, labels = built
        assert verify_labels(graph, hierarchy, labels) == []

    def test_verify_labels_detects_corruption(self, built):
        graph, hierarchy, labels = built
        corrupted = labels.copy()
        corrupted[5][0] = 0.123
        assert verify_labels(graph, hierarchy, corrupted) != []

    def test_mismatched_hierarchy_rejected(self, small_grid):
        hierarchy = build_hierarchy(small_grid)
        other = Graph(3)
        with pytest.raises(LabellingError):
            build_labels(other, hierarchy)


class TestSTLLabelsContainer:
    def test_num_entries(self, built):
        _, hierarchy, labels = built
        assert labels.num_entries() == sum(hierarchy.tau[v] + 1 for v in range(len(labels)))

    def test_entry_bounds_checked(self, built):
        _, _, labels = built
        with pytest.raises(LabellingError):
            labels.entry(0, 999)

    def test_copy_is_deep(self, built):
        _, _, labels = built
        clone = labels.copy()
        clone[0][0] = -1.0
        assert labels[0][0] != -1.0

    def test_equals_and_differences(self, built):
        _, _, labels = built
        clone = labels.copy()
        assert labels.equals(clone)
        clone[3][0] = clone[3][0] + 1.0
        assert not labels.equals(clone)
        diffs = labels.differences(clone)
        assert len(diffs) == 1
        assert diffs[0][0] == 3

    def test_iter_entries_count(self, built):
        _, _, labels = built
        assert sum(1 for _ in labels.iter_entries()) == labels.num_entries()

    def test_memory_estimate(self, built):
        _, _, labels = built
        estimate = labels.memory_estimate()
        assert estimate.distance_entries == labels.num_entries()
        assert estimate.total_bytes == 4 * labels.num_entries()

    def test_label_of_alias(self, built):
        _, _, labels = built
        assert labels.label_of(2) is labels[2]


def test_labels_on_disconnected_graph_use_inf():
    graph = Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
    hierarchy = build_hierarchy(graph, HierarchyOptions(leaf_size=2))
    labels = build_labels(graph, hierarchy)
    assert verify_labels(graph, hierarchy, labels) == []
    has_inf = any(math.isinf(d) for label in labels.labels for d in label)
    # Vertices in one component cannot reach ancestors placed in the other.
    assert has_inf or hierarchy.height <= 2


class TestCSRStore:
    """The contiguous flat store behind STLLabels (entries + offsets)."""

    def test_view_and_offsets_are_consistent(self, built):
        _, _, labels = built
        entries = labels.view
        offsets = labels.offsets
        assert offsets[0] == 0
        assert offsets[-1] == len(entries) == labels.num_entries()
        for v in range(len(labels)):
            row = list(labels[v])
            assert row == list(entries[offsets[v] : offsets[v + 1]])

    def test_rows_write_through_to_flat_view(self, built):
        _, _, labels = built
        labels[0][0] = 42.5
        assert labels.view[labels.offsets[0]] == 42.5

    def test_store_bytes(self, built):
        from repro.core.labelling import ENTRY_BYTES, OFFSET_BYTES

        _, _, labels = built
        expected = labels.num_entries() * ENTRY_BYTES + (len(labels) + 1) * OFFSET_BYTES
        assert labels.store_bytes() == expected

    def test_from_flat_round_trip(self, built):
        from array import array

        from repro.core.labelling import STLLabels

        _, _, labels = built
        rebuilt = STLLabels.from_flat(
            array("d", labels.view), array("q", labels.offsets)
        )
        assert labels.equals(rebuilt)

    def test_from_flat_rejects_bad_offsets(self):
        from array import array

        from repro.core.labelling import STLLabels

        entries = array("d", [0.0, 1.0, 2.0])
        with pytest.raises(LabellingError):
            STLLabels.from_flat(entries, array("q", [1, 3]))  # offsets[0] != 0
        with pytest.raises(LabellingError):
            STLLabels.from_flat(entries, array("q", [0, 2]))  # offsets[-1] != len
        with pytest.raises(LabellingError):
            STLLabels.from_flat(entries, array("q", [0, 2, 1, 3]))  # decreasing

    def test_set_row_requires_matching_length(self, built):
        _, _, labels = built
        with pytest.raises(LabellingError):
            labels.set_row(0, [1.0] * (len(labels[0]) + 1))
        labels.set_row(0, [7.0] * len(labels[0]))
        assert list(labels[0]) == [7.0] * len(labels[0])

    def test_share_and_unshare_round_trip(self, built):
        from multiprocessing import shared_memory

        from repro.core.labelling import ENTRY_BYTES

        _, _, labels = built
        before = [list(row) for row in labels.labels]
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, labels.num_entries() * ENTRY_BYTES)
        )
        try:
            target = shm.buf[: labels.num_entries() * ENTRY_BYTES].cast("d")
            labels.share_into(target)
            assert labels.is_shared
            # Writes land in the segment while shared.
            labels[0][0] = 13.25
            assert target[labels.offsets[0]] == 13.25
            labels.unshare()
            assert not labels.is_shared
            del target
        finally:
            shm.close()
            shm.unlink()
        after = [list(row) for row in labels.labels]
        before[0][0] = 13.25
        assert after == before


class TestExactComparison:
    """``equals``, ``differences`` and ``verify_labels`` compare exactly:
    bytes are the one notion of label equality.  Pareto output has its own
    comparison (:func:`repro.core.pareto_search.slack_differences`)."""

    NEAR_INF = 1000000000000038.5

    def test_one_ulp_at_large_magnitude_is_unequal(self):
        mine = STLLabels([[0.0], [self.NEAR_INF, 0.0]])
        ulp = math.nextafter(self.NEAR_INF, math.inf)
        theirs = STLLabels([[0.0], [ulp, 0.0]])
        assert not mine.equals(theirs)
        assert mine.differences(theirs) == [(1, 0, self.NEAR_INF, ulp)]

    def test_gap_beyond_slack_is_reported(self):
        mine = STLLabels([[0.0], [1.0, 0.0]])
        theirs = STLLabels([[0.0], [1.0 + 1e-8, 0.0]])
        assert not mine.equals(theirs)
        assert mine.differences(theirs) == [(1, 0, 1.0, 1.0 + 1e-8)]

    def test_inf_matches_only_inf(self):
        mine = STLLabels([[0.0], [math.inf, 0.0]])
        assert mine.equals(STLLabels([[0.0], [math.inf, 0.0]]))
        theirs = STLLabels([[0.0], [1e300, 0.0]])
        assert not mine.equals(theirs)
        assert mine.differences(theirs) == [(1, 0, math.inf, 1e300)]

    def test_comparison_takes_no_tolerance(self, built):
        _, _, labels = built
        with pytest.raises(TypeError):
            labels.equals(labels.copy(), tolerance=1.0)
        with pytest.raises(TypeError):
            labels.differences(labels.copy(), tolerance=1.0)

    def test_verify_labels_is_exact(self):
        graph = Graph.from_edges(2, [(0, 1, self.NEAR_INF)])
        hierarchy = build_hierarchy(graph, HierarchyOptions(leaf_size=1))
        labels = build_labels(graph, hierarchy)
        assert verify_labels(graph, hierarchy, labels) == []
        v = next(v for v in range(2) if labels[v][0] == self.NEAR_INF)
        labels[v][0] = math.nextafter(self.NEAR_INF, math.inf)
        assert len(verify_labels(graph, hierarchy, labels)) == 1


class TestDifferencesShapeMismatches:
    """Regression: differences() must not zip-truncate unequal shapes."""

    def test_extra_vertices_are_reported(self, built):
        from repro.core.labelling import STLLabels

        _, _, labels = built
        shorter = STLLabels([list(labels[v]) for v in range(len(labels) - 2)])
        diffs = labels.differences(shorter)
        reported = {v for v, _, _, _ in diffs}
        assert len(labels) - 2 in reported
        assert len(labels) - 1 in reported
        # Symmetric: the shorter side sees the same mismatches.
        assert {v for v, _, _, _ in shorter.differences(labels)} == reported

    def test_extra_row_entries_are_reported(self, built):
        from repro.core.labelling import STLLabels

        _, _, labels = built
        rows = [list(labels[v]) for v in range(len(labels))]
        rows[4] = rows[4] + [9.0]  # one extra trailing entry
        longer = STLLabels(rows)
        diffs = labels.differences(longer)
        assert any(v == 4 and i == len(rows[4]) - 1 for v, i, _, _ in diffs)
        assert not labels.equals(longer)


# --------------------------------------------------------------------------- #
# Whole-store copies and row views built on demand
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def grid_store():
    """A 40x40 grid's store: large enough that the copy dominates the trace."""
    graph = grid_road_network(40, 40, seed=3)
    return build_labels(graph, build_hierarchy(graph))


def _traced_peak(make):
    """``(make(), peak traced bytes)`` for one call."""
    tracemalloc.start()
    try:
        result = make()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _shared_target(labels):
    nbytes = labels.num_entries() * ENTRY_BYTES
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    return shm, shm.buf[:nbytes].cast("d")


class TestStoreCopies:
    """A whole-store copy allocates exactly one new entries buffer."""

    @pytest.mark.parametrize("method", ["snapshot_store", "copy"])
    def test_copy_allocates_one_store(self, grid_store, method):
        copied, peak = _traced_peak(getattr(grid_store, method))
        assert peak <= 1.2 * grid_store.num_entries() * ENTRY_BYTES
        assert bytes(copied.view) == bytes(grid_store.view)

    def test_unshare_allocates_one_store(self, grid_store):
        labels = grid_store.snapshot_store()
        expected = bytes(labels.view)
        shm, target = _shared_target(labels)
        try:
            labels.share_into(target)
            del target
            _, peak = _traced_peak(labels.unshare)
        finally:
            shm.close()
            shm.unlink()
        assert peak <= 1.2 * labels.num_entries() * ENTRY_BYTES
        assert bytes(labels.view) == expected

    @pytest.mark.parametrize("method", ["snapshot_store", "copy"])
    def test_copies_are_independent(self, grid_store, method):
        original = grid_store.snapshot_store()
        copied = getattr(original, method)()
        assert bytes(copied.view) == bytes(original.view)
        # Labels are never negative, so each write below changes its entry.
        untouched = bytes(original.view)
        copied.view[0] = -1.0
        copied[7][1] = -2.0
        assert bytes(original.view) == untouched
        untouched = bytes(copied.view)
        original.view[1] = -3.0
        original[3][0] = -4.0
        assert bytes(copied.view) == untouched

    def test_snapshot_shares_offsets(self, grid_store):
        assert grid_store.snapshot_store().offsets is grid_store.offsets
        assert grid_store.copy().offsets is not grid_store.offsets

    def test_equals_copies_nothing(self, grid_store):
        """The byte compare runs over ``'q'`` casts of both buffers: it
        allocates nothing near the size of a store, and sees one ulp."""
        other = grid_store.copy()
        equal, peak = _traced_peak(lambda: grid_store.equals(other))
        assert equal and peak < 4096
        other.view[len(other.view) // 2] = math.nextafter(other.view[len(other.view) // 2], 0.0)
        assert not grid_store.equals(other)

    @pytest.mark.parametrize("method", ["snapshot_store", "copy"])
    def test_copies_carry_pareto_written(self, grid_store, method):
        """Whether a Pareto pass wrote a store travels with its bytes; a
        build loaded into it clears it."""
        store = grid_store.copy()
        assert not store.pareto_written
        store._pareto_written = True
        assert getattr(store, method)().pareto_written
        target = grid_store.copy()
        target.load_from(store)
        assert target.pareto_written
        target.load_from(grid_store)
        assert not target.pareto_written


class TestRowsOnDemand:
    """Row views are built on the first row access, then behave as always."""

    def test_len_before_any_row_exists(self, grid_store):
        n = len(grid_store.offsets) - 1
        flat = STLLabels.from_flat(array("d", grid_store.view), grid_store.offsets)
        snap = grid_store.snapshot_store()
        for store in (flat, snap):
            assert store._rows is None
            assert len(store) == n
            assert store._rows is None
        assert len(STLLabels.from_flat(array("d"), array("q", [0]))) == 0

    def test_rows_are_identity_stable_and_write_through(self, grid_store):
        labels = grid_store.snapshot_store()
        row = labels[5]
        assert labels[5] is row is labels.label_of(5) is labels.labels[5]
        assert len(labels) == len(labels.offsets) - 1
        base = labels.offsets[5]
        row[0] = 42.5
        assert labels.view[base] == 42.5
        labels.view[base + 1] = 17.25
        assert row[1] == 17.25 and labels.entry(5, 1) == 17.25

    @pytest.mark.parametrize("rows_built", [False, True])
    def test_share_then_unshare(self, grid_store, rows_built):
        labels = grid_store.snapshot_store()
        expected = bytes(labels.view)
        if rows_built:
            labels[0]
        shm, target = _shared_target(labels)
        try:
            labels.share_into(target)
            del target
            assert labels._rows is None
            if rows_built:
                labels[2]
            labels.unshare()
        finally:
            shm.close()  # raises BufferError if any view over the segment survived
            shm.unlink()
        assert not labels.is_shared
        assert bytes(labels.view) == expected
        assert list(labels[2]) == list(grid_store[2])

    @pytest.mark.parametrize("rows_built", [False, True])
    def test_release_views(self, grid_store, rows_built):
        labels = grid_store.snapshot_store()
        shm, target = _shared_target(labels)
        try:
            labels.share_into(target)
            del target
            if rows_built:
                labels[1]
            labels.release_views()
            assert len(labels) == 0
        finally:
            shm.close()
            shm.unlink()


# --------------------------------------------------------------------------- #
# The relax build against one rank-restricted Dijkstra per root
# --------------------------------------------------------------------------- #


def per_root_bytes(graph, hierarchy):
    """The store one scalar Dijkstra per root fills, in label order."""
    offsets = label_offsets(hierarchy.tau)
    entries = array("d", [UNREACHABLE]) * offsets[-1]
    roots = list(hierarchy.vertices_in_label_order())
    run_label_roots(graph, roots, hierarchy.tau, entries, offsets)
    return entries.tobytes()


def assert_build_parity(graph, options=None):
    """``build_labels`` writes exactly the bytes of the per-root searches."""
    hierarchy = build_hierarchy(graph, options)
    assert bytes(build_labels(graph, hierarchy).view) == per_root_bytes(graph, hierarchy)
    return hierarchy


def complete_graph(n, weight):
    graph = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, weight(u, v))
    return graph


def two_components():
    graph = Graph(12)
    for v in range(5):
        graph.add_edge(v, v + 1, float(v + 1))
    for v in range(6, 11):
        graph.add_edge(v, v + 1, 2.0)
    return graph


def isolated_tail():
    graph = Graph(6)
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(1, 2, 1.0)  # vertices 3..5 stay isolated
    return graph


#: Weights chosen to break a build that associates a sum differently from
#: the left-to-right fold: exact ties, 1-ulp gaps, decimal fractions whose
#: sums round, 1e15 beside 1.0, zero and closed (``inf``) edges.
DESIGNED_WEIGHTS = (
    0.0,
    0.1,
    0.2,
    0.3,
    1.0,
    math.nextafter(1.0, math.inf),
    3.0,
    1e15,
    math.nextafter(1e15, math.inf),
    math.inf,
)

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestRelaxBuildParity:
    """Byte identity of the build with ``construction.run_label_roots``.

    The inputs are those of ``test_construction.TestParallelEqualsSerial``
    plus closed edges and designed weights.  Without numpy ``build_labels``
    *is* the per-root loop, so the vector cases skip there and only the
    fallback test runs.
    """

    @needs_numpy
    def test_figure10_workload_graph(self):
        graph = build_dataset("NY", scale=0.2, seed=2025)
        assert_build_parity(graph, HierarchyOptions(leaf_size=8))

    @needs_numpy
    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_grid_leaf_sizes(self, leaf_size):
        graph = highway_grid_network(600, seed=11)
        assert_build_parity(graph, HierarchyOptions(leaf_size=leaf_size))

    @needs_numpy
    @SETTINGS
    @given(
        n=st.integers(min_value=2, max_value=60),
        extra=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_connected_graphs(self, n, extra, seed):
        graph = random_connected_graph(n, extra, seed=seed)
        assert_build_parity(graph, HierarchyOptions(leaf_size=4))

    @needs_numpy
    def test_disconnected_components(self):
        assert_build_parity(two_components(), HierarchyOptions(leaf_size=3))

    @needs_numpy
    def test_unreachable_entries_stay_inf(self):
        graph = isolated_tail()
        hierarchy = assert_build_parity(graph, HierarchyOptions(leaf_size=6))
        assert any(math.isinf(d) for _, _, d in build_labels(graph, hierarchy).iter_entries())

    @needs_numpy
    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_graphs(self, n):
        assert_build_parity(Graph(n))

    @needs_numpy
    def test_dense_complete_graph(self):
        graph = complete_graph(48, lambda u, v: float((u + v) % 7 + 1))
        assert_build_parity(graph, HierarchyOptions(leaf_size=6))

    @needs_numpy
    def test_single_leaf_hierarchy(self):
        graph = random_connected_graph(6, 0.2, seed=3)
        assert_build_parity(graph, HierarchyOptions(leaf_size=16))

    @needs_numpy
    def test_unsplittable_blob(self):
        assert_build_parity(complete_graph(12, lambda u, v: 1.0), HierarchyOptions(leaf_size=4))

    @needs_numpy
    def test_closed_edges(self):
        """``inf`` edges carry nothing: whole subtrees become unreachable."""
        graph = highway_grid_network(400, seed=3)
        for k, (u, v, _) in enumerate(list(graph.edges())):
            if k % 3 == 0:
                graph.set_weight(u, v, math.inf)
        hierarchy = assert_build_parity(graph, HierarchyOptions(leaf_size=8))
        assert any(math.isinf(d) for _, _, d in build_labels(graph, hierarchy).iter_entries())

    @needs_numpy
    @SETTINGS
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        weights=st.lists(st.sampled_from(DESIGNED_WEIGHTS), min_size=1, max_size=200),
    )
    def test_designed_weights(self, n, seed, weights):
        graph = random_connected_graph(n, 0.3, seed=seed)
        for k, (u, v, _) in enumerate(list(graph.edges())):
            graph.set_weight(u, v, weights[k % len(weights)])
        assert_build_parity(graph, HierarchyOptions(leaf_size=4))

    def test_per_root_fallback_without_numpy(self, monkeypatch):
        """With numpy switched off the build runs one Dijkstra per root and
        writes the same bytes as the relax, on connected, disconnected and
        closed-edge inputs alike."""
        closed = highway_grid_network(300, seed=4)
        for k, (u, v, _) in enumerate(list(closed.edges())):
            if k % 4 == 0:
                closed.set_weight(u, v, math.inf)
        cases = [
            (highway_grid_network(300, seed=4), HierarchyOptions(leaf_size=8)),
            (two_components(), HierarchyOptions(leaf_size=3)),
            (isolated_tail(), HierarchyOptions(leaf_size=6)),
            (closed, HierarchyOptions(leaf_size=8)),
        ]
        hierarchies = [build_hierarchy(graph, options) for graph, options in cases]
        built = [bytes(build_labels(g, h).view) for (g, _), h in zip(cases, hierarchies)]
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        for (graph, _), hierarchy, vector in zip(cases, hierarchies, built):
            labels, rounds, enqueued = build_labels_with_counts(graph, hierarchy)
            assert (rounds, enqueued) == (0, 0)
            assert bytes(labels.view) == per_root_bytes(graph, hierarchy) == vector


class TestBuildWork:
    @needs_numpy
    def test_relax_re_relaxation_stays_low(self):
        """A relax order that re-relaxes entries many times should fail here,
        not only run slower: on a 30x30 highway grid every entry is enqueued
        less than 1.5 times on average."""
        graph = highway_grid_network(900, seed=1)
        _, labels, report = build_index(graph)
        assert report.construction == "serial" and report.workers == 0
        assert report.label_rounds > 0
        assert report.label_enqueued >= labels.num_entries()
        assert report.label_enqueued / labels.num_entries() < 1.5

    def test_counts_reach_index_stats(self, small_grid):
        from repro.core.stl import StableTreeLabelling

        stl = StableTreeLabelling.build(small_grid, HierarchyOptions(leaf_size=8))
        stats = stl.stats()
        assert stats.label_rounds == stl.build_report.label_rounds
        assert stats.label_enqueued == stl.build_report.label_enqueued
        assert (stats.label_enqueued > 0) == kernels.HAS_NUMPY
