"""Unit tests for the vectorised query/mark kernels (``repro.core.kernels``).

Every scalar/vector comparison here asserts *exact* equality, not approx:
the two paths run the same float64 operations, just batched, and the suite
is what holds that contract.  The whole module runs on the no-numpy CI leg
too -- vector-only tests skip themselves, the dispatch/fallback tests run
everywhere.
"""

import math

import pytest

from repro.core import kernels
from repro.core.batch import BatchedParetoEngine
from repro.core.batch_label_search import BatchedLabelSearchEngine
from repro.core.kernels import (
    HAS_NUMPY,
    batch_query_scalar,
    common_prefix_lengths,
    hierarchy_arrays,
    label_arrays,
    normalize_kernel,
)
from repro.core.pareto_search import ParetoSearchIncrease
from repro.core.stl import StableTreeLabelling
from repro.graph.generators import city_road_network, random_connected_graph
from repro.graph.graph import Graph
from repro.hierarchy.builder import HierarchyOptions
from repro.core.config import STLConfig
from tests.conftest import random_mixed_batch

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy (repro[fast])")


@pytest.fixture(scope="module")
def city_stl():
    graph = city_road_network(num_cities=3, city_rows=8, city_cols=8, seed=11)
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=8))
    yield stl
    stl.close()


def _random_pairs(stl, count, seed, with_same=True):
    import random

    rng = random.Random(seed)
    n = stl.graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    if with_same:
        pairs += [(0, 0), (n - 1, n - 1)]
    return pairs


class TestNormalizeKernel:
    def test_none_resolves_to_import_time_default(self):
        assert normalize_kernel(None) == kernels.DEFAULT_KERNEL
        assert kernels.DEFAULT_KERNEL == ("vector" if HAS_NUMPY else "scalar")

    def test_scalar_always_accepted(self):
        assert normalize_kernel("scalar") == "scalar"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown query kernel"):
            normalize_kernel("simd")

    @needs_numpy
    def test_vector_accepted_with_numpy(self):
        assert normalize_kernel("vector") == "vector"

    @pytest.mark.skipif(HAS_NUMPY, reason="covers the no-numpy interpreter")
    def test_explicit_vector_without_numpy_names_the_extra(self):
        with pytest.raises(ValueError, match=r"repro\[fast\]"):
            normalize_kernel("vector")


class TestScalarKernel:
    """The fallback path must work with or without numpy installed."""

    def test_matches_query_distance(self, city_stl):
        pairs = _random_pairs(city_stl, 50, seed=0)
        expected = [city_stl.query(s, t) for s, t in pairs]
        assert batch_query_scalar(city_stl.hierarchy, city_stl.labels, pairs) == expected

    def test_empty_batch(self, city_stl):
        assert city_stl.batch_query([], config=STLConfig(kernel="scalar")) == []

    def test_negative_id_raises(self, city_stl):
        with pytest.raises(IndexError, match="non-negative"):
            city_stl.batch_query([(0, 1), (-1, 2)], config=STLConfig(kernel="scalar"))


@needs_numpy
class TestVectorKernel:
    def test_agrees_with_scalar_entrywise(self, city_stl):
        pairs = _random_pairs(city_stl, 500, seed=1)
        scalar = city_stl.batch_query(pairs, config=STLConfig(kernel="scalar"))
        vector = city_stl.batch_query(pairs, config=STLConfig(kernel="vector"))
        assert scalar == vector  # exact, not approx

    def test_default_kernel_is_vector(self, city_stl):
        pairs = _random_pairs(city_stl, 40, seed=2)
        assert city_stl.batch_query(pairs) == city_stl.batch_query(pairs, config=STLConfig(kernel="vector"))

    def test_repeated_pairs(self, city_stl):
        pairs = [(3, 97)] * 64 + [(97, 3)] * 64
        values = set(city_stl.batch_query(pairs, config=STLConfig(kernel="vector")))
        assert len(values) == 1  # symmetric and stable under repetition
        assert values == {city_stl.query(3, 97)}

    def test_disconnected_pairs_are_inf(self):
        # Two components: a triangle and an edge, never connected.
        graph = Graph(5)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.0)
        graph.add_edge(0, 2, 2.0)
        graph.add_edge(3, 4, 1.0)
        stl = StableTreeLabelling.build(graph)
        pairs = [(0, 3), (2, 4), (3, 0), (0, 2), (3, 4), (3, 3)]
        scalar = stl.batch_query(pairs, config=STLConfig(kernel="scalar"))
        vector = stl.batch_query(pairs, config=STLConfig(kernel="vector"))
        assert scalar == vector
        assert vector[0] == math.inf and vector[1] == math.inf

    def test_bounds_errors_match_scalar_contract(self, city_stl):
        with pytest.raises(IndexError, match=r"non-negative, got \(-3, 5\)"):
            city_stl.batch_query([(0, 1), (-3, 5)], config=STLConfig(kernel="vector"))
        n = city_stl.graph.num_vertices
        with pytest.raises(IndexError, match="out of range"):
            city_stl.batch_query([(0, n)], config=STLConfig(kernel="vector"))

    def test_common_prefix_lengths_match_hierarchy(self, city_stl):
        import numpy as np

        pairs = _random_pairs(city_stl, 200, seed=3)
        s = np.asarray([p[0] for p in pairs], dtype=np.int64)
        t = np.asarray([p[1] for p in pairs], dtype=np.int64)
        bulk = common_prefix_lengths(city_stl.hierarchy, s, t)
        for i, (a, b) in enumerate(pairs):
            assert int(bulk[i]) == city_stl.hierarchy.num_common_ancestors(a, b)

    def test_deep_hierarchy_degrades_to_scalar(self, city_stl, monkeypatch):
        # A hierarchy deeper than the int64 bitstrings support must answer
        # through the scalar path, not overflow.
        monkeypatch.setattr(kernels, "_MAX_BITS_DEPTH", 1)
        monkeypatch.setattr(
            city_stl.hierarchy, "_kernel_arrays", "missing", raising=False
        )
        assert hierarchy_arrays(city_stl.hierarchy) is None
        pairs = _random_pairs(city_stl, 30, seed=4)
        assert city_stl.batch_query(pairs, config=STLConfig(kernel="vector")) == city_stl.batch_query(
            pairs, config=STLConfig(kernel="scalar"
        ))
        # Restore the per-module cache for the other tests.
        monkeypatch.undo()
        city_stl.hierarchy._kernel_arrays = "missing"
        assert hierarchy_arrays(city_stl.hierarchy) is not None


@needs_numpy
class TestCachedViews:
    def test_label_arrays_cached_until_adoption(self, city_stl):
        labels = city_stl.labels
        first = label_arrays(labels)
        assert label_arrays(labels) is first  # same tuple, no rebuild
        epoch = labels.buffer_epoch
        # share_into / unshare each adopt a new buffer: the numpy cache must
        # be dropped both times (a view over the old buffer would go stale --
        # or, for a real shm segment, pin the mapping open).
        segment = memoryview(bytearray(labels.num_entries() * 8)).cast("d")
        labels.share_into(segment)
        assert labels.buffer_epoch == epoch + 1
        shared = label_arrays(labels)
        assert shared is not first
        labels.unshare()
        assert labels.buffer_epoch == epoch + 2
        private = label_arrays(labels)
        assert private is not shared

    def test_inplace_writes_visible_through_cached_view(self, city_stl):
        labels = city_stl.labels
        entries, _ = label_arrays(labels)
        row = labels[0]
        original = row[0]
        try:
            row[0] = original + 1.0
            assert entries[labels.offsets[0]] == original + 1.0
        finally:
            row[0] = original

    def test_query_results_track_label_updates(self, small_grid):
        # The cached views must never serve stale distances across an
        # update batch (in-place writes) nor across a buffer adoption.
        stl = StableTreeLabelling.build(small_grid.copy())
        pairs = _random_pairs(stl, 60, seed=5)
        stl.batch_query(pairs)  # populate the cache
        stl.apply_batch(random_mixed_batch(stl.graph, 30, seed=6))
        assert stl.batch_query(pairs, config=STLConfig(kernel="vector")) == stl.batch_query(
            pairs, config=STLConfig(kernel="scalar"
        ))
        segment = memoryview(bytearray(stl.labels.num_entries() * 8)).cast("d")
        stl.labels.share_into(segment)
        assert stl.batch_query(pairs, config=STLConfig(kernel="vector")) == stl.batch_query(
            pairs, config=STLConfig(kernel="scalar"
        ))
        stl.labels.unshare()
        assert stl.batch_query(pairs, config=STLConfig(kernel="vector")) == stl.batch_query(
            pairs, config=STLConfig(kernel="scalar"
        ))


def _run_batches(engine_cls, graph, monkeypatch, force_vector):
    """Replay the mixed-batch workload with the vector mark path on or off."""
    monkeypatch.setattr(kernels, "VECTOR_MIN_SPAN", 1 if force_vector else 10**9)
    stl = StableTreeLabelling.build(graph.copy(), HierarchyOptions(leaf_size=8))
    engine = engine_cls(stl.graph, stl.hierarchy, stl.labels)
    for round_ in range(3):
        batch = random_mixed_batch(stl.graph, 40, seed=round_)
        engine.apply(batch.coalesce(stl.graph).updates)
    return list(stl.labels.view)


class TestMarkPhaseParity:
    """The vectorised increase mark phase must mark the exact scalar sets.

    Mirrors the round-robin mixed-batch workload of
    ``test_repeated_batches_stay_exact``; ``VECTOR_MIN_SPAN`` is pinned to 1
    so every row goes through the vector predicate in one run and to an
    unreachable bound (pure scalar) in the other.
    """

    @needs_numpy
    @pytest.mark.parametrize(
        "engine_cls", [BatchedParetoEngine, BatchedLabelSearchEngine]
    )
    def test_final_labels_identical(self, small_grid, monkeypatch, engine_cls):
        vector = _run_batches(engine_cls, small_grid, monkeypatch, force_vector=True)
        scalar = _run_batches(engine_cls, small_grid, monkeypatch, force_vector=False)
        assert vector == scalar  # bitwise: same marks -> same repairs

    @needs_numpy
    def test_pareto_marked_entry_sets_identical(self, small_grid, monkeypatch):
        def collect(force_vector):
            recorded = []
            original = ParetoSearchIncrease.mark_affected

            def spy(self, root, start, phi_old, affected):
                stats = original(self, root, start, phi_old, affected)
                recorded.append(
                    {v: frozenset(levels) for v, levels in affected.items()}
                )
                return stats

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "VECTOR_MIN_SPAN", 1 if force_vector else 10**9)
                patch.setattr(ParetoSearchIncrease, "mark_affected", spy)
                stl = StableTreeLabelling.build(
                    small_grid.copy(), HierarchyOptions(leaf_size=8)
                )
                engine = BatchedParetoEngine(stl.graph, stl.hierarchy, stl.labels)
                for round_ in range(3):
                    batch = random_mixed_batch(stl.graph, 40, seed=round_)
                    engine.apply(batch.coalesce(stl.graph).updates)
            return recorded

        assert collect(True) == collect(False)

    @needs_numpy
    def test_label_search_seeded_queues_identical(self, small_grid, monkeypatch):
        from repro.core import label_search

        def collect(force_vector):
            recorded = []
            original = label_search.seed_affected_queues

            def spy(tau, labels, increases, queues, counters):
                original(tau, labels, increases, queues, counters)
                recorded.append(
                    {i: sorted(heap) for i, heap in queues.items() if heap}
                )

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "VECTOR_MIN_SPAN", 1 if force_vector else 10**9)
                patch.setattr(label_search, "seed_affected_queues", spy)
                from repro.core import batch_label_search

                patch.setattr(
                    batch_label_search, "seed_affected_queues", spy, raising=False
                )
                stl = StableTreeLabelling.build(
                    small_grid.copy(), HierarchyOptions(leaf_size=8)
                )
                engine = BatchedLabelSearchEngine(stl.graph, stl.hierarchy, stl.labels)
                for round_ in range(3):
                    batch = random_mixed_batch(stl.graph, 40, seed=round_)
                    engine.apply(batch.coalesce(stl.graph).updates)
            return recorded

        assert collect(True) == collect(False)


class TestSeedAffectedRowsGates:
    def test_short_prefix_falls_back(self, city_stl):
        # Below VECTOR_MIN_SPAN the kernel must decline so the scalar loop
        # (with its tiny fixed cost) runs instead.
        row = city_stl.labels[0]
        assert kernels.seed_affected_rows(row, row, 1.0, 2) is None

    def test_non_buffer_rows_fall_back(self):
        assert kernels.seed_affected_rows([1.0, 2.0], [1.0, 2.0], 1.0, 10**6) is None

    @pytest.mark.parametrize("force_vector", [pytest.param(True, marks=needs_numpy), False])
    def test_seed_test_is_exact(self, monkeypatch, force_vector):
        """Label Search seeds an index only where ``L(a)[i] + w_old`` *is*
        ``L(b)[i]``: an entry one ulp away is not on the old shortest path,
        on the row kernel and on the scalar loop alike."""
        from array import array

        from repro.core.label_search import seed_affected_queues
        from repro.graph.updates import EdgeUpdate

        monkeypatch.setattr(kernels, "VECTOR_MIN_SPAN", 1 if force_vector else 10**9)
        w_old = 0.1
        row_a = [0.7 * k for k in range(40)]
        row_b = [d + w_old for d in row_a]
        row_b[3] = math.nextafter(row_b[3], math.inf)
        row_b[5] = math.nextafter(row_b[5], 0.0)
        labels = [array("d", row_a), array("d", row_b + [0.0])]
        tau = [39, 40]
        queues: dict = {}
        seed_affected_queues(tau, labels, [EdgeUpdate(0, 1, w_old, 1.0)], queues, [0, 0, 0])
        assert sorted(queues) == [i for i in range(40) if i not in (3, 5)]
