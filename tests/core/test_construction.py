"""Unit tests for the parallel construction pipeline (core/construction.py).

The contract under test is *exact equivalence*: a parallel build must be
indistinguishable from a serial one -- identical node numbering, identical
tau, entry-wise identical labels -- on every input, including disconnected
and degenerate ones.  These tests spawn real worker processes; CI runs them
with ``-p no:cacheprovider`` and a hard timeout so a deadlocked pool fails
fast (see ``.github/workflows/ci.yml``).

Every parallel build here pins ``construction="parallel"`` with
``max_workers=2``: the default mode (``None``) resolves to serial at every
size.  The serial build is the vector relax when numpy is present, so these
tests also check it against the pool's scalar per-root searches.
"""

import math
import os
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import (
    dijkstra_rank_restricted,
    dijkstra_rank_restricted_into,
)
from repro.core.config import STLConfig
from repro.core.construction import (
    CONSTRUCTION_NAMES,
    ParallelBuilder,
    build_index,
    normalize_construction,
    resolve_construction,
)
from repro.core.labelling import UNREACHABLE, label_offsets
from repro.core.stl import StableTreeLabelling
from repro.graph.generators import highway_grid_network, random_connected_graph
from repro.graph.graph import Graph
from repro.hierarchy.builder import HierarchyOptions, build_hierarchy
from repro.utils.errors import ConfigError
from repro.workloads.datasets import build_dataset

#: More workers than this box has cores, so multi-worker shares are
#: exercised even on a 1-CPU runner.
WORKERS = 2

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_same_hierarchy(a, b):
    """Node-for-node structural equality (the grafting contract)."""
    assert a.num_nodes == b.num_nodes
    for na, nb in zip(a.nodes, b.nodes):
        assert na.index == nb.index
        assert na.parent == nb.parent
        assert na.left == nb.left
        assert na.right == nb.right
        assert na.depth == nb.depth
        assert na.bits == nb.bits
        assert na.vertices == nb.vertices
        assert na.prefix_count == nb.prefix_count
        assert na.path == nb.path
    assert list(a.tau) == list(b.tau)
    assert list(a.node_of) == list(b.node_of)


def assert_parallel_matches_serial(graph, options=None):
    """Build twice, assert hierarchies and labels are identical."""
    serial_h, serial_l, serial_r = build_index(graph, options, construction="serial")
    parallel_h, parallel_l, parallel_r = build_index(
        graph, options, construction="parallel", max_workers=WORKERS
    )
    assert_same_hierarchy(serial_h, parallel_h)
    assert serial_l.differences(parallel_l) == []
    assert serial_r.construction == "serial" and serial_r.workers == 0
    assert parallel_r.construction == "parallel" and parallel_r.workers == WORKERS
    assert serial_r.num_nodes == parallel_r.num_nodes
    assert serial_r.num_leaves == parallel_r.num_leaves
    assert serial_r.max_separator == parallel_r.max_separator


def shm_segments():
    """Names of leftover construction segments in /dev/shm (Linux only)."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux dev box
        return []
    return [n for n in os.listdir(root) if "repro-stl-build" in n]


class TestConfigSurface:
    def test_normalize_accepts_known_modes(self):
        assert normalize_construction(None) is None
        for name in CONSTRUCTION_NAMES:
            assert normalize_construction(name) == name

    def test_normalize_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="serial"):
            normalize_construction("gpu")

    def test_stlconfig_validates_at_construction(self):
        assert STLConfig(construction="parallel").construction == "parallel"
        with pytest.raises(ConfigError):
            STLConfig(construction="distributed")

    def test_resolve_explicit_modes_honoured(self):
        assert resolve_construction("serial", 10**6, max_workers=8) == "serial"
        assert resolve_construction("parallel", 4, max_workers=1) == "parallel"

    def test_resolve_auto_small_instance_is_serial(self):
        assert resolve_construction(None, 100, max_workers=8) == "serial"

    def test_resolve_auto_is_serial_at_any_size_and_cpu_count(self):
        for n in (0, 100, 8192, 10**6):
            for workers in (None, 1, 2, 64):
                assert resolve_construction(None, n, max_workers=workers) == "serial"


class TestDijkstraInto:
    def test_matches_dict_variant(self):
        graph = highway_grid_network(400, seed=7)
        hierarchy = build_hierarchy(graph, HierarchyOptions(leaf_size=8))
        tau = hierarchy.tau
        offsets = label_offsets(tau)
        adjacency = graph.adjacency()
        entries = array("d", [UNREACHABLE]) * offsets[-1]
        for r in graph.vertices():
            written = dijkstra_rank_restricted_into(
                adjacency, r, tau, entries, offsets, tau[r]
            )
            dists = dijkstra_rank_restricted(graph, r, tau)
            assert written == len(dists)
            for x, d in dists.items():
                assert entries[offsets[x] + tau[r]] == pytest.approx(d)


class TestParallelEqualsSerial:
    def test_figure10_workload_graph(self):
        """The dataset family behind the Figure 10 experiments."""
        graph = build_dataset("NY", scale=0.2, seed=2025)
        assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=8))

    def test_grid_leaf_sizes(self):
        graph = highway_grid_network(600, seed=11)
        for leaf_size in (1, 4, 32):
            assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=leaf_size))

    @SETTINGS
    @given(
        n=st.integers(min_value=2, max_value=60),
        extra=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_connected_graphs(self, n, extra, seed):
        graph = random_connected_graph(n, extra, seed=seed)
        assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=4))

    def test_disconnected_components(self):
        """Two components, no bridge between them."""
        graph = Graph(12)
        for v in range(5):
            graph.add_edge(v, v + 1, float(v + 1))
        for v in range(6, 11):
            graph.add_edge(v, v + 1, 2.0)
        assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=3))

    def test_unreachable_entries_stay_inf(self):
        """Co-leafed disconnected vertices: the shared-segment prefill must
        survive as real ``inf`` entries (nothing ever writes them)."""
        graph = Graph(6)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)  # vertices 3..5 stay isolated
        assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=6))
        _, labels, _ = build_index(
            graph, HierarchyOptions(leaf_size=6),
            construction="parallel", max_workers=WORKERS,
        )
        assert any(math.isinf(d) for _, _, d in labels.iter_entries())

    def test_single_vertex(self):
        assert_parallel_matches_serial(Graph(1))

    def test_empty_graph(self):
        assert_parallel_matches_serial(Graph(0))

    def test_dense_complete_graph(self):
        """Rows far longer than any road network's."""
        n = 48
        graph = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v, float((u + v) % 7 + 1))
        assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=6))

    def test_single_leaf_hierarchy(self):
        """Everything fits one leaf: the plan tree never bisects."""
        graph = random_connected_graph(6, 0.2, seed=3)
        assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=16))

    def test_unsplittable_blob(self):
        """A clique larger than leaf_size: the bisector cannot split it."""
        n = 12
        graph = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v, 1.0)
        assert_parallel_matches_serial(graph, HierarchyOptions(leaf_size=4))

    def test_stl_build_api(self):
        """The public entry point: identical index, stats breakdown filled."""
        graph = highway_grid_network(500, seed=5)
        serial = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=8))
        parallel = StableTreeLabelling.build(
            graph, HierarchyOptions(leaf_size=8),
            construction="parallel", max_workers=WORKERS,
        )
        try:
            assert serial.labels.differences(parallel.labels) == []
            stats = parallel.stats()
            assert stats.construction_workers == WORKERS
            assert stats.hierarchy_seconds >= 0.0
            assert stats.label_seconds >= 0.0
        finally:
            serial.close()
            parallel.close()


class TestSharedMemoryLifecycle:
    def test_no_segment_after_success(self):
        graph = highway_grid_network(300, seed=9)
        before = shm_segments()
        build_index(
            graph, HierarchyOptions(leaf_size=8),
            construction="parallel", max_workers=WORKERS,
        )
        assert shm_segments() == before

    def test_no_segment_after_worker_failure(self, monkeypatch):
        """A worker that dies mid-labels must not leak the segment.

        The patch lands before the pool starts, so forked workers inherit
        the failing ``_worker_labels`` while the coordinator's own phase-a
        path stays intact.
        """
        import repro.core.construction as construction_module

        def boom(graph, payload):
            raise ValueError("injected worker failure")

        monkeypatch.setattr(construction_module, "_worker_labels", boom)
        graph = highway_grid_network(300, seed=9)
        before = shm_segments()
        builder = ParallelBuilder(
            graph, HierarchyOptions(leaf_size=8), max_workers=WORKERS
        )
        with pytest.raises(RuntimeError, match="injected worker failure"):
            builder.build()
        assert shm_segments() == before
        assert builder._workers is None  # pool torn down by the finally

    def test_no_segment_after_coordinator_exception(self, monkeypatch):
        """An exception after segment creation still unlinks it."""
        import repro.core.construction as construction_module

        def boom(view):
            raise RuntimeError("injected mid-build failure")

        monkeypatch.setattr(construction_module, "fill_unreachable", boom)
        graph = highway_grid_network(300, seed=9)
        before = shm_segments()
        builder = ParallelBuilder(
            graph, HierarchyOptions(leaf_size=8), max_workers=WORKERS
        )
        with pytest.raises(RuntimeError, match="injected mid-build failure"):
            builder.build()
        assert shm_segments() == before
        assert builder._workers is None

    def test_builder_close_is_idempotent(self):
        graph = highway_grid_network(100, seed=1)
        builder = ParallelBuilder(graph, max_workers=WORKERS)
        builder.build()
        builder.close()
        builder.close()
