"""Property-based tests: the scalar and vector kernels always agree.

The contract under test is *exact* entry-wise equality -- both kernels run
the identical float64 additions and min-reductions, so no tolerance is
allowed, for query answers and for the label buffer the batched Label Search
engine leaves behind.  Disconnected graphs (``inf`` answers) and ``s == t`` pairs are
generated on purpose; the whole module skips itself on the no-numpy CI leg
(there is only one kernel to compare there).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.batch import BatchPolicy
from repro.core.config import STLConfig
from repro.core.labelling import build_labels
from repro.core.stl import StableTreeLabelling
from repro.graph.generators import city_road_network, grid_road_network, random_connected_graph
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.rng import make_rng

pytestmark = pytest.mark.skipif(
    not kernels.HAS_NUMPY, reason="requires numpy (repro[fast])"
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs_maybe_disconnected(draw):
    """One or two random connected components in a single vertex space.

    Two components guarantee ``inf`` answers for every cross-component pair,
    covering the disconnected branch of both kernels.
    """
    num_components = draw(st.integers(min_value=1, max_value=2))
    parts = [
        random_connected_graph(
            draw(st.integers(min_value=2, max_value=25)),
            draw(st.floats(min_value=0.0, max_value=0.25)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        )
        for _ in range(num_components)
    ]
    total = sum(part.num_vertices for part in parts)
    graph = Graph(total)
    offset = 0
    for part in parts:
        for u, v, w in part.edges():
            graph.add_edge(u + offset, v + offset, w)
        offset += part.num_vertices
    return graph


@st.composite
def graphs_with_pairs(draw):
    graph = draw(graphs_maybe_disconnected())
    n = graph.num_vertices
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=0, max_size=80))
    # Force the corner cases in even when the random draw misses them.
    pairs += [(0, 0), (n - 1, n - 1), (0, n - 1)]
    return graph, pairs


class TestKernelAgreement:
    @SETTINGS
    @given(graphs_with_pairs())
    def test_scalar_and_vector_agree_entrywise(self, case):
        graph, pairs = case
        stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=4))
        scalar = stl.batch_query(pairs, config=STLConfig(kernel="scalar"))
        vector = stl.batch_query(pairs, config=STLConfig(kernel="vector"))
        assert scalar == vector

    @SETTINGS
    @given(graphs_with_pairs())
    def test_agreement_survives_maintenance(self, case):
        # Updates rewrite entries in place through the cached views; the
        # kernels must agree on the *maintained* labels too.
        graph, pairs = case
        stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=4))
        u, v, w = next(iter(graph.edges()))
        stl.apply_update(EdgeUpdate(u, v, w, w * 2.0))
        assert stl.batch_query(pairs, config=STLConfig(kernel="scalar")) == stl.batch_query(
            pairs, config=STLConfig(kernel="vector"
        ))


# --------------------------------------------------------------------------- #
# Batched Label Search: the vector frontier rounds against the scalar heaps
# --------------------------------------------------------------------------- #


@st.composite
def road_networks_with_batches(draw):
    """A small road network plus rounds of mixed batches drawn on it.

    Batches repeat edges, mix both kinds and, now and then, close an edge
    (``inf``) or reopen one -- each round is drawn against the weights the
    previous round left behind, so chains stay valid.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        rows = draw(st.integers(min_value=3, max_value=9))
        cols = draw(st.integers(min_value=3, max_value=9))
        graph = grid_road_network(rows, cols, seed=seed)
    else:
        graph = city_road_network(num_cities=2, city_rows=4, city_cols=4, seed=seed)
    edges = list(graph.edges())
    current = {(u, v): w for u, v, w in edges}
    rng = make_rng(seed + 1)
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batch = []
        for _ in range(draw(st.integers(min_value=3, max_value=40))):
            u, v, _ = edges[rng.randrange(len(edges))]
            old = current[(u, v)]
            new = math.inf if rng.random() < 0.08 else round(rng.uniform(0.5, 40.0), 1)
            if new != old:
                batch.append(EdgeUpdate(u, v, old, new))
                current[(u, v)] = new
        rounds.append(batch)
    return graph, rounds


class TestBatchedLabelSearchKernels:
    @SETTINGS
    @given(road_networks_with_batches())
    def test_vector_rounds_equal_scalar_heaps_bit_for_bit(self, case):
        graph, rounds = case
        policy = BatchPolicy(rebuild_fraction=None)
        base = STLConfig(engine="label_search", backend="serial", policy=policy)
        scalar = StableTreeLabelling.build(graph.copy(), HierarchyOptions(leaf_size=4))
        vector = StableTreeLabelling(graph.copy(), scalar.hierarchy, scalar.labels.copy())
        for batch in rounds:
            reference = scalar.apply_batch(batch, config=base.replace(kernel="scalar"))
            stats = vector.apply_batch(batch, config=base.replace(kernel="vector"))
            assert vector.labels.view.tobytes() == scalar.labels.view.tobytes()
            assert stats.labels_changed == reference.labels_changed
            assert stats.vertices_affected == reference.vertices_affected
        rebuilt = build_labels(vector.graph, vector.hierarchy)
        assert vector.labels.equals(rebuilt), vector.labels.differences(rebuilt)[:5]
