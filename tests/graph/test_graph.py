"""Unit tests for the core Graph data structure."""

import math

import pytest

from repro.graph.graph import Graph
from repro.utils.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    VertexNotFoundError,
)


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph(0)
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_from_edges(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert graph.num_edges == 2
        assert graph.weight(0, 1) == 2.0
        assert graph.weight(2, 1) == 3.0

    def test_coordinates_length_must_match(self):
        with pytest.raises(GraphError):
            Graph(3, coordinates=[(0.0, 0.0)])

    def test_coordinates_stored(self):
        graph = Graph(2, coordinates=[(0, 0), (1, 2)])
        assert graph.coordinates == [(0.0, 0.0), (1.0, 2.0)]


class TestEdges:
    def test_add_and_query_edge(self):
        graph = Graph(4)
        graph.add_edge(0, 3, 5.5)
        assert graph.has_edge(0, 3)
        assert graph.has_edge(3, 0)
        assert graph.weight(3, 0) == 5.5
        assert graph.num_edges == 1

    def test_add_edge_both_adjacency_lists(self):
        graph = Graph(3)
        graph.add_edge(2, 1, 4.0)
        assert (1, 4.0) in graph.neighbors(2)
        assert (2, 4.0) in graph.neighbors(1)

    def test_readding_edge_overwrites_weight(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 0, 7.0)
        assert graph.num_edges == 1
        assert graph.weight(0, 1) == 7.0

    def test_self_loop_rejected(self):
        graph = Graph(3)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1, 1.0)

    def test_negative_weight_rejected(self):
        graph = Graph(3)
        with pytest.raises(InvalidWeightError):
            graph.add_edge(0, 1, -2.0)

    def test_nan_weight_rejected(self):
        graph = Graph(3)
        with pytest.raises(InvalidWeightError):
            graph.add_edge(0, 1, float("nan"))

    def test_unknown_vertex_rejected(self):
        graph = Graph(3)
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(0, 7, 1.0)

    def test_missing_edge_weight_raises(self):
        graph = Graph(3)
        with pytest.raises(EdgeNotFoundError):
            graph.weight(0, 1)

    def test_has_edge_out_of_range(self):
        graph = Graph(3)
        assert not graph.has_edge(0, 9)
        assert not graph.has_edge(1, 1)

    def test_edges_iteration_is_canonical(self):
        graph = Graph.from_edges(4, [(3, 1, 2.0), (0, 2, 1.0)])
        edges = sorted(graph.edges())
        assert edges == [(0, 2, 1.0), (1, 3, 2.0)]

    def test_degree(self):
        graph = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1


class TestWeightUpdates:
    def test_set_weight_returns_old(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0)])
        old = graph.set_weight(0, 1, 9.0)
        assert old == 2.0
        assert graph.weight(0, 1) == 9.0
        assert (1, 9.0) in graph.neighbors(0)
        assert (0, 9.0) in graph.neighbors(1)

    def test_set_weight_reverse_orientation(self):
        graph = Graph.from_edges(3, [(2, 1, 2.0)])
        graph.set_weight(1, 2, 4.0)
        assert graph.weight(2, 1) == 4.0

    def test_set_weight_infinite_models_deletion(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0)])
        graph.set_weight(0, 1, math.inf)
        assert math.isinf(graph.weight(0, 1))

    def test_set_weight_missing_edge(self):
        graph = Graph(3)
        with pytest.raises(EdgeNotFoundError):
            graph.set_weight(0, 1, 1.0)

    def test_set_weight_negative_rejected(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0)])
        with pytest.raises(InvalidWeightError):
            graph.set_weight(0, 1, -1.0)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0)])
        clone = graph.copy()
        clone.set_weight(0, 1, 5.0)
        assert graph.weight(0, 1) == 2.0
        assert clone.weight(0, 1) == 5.0

    def test_copy_preserves_coordinates(self):
        graph = Graph(2, coordinates=[(0, 0), (1, 1)])
        graph.add_edge(0, 1, 1.0)
        assert graph.copy().coordinates == graph.coordinates

    def test_induced_subgraph(self):
        graph = Graph.from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)])
        sub, mapping = graph.induced_subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert sub.weight(mapping[1], mapping[2]) == 2.0
        assert sub.weight(mapping[2], mapping[3]) == 3.0

    def test_induced_subgraph_drops_external_edges(self):
        graph = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        sub, mapping = graph.induced_subgraph([0, 2])
        assert sub.num_edges == 0
        assert set(mapping) == {0, 2}

    def test_total_weight_skips_infinite(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        graph.set_weight(0, 1, math.inf)
        assert graph.total_weight() == 3.0

    def test_to_networkx_round_trip(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 3
        assert nx_graph[0][1]["weight"] == 2.0



class TestCSRArrays:
    """``Graph.csr()``: the adjacency lists as flat arrays, kept current in place."""

    def test_layout_follows_adjacency_lists(self):
        graph = Graph.from_edges(5, [(0, 1, 1.0), (2, 0, 2.5), (1, 2, 4.0), (3, 1, 0.0)])
        indptr, neighbors, weights = graph.csr()
        assert (indptr.typecode, neighbors.typecode, weights.typecode) == ("q", "q", "d")
        # Vertex 4 is isolated: an empty row at the end.
        assert list(indptr) == [0, 2, 5, 7, 8, 8]
        for v in graph.vertices():
            row = slice(indptr[v], indptr[v + 1])
            assert list(zip(neighbors[row], weights[row])) == graph.neighbors(v)
        # Built once, then handed out again.
        assert graph.csr() is graph.csr()

    def test_empty_and_edgeless_graphs(self):
        assert [list(a) for a in Graph(0).csr()] == [[0], [], []]
        assert [list(a) for a in Graph(3).csr()] == [[0, 0, 0, 0], [], []]

    def test_writes_update_both_arcs_in_place(self):
        graph = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 5.0)])
        indptr, neighbors, weights = graph.csr()

        def arcs(u, v):
            """The two entries of ``weights`` that hold edge ``(u, v)``."""
            return [
                weights[i]
                for a, b in ((u, v), (v, u))
                for i in range(indptr[a], indptr[a + 1])
                if neighbors[i] == b
            ]

        graph.set_weight(2, 1, 7.0)  # reversed endpoints
        graph.add_edge(3, 0, 6.0)  # add_edge of an existing edge overwrites
        graph.set_weight(2, 3, math.inf)
        assert arcs(1, 2) == [7.0, 7.0]
        assert arcs(0, 3) == [6.0, 6.0]
        assert arcs(2, 3) == [math.inf, math.inf]
        assert arcs(0, 1) == [1.0, 1.0]
        assert graph.csr() == (indptr, neighbors, weights)
        assert graph.csr()[2] is weights

    def test_rejected_writes_leave_arrays_untouched(self):
        graph = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        arrays = graph.csr()
        before = [list(a) for a in arrays]
        with pytest.raises(InvalidWeightError):
            graph.set_weight(0, 1, -1.0)
        with pytest.raises(InvalidWeightError):
            graph.add_edge(1, 2, math.nan)
        with pytest.raises(EdgeNotFoundError):
            graph.set_weight(0, 2, 1.0)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1, 1.0)
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(0, 3, 1.0)
        assert graph.csr() is arrays
        assert [list(a) for a in arrays] == before

    def test_copy_shares_only_the_topology_arrays(self):
        graph = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        indptr, neighbors, weights = graph.csr()
        clone = graph.copy()
        clone_indptr, clone_neighbors, clone_weights = clone.csr()
        # indptr and neighbors never change in place, so sharing them is safe.
        assert clone_indptr is indptr and clone_neighbors is neighbors
        assert clone_weights is not weights
        clone.set_weight(0, 1, 9.0)
        assert list(weights) == [1.0, 1.0, 2.0, 2.0]
        assert list(clone_weights) == [9.0, 9.0, 2.0, 2.0]
        # A new edge on the clone rebuilds its arrays; the original keeps its own.
        clone.add_edge(0, 2, 3.0)
        assert clone.csr()[0] is not indptr
        assert list(indptr) == [0, 1, 3, 4]
        assert graph.csr() == (indptr, neighbors, weights)
