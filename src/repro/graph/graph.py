"""Undirected weighted graph with O(1) edge-weight updates.

This is the substrate every index in the library is built on.  Vertices are
dense integer ids ``0 .. n-1``; the adjacency structure is a list of
``(neighbour, weight)`` lists, which is the representation all the Dijkstra
variants and maintenance searches iterate over.

The class models exactly the dynamic road network of the paper: the *topology*
is fixed after construction (edges are added up front), while *edge weights*
change over time via :meth:`Graph.set_weight`.  Structural changes (Section 8
of the paper) are modelled on top of this by setting weights to infinity
(deletion) or by rebuilding sub-hierarchies (insertion, see
``repro.core.structural``).

Beside the lists the graph keeps the same adjacency as flat CSR arrays
(:meth:`Graph.csr`), which the array kernels read through zero-copy views.
They are built on first request, and from then on every weight write
updates both arcs of its edge in place, so a view taken once always shows
the current weights.  Adding a new edge drops them; the next request
rebuilds them.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from repro.utils.errors import EdgeNotFoundError, GraphError
from repro.utils.validation import check_edge_weight, check_non_negative_weight, check_vertex


class Graph:
    """Undirected, weighted, dynamic graph over dense integer vertex ids.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    coordinates:
        Optional list of ``(x, y)`` coordinates, one per vertex.  Road-network
        generators always provide coordinates; the geometric partitioner uses
        them, and everything else ignores them.

    Notes
    -----
    * Parallel edges are not allowed; adding an existing edge overwrites its
      weight.
    * Self loops are rejected -- they never participate in shortest paths on
    	road networks and would complicate the maintenance algorithms.
    """

    __slots__ = (
        "_adjacency",
        "_edge_index",
        "_coordinates",
        "_num_edges",
        "_csr",
    )

    def __init__(self, num_vertices: int, coordinates: Sequence[tuple[float, float]] | None = None):
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._adjacency: list[list[tuple[int, float]]] = [[] for _ in range(num_vertices)]
        # (u, v) with u < v  ->  position of v in adjacency[u]
        self._edge_index: dict[tuple[int, int], int] = {}
        self._num_edges = 0
        # (indptr, neighbors, weights) in adjacency-list order, or None
        # until first requested (see :meth:`csr`).
        self._csr: tuple[array, array, array] | None = None
        if coordinates is not None:
            coordinates = [(float(x), float(y)) for x, y in coordinates]
            if len(coordinates) != num_vertices:
                raise GraphError(
                    f"coordinates has {len(coordinates)} entries for {num_vertices} vertices"
                )
        self._coordinates: list[tuple[float, float]] | None = coordinates

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    @property
    def coordinates(self) -> list[tuple[float, float]] | None:
        """Per-vertex ``(x, y)`` coordinates, or ``None`` if unavailable."""
        return self._coordinates

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self.num_vertices)

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Edge manipulation
    # ------------------------------------------------------------------ #

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the undirected edge ``(u, v)`` or overwrite its weight."""
        check_vertex(u, self.num_vertices)
        check_vertex(v, self.num_vertices)
        if u == v:
            raise GraphError(f"self loops are not allowed (vertex {u})")
        weight = check_non_negative_weight(weight)
        key = self._key(u, v)
        if key in self._edge_index:
            self._set_weight_by_key(key, weight)
            return
        self._edge_index[key] = len(self._adjacency[key[0]])
        self._adjacency[u].append((v, weight))
        self._adjacency[v].append((u, weight))
        self._num_edges += 1
        self._csr = None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        if u == v:
            return False
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            return False
        return self._key(u, v) in self._edge_index

    def weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``(u, v)``.

        Raises :class:`EdgeNotFoundError` if the edge does not exist.
        """
        key = self._key(u, v)
        pos = self._edge_index.get(key)
        if pos is None:
            raise EdgeNotFoundError(f"edge ({u}, {v}) does not exist")
        return self._adjacency[key[0]][pos][1]

    def _set_weight_by_key(self, key: tuple[int, int], weight: float) -> None:
        a, b = key
        pos = self._edge_index[key]
        self._adjacency[a][pos] = (b, weight)
        # The reverse entry has to be located by scanning b's adjacency once;
        # road networks have tiny degrees so the scan is effectively O(1).
        adj_b = self._adjacency[b]
        for i, (nbr, _) in enumerate(adj_b):
            if nbr == a:
                adj_b[i] = (a, weight)
                break
        else:
            raise AssertionError("edge index out of sync with adjacency lists")
        if self._csr is not None:
            indptr, _, weights = self._csr
            weights[indptr[a] + pos] = weight
            weights[indptr[b] + i] = weight

    def set_weight(self, u: int, v: int, weight: float) -> float:
        """Set the weight of an existing edge and return the previous weight.

        Setting the weight to ``math.inf`` models an edge deletion (Section 8
        of the paper): searches and maintenance algorithms skip infinite
        edges, so the edge is logically absent while the topology -- and with
        it the stable tree hierarchy -- stays untouched.
        """
        key = self._key(u, v)
        pos = self._edge_index.get(key)
        if pos is None:
            raise EdgeNotFoundError(f"edge ({u}, {v}) does not exist")
        new_weight = check_edge_weight(weight)
        old_weight = self._adjacency[key[0]][pos][1]
        self._set_weight_by_key(key, new_weight)
        return old_weight

    # ------------------------------------------------------------------ #
    # Neighbour access
    # ------------------------------------------------------------------ #

    def neighbors(self, v: int) -> list[tuple[int, float]]:
        """List of ``(neighbour, weight)`` pairs of ``v``.

        The returned list is the internal adjacency list; callers must not
        mutate it.  Exposing it directly keeps the hot loops in the search
        algorithms allocation-free.
        """
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v``."""
        return len(self._adjacency[v])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over undirected edges as ``(u, v, weight)`` with ``u < v``."""
        for (u, v), pos in self._edge_index.items():
            yield u, v, self._adjacency[u][pos][1]

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """The raw adjacency structure (read-only by convention)."""
        return self._adjacency

    def csr(self) -> tuple[array, array, array]:
        """The adjacency as CSR arrays ``(indptr, neighbors, weights)``.

        Row ``v`` is ``neighbors[indptr[v]:indptr[v + 1]]`` with the arc
        weights beside it in ``weights``, both in the order of
        ``adjacency()[v]``.  ``indptr`` and ``neighbors`` are ``array('q')``
        and never change; ``weights`` is an ``array('d')`` that every weight
        write updates in place.  Read-only by convention, like
        :meth:`adjacency`.  Built on the first call after construction or
        after an :meth:`add_edge` of a new edge.
        """
        if self._csr is None:
            rows = self._adjacency
            self._csr = (
                array("q", accumulate(map(len, rows), initial=0)),
                array("q", [nbr for row in rows for nbr, _ in row]),
                array("d", [w for row in rows for _, w in row]),
            )
        return self._csr

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def copy(self) -> "Graph":
        """Deep copy of the graph (topology, weights and coordinates)."""
        clone = Graph.__new__(Graph)
        clone._adjacency = [row.copy() for row in self._adjacency]
        clone._edge_index = self._edge_index.copy()
        clone._num_edges = self._num_edges
        clone._coordinates = None if self._coordinates is None else list(self._coordinates)
        # indptr and neighbors are never written in place, so the clone
        # shares them; only the weights are its own.
        clone._csr = None
        if self._csr is not None:
            indptr, neighbors, weights = self._csr
            clone._csr = (indptr, neighbors, weights[:])
        return clone

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Return the induced subgraph on ``vertices`` plus an id mapping.

        The subgraph uses fresh dense ids; the returned dict maps original ids
        to subgraph ids.
        """
        vertex_list = sorted(set(vertices))
        for v in vertex_list:
            check_vertex(v, self.num_vertices)
        mapping = {v: i for i, v in enumerate(vertex_list)}
        coords = None
        if self._coordinates is not None:
            coords = [self._coordinates[v] for v in vertex_list]
        sub = Graph(len(vertex_list), coords)
        for v in vertex_list:
            for nbr, w in self._adjacency[v]:
                if nbr > v and nbr in mapping:
                    sub.add_edge(mapping[v], mapping[nbr], w)
        return sub, mapping

    def total_weight(self) -> float:
        """Sum of all edge weights (ignores infinite weights)."""
        return sum(w for _, _, w in self.edges() if not math.isinf(w))

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int, float]],
        coordinates: Sequence[tuple[float, float]] | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v, weight)`` triples."""
        graph = cls(num_vertices, coordinates)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph

    def to_networkx(self):  # pragma: no cover - exercised in tests that import networkx
        """Convert to a :class:`networkx.Graph` (test / interop helper)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self.vertices())
        for u, v, w in self.edges():
            nx_graph.add_edge(u, v, weight=w)
        return nx_graph
