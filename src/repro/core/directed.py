"""Directed-road-network extension (Section 8 of the paper).

The paper notes that STL extends to directed road networks by storing, for
every vertex, distances to its ancestors in *both* directions (forward and
backward searches over the same stable tree hierarchy).  This module provides
that extension for static queries:

* the hierarchy is built on the underlying undirected graph (structure only),
* two flat label stores are filled with the undirected build's own
  rank-restricted Dijkstra, over the in-edges and the out-edges
  respectively,
* a query ``s -> t`` combines the forward label of ``s`` with the backward
  label of ``t``.

Dynamic maintenance of the directed variant follows the same algorithms run
per direction; it is left as the straightforward composition of the
undirected machinery and is exercised only statically in the test suite
(mirroring the paper, whose evaluation is on undirected networks).
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable

from repro.algorithms.dijkstra import dijkstra_rank_restricted_into
from repro.core.labelling import STLLabels, label_offsets
from repro.graph.graph import Graph
from repro.hierarchy.builder import HierarchyOptions, build_hierarchy
from repro.hierarchy.tree import StableTreeHierarchy
from repro.utils.errors import GraphError

UNREACHABLE = math.inf


class DirectedGraph:
    """Minimal directed weighted graph with dense integer vertex ids."""

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._out: list[list[tuple[int, float]]] = [[] for _ in range(num_vertices)]
        self._in: list[list[tuple[int, float]]] = [[] for _ in range(num_vertices)]
        self.num_edges = 0

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the directed edge ``u -> v``."""
        if u == v:
            raise GraphError("self loops are not allowed")
        weight = float(weight)
        if weight < 0 or math.isnan(weight):
            raise GraphError(f"invalid weight {weight!r}")
        self._out[u].append((v, weight))
        self._in[v].append((u, weight))
        self.num_edges += 1

    def out_neighbors(self, v: int) -> list[tuple[int, float]]:
        return self._out[v]

    def in_neighbors(self, v: int) -> list[tuple[int, float]]:
        return self._in[v]

    def to_undirected(self) -> Graph:
        """Underlying undirected graph (minimum weight per direction pair)."""
        graph = Graph(self.num_vertices)
        best: dict[tuple[int, int], float] = {}
        for u in range(self.num_vertices):
            for v, w in self._out[u]:
                key = (u, v) if u < v else (v, u)
                best[key] = min(w, best.get(key, UNREACHABLE))
        for (u, v), w in best.items():
            graph.add_edge(u, v, w)
        return graph

    @classmethod
    def from_undirected(
        cls, graph: Graph, asymmetry: Iterable[tuple[int, int, float]] = ()
    ) -> "DirectedGraph":
        """Directed version of an undirected graph, with optional per-arc overrides."""
        directed = cls(graph.num_vertices)
        for u, v, w in graph.edges():
            directed.add_edge(u, v, w)
            directed.add_edge(v, u, w)
        for u, v, w in asymmetry:
            directed.add_edge(u, v, w)
        return directed


class DirectedSTL:
    """Stable Tree Labelling for directed road networks (forward + backward labels)."""

    def __init__(
        self,
        graph: DirectedGraph,
        hierarchy: StableTreeHierarchy,
        forward_labels: STLLabels,
        backward_labels: STLLabels,
    ):
        self.graph = graph
        self.hierarchy = hierarchy
        self.forward_labels = forward_labels
        self.backward_labels = backward_labels

    @classmethod
    def build(cls, graph: DirectedGraph, options: HierarchyOptions | None = None) -> "DirectedSTL":
        """Build a directed STL: one hierarchy, two label sets."""
        undirected = graph.to_undirected()
        hierarchy = build_hierarchy(undirected, options)
        tau = hierarchy.tau
        offsets = label_offsets(tau)
        # The forward label of v stores d(v -> r): search backwards from r
        # over the in-edges.  The backward label stores d(r -> v): search
        # forwards over the out-edges.
        stores: list[STLLabels] = []
        for adjacency in (graph._in, graph._out):
            entries = array("d", [UNREACHABLE]) * offsets[-1]
            for r in hierarchy.vertices_in_label_order():
                dijkstra_rank_restricted_into(adjacency, r, tau, entries, offsets, tau[r])
            stores.append(STLLabels.from_flat(entries, offsets))
        return cls(graph, hierarchy, stores[0], stores[1])

    def query(self, s: int, t: int) -> float:
        """Shortest directed distance ``s -> t``."""
        if s == t:
            return 0.0
        prefix = self.hierarchy.num_common_ancestors(s, t)
        label_s = self.forward_labels[s]
        label_t = self.backward_labels[t]
        best = UNREACHABLE
        for i in range(prefix):
            candidate = label_s[i] + label_t[i]
            if candidate < best:
                best = candidate
        return best

    def num_label_entries(self) -> int:
        """Total stored entries across both directions."""
        return self.forward_labels.num_entries() + self.backward_labels.num_entries()

