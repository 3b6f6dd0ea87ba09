"""Structural updates: edge/vertex insertion and deletion (Section 8).

Road-network topology changes are rare; the paper handles them on top of the
weight-update machinery:

* **edge deletion** -- raise the edge weight to infinity and run the
  weight-increase maintenance (the hierarchy is untouched),
* **vertex deletion** -- delete all incident edges, as one batch,
* **edge insertion** -- if the edge joins two vertices that are comparable in
  the hierarchy (one is an ancestor of the other, the common case for new
  road segments), it can be handled as a weight decrease from infinity; if
  the endpoints are incomparable, the hierarchy's separator property would be
  violated, so the affected sub-hierarchy is rebuilt (the paper's
  "re-partition their induced subgraphs" strategy).  This implementation
  takes the simple, always-correct variant: rebuild the whole index when the
  endpoints are incomparable, and patch labels in place otherwise.
"""

from __future__ import annotations

import math

from repro.core.label_search import MaintenanceStats
from repro.core.labelling import build_labels
from repro.core.stl import StableTreeLabelling
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions, build_hierarchy
from repro.utils.errors import UpdateError


class StructuralUpdater:
    """Applies topology changes to a :class:`StableTreeLabelling` in place."""

    def __init__(self, stl: StableTreeLabelling, options: HierarchyOptions | None = None):
        self.stl = stl
        self.options = options

    # ------------------------------------------------------------------ #
    # Deletions
    # ------------------------------------------------------------------ #

    def delete_edge(self, u: int, v: int) -> MaintenanceStats:
        """Logically delete edge ``(u, v)`` (weight -> infinity)."""
        return self.stl.remove_edge(u, v)

    def delete_vertex(self, v: int) -> MaintenanceStats:
        """Logically delete vertex ``v``: one batch closing every incident edge."""
        closures = [
            EdgeUpdate(v, nbr, weight, math.inf)
            for nbr, weight in self.stl.graph.neighbors(v)
            if not math.isinf(weight)
        ]
        return self.stl.apply_batch(closures)

    # ------------------------------------------------------------------ #
    # Insertions
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int, weight: float) -> MaintenanceStats:
        """Insert the edge ``(u, v)`` with ``weight``.

        Re-inserting a previously deleted edge (weight currently infinite) is
        a plain weight decrease.  A brand-new edge between comparable vertices
        is added to the graph and propagated as a decrease from infinity.  A
        brand-new edge between *incomparable* vertices invalidates the
        hierarchy's separator property, so the index is rebuilt.
        """
        graph = self.stl.graph
        hierarchy = self.stl.hierarchy
        if graph.has_edge(u, v):
            old = graph.weight(u, v)
            if weight > old:
                raise UpdateError(
                    f"insert_edge would increase the weight of existing edge ({u}, {v})"
                )
            return self.stl.apply_update(EdgeUpdate(u, v, old, weight))

        comparable = hierarchy.precedes(u, v) or hierarchy.precedes(v, u)
        graph.add_edge(u, v, weight)
        if comparable:
            # The new edge joins comparable vertices, so Lemma 5.3 and with it
            # the 2-hop cover property keep holding; propagating a weight
            # decrease from infinity patches every affected label.
            return self.stl.apply_update(EdgeUpdate(u, v, math.inf, weight))

        # Incomparable endpoints: the new edge crosses two sibling subtrees,
        # so common ancestors no longer hit every shortest path.  Rebuild the
        # hierarchy and the labels (the paper repartitions the affected
        # subtrees; a full rebuild is the simple correct fallback and is still
        # rare enough in practice -- new roads seldom appear).
        self._rebuild()
        stats = MaintenanceStats(updates_processed=1)
        stats.extra["rebuilds"] = 1
        return stats

    def insert_vertex(self, neighbors: list[tuple[int, float]]) -> int:
        """Insert a new vertex connected to ``neighbors``; returns its id.

        Adding a vertex changes the vertex set, which the dense-id graph and
        the hierarchy cannot absorb in place, so the graph is re-created with
        one extra vertex and the index is rebuilt.
        """
        old_graph = self.stl.graph
        new_id = old_graph.num_vertices
        coordinates = None
        if old_graph.coordinates is not None:
            anchor = neighbors[0][0] if neighbors else 0
            coordinates = list(old_graph.coordinates) + [old_graph.coordinates[anchor]]
        new_graph = Graph(new_id + 1, coordinates)
        for a, b, w in old_graph.edges():
            new_graph.add_edge(a, b, w)
        for nbr, weight in neighbors:
            new_graph.add_edge(new_id, nbr, weight)
        self.stl.graph = new_graph
        self._rebuild()
        return new_id

    # ------------------------------------------------------------------ #

    def _rebuild(self) -> None:
        graph = self.stl.graph
        hierarchy = build_hierarchy(graph, self.options)
        labels = build_labels(graph, hierarchy)
        self.stl.hierarchy = hierarchy
        self.stl.labels = labels
        self.stl.set_maintenance(self.stl.maintenance_mode)
