"""Label Search maintenance algorithms (Algorithms 1 and 2 of the paper).

Label Search is the *ancestor-centric* maintenance strategy: for every
ancestor ``r`` whose subgraph contains an updated edge, a pruned Dijkstra-like
search from the updated edge repairs the label entries at label index
``tau(r)``.

Both algorithms share the same contract:

* they are called **before** the weight change is applied to the graph,
* on return, both the graph and the labels reflect the new weights.

The decrease algorithm (Algorithm 1) applies the new weights first and then
searches, because shorter paths are discovered with their final distance and
can be repaired immediately.  The increase algorithm (Algorithm 2) must first
identify affected vertices on the *old* graph (by following old shortest
paths through the updated edges), then applies the new weights and repairs
the affected entries from their unaffected neighbours (Lemma 5.5).

Because label entries are indexed by *label index* rather than by ancestor
vertex, updates touching different subtrees can share the per-index priority
queues: their search regions are disjoint subgraphs, so the searches never
interact.  This is what lets a whole batch be processed with one pass over
the queues, as in the paper's batched formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Sequence

from repro.core import kernels
from repro.core.kernels import (  # noqa: F401 - MARK_SLACK is a back-compat re-export
    MARK_SLACK,
    on_old_shortest_path,
)
from repro.core.labelling import STLLabels
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.hierarchy.tree import StableTreeHierarchy
from repro.utils.errors import UpdateError

UNREACHABLE = math.inf

#: Escape record of a *confined* per-label-index queue: ``(index, distance,
#: vertex)`` -- the heap entry an unconfined drain would have pushed at a
#: separator crossing.  The Label Search analogue of the Pareto escape
#: records settled by :mod:`repro.core.parallel`.
#:
#: The ``on_old_shortest_path`` predicate and its ``MARK_SLACK`` tolerance
#: (documented in :mod:`repro.core.kernels`, which also hosts their
#: whole-row vectorised forms) are re-exported above -- the mark phases
#: below and their historical importers keep using them from here.
LabelSearchEscape = tuple[int, float, int]


@dataclass
class MaintenanceStats:
    """Counters describing the work done by one maintenance call.

    These back the paper's performance analysis (Section 7.2): the number of
    affected label entries and the number of heap operations explain why one
    method is faster than another on a given update.
    """

    updates_processed: int = 0
    ancestors_touched: int = 0
    labels_changed: int = 0
    vertices_affected: int = 0
    heap_pushes: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "MaintenanceStats") -> None:
        """Accumulate another stats object into this one."""
        self.updates_processed += other.updates_processed
        self.ancestors_touched += other.ancestors_touched
        self.labels_changed += other.labels_changed
        self.vertices_affected += other.vertices_affected
        self.heap_pushes += other.heap_pushes
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value


def _orient(update: EdgeUpdate, tau: list[int]) -> tuple[int, int]:
    """Return the update's endpoints ``(a, b)`` with ``tau(a) < tau(b)``.

    Lemma 5.3: for any edge one endpoint precedes the other in the stable
    tree hierarchy, so the orientation is always well defined.
    """
    u, v = update.u, update.v
    if tau[u] == tau[v]:
        raise UpdateError(
            f"edge ({u}, {v}) joins two vertices with equal label index; "
            "the hierarchy does not cover this graph"
        )
    return (u, v) if tau[u] < tau[v] else (v, u)


# --------------------------------------------------------------------------- #
# Shared search kernels
#
# The module-level functions below are the single implementation of the
# Algorithm 1/2 searches, shared by the per-kind classes further down, the
# batched engine (:mod:`repro.core.batch_label_search`) and the sharded
# backends (:mod:`repro.core.shard`, :mod:`repro.core.parallel`).  All take
# ``counters == [heap_pushes, labels_changed, vertices_affected]`` and the
# drains accept the same ``owned``/``escapes`` confinement contract as
# :func:`repro.core.pareto_search.shared_frontier_relax`: with ``owned`` given, a
# frontier push leaving the owned set is recorded as a
# :data:`LabelSearchEscape` instead of followed.
# --------------------------------------------------------------------------- #


def seed_decrease_queues(
    tau: Sequence[int],
    labels,
    decreases: Iterable[EdgeUpdate],
    queues: dict[int, list[tuple[float, int]]],
    counters: list[int],
) -> None:
    """Seed the per-label-index decrease queues (Algorithm 1, lines 2-7).

    Must run with the **new** weights already known to the caller (the seeds
    use ``update.new_weight`` directly, so graph state does not matter here);
    both endpoints' label rows are read.
    """
    for update in decreases:
        a, b = _orient(update, tau)
        w_new = update.new_weight
        label_a = labels[a]
        label_b = labels[b]
        for i in range(tau[a] + 1):
            da, db = label_a[i], label_b[i]
            if da + w_new < db:
                queues.setdefault(i, [])
                heappush(queues[i], (da + w_new, b))
                counters[0] += 1
            elif db + w_new < da:
                queues.setdefault(i, [])
                heappush(queues[i], (db + w_new, a))
                counters[0] += 1


def drain_decrease_queues(
    adjacency,
    tau: Sequence[int],
    labels,
    queues: dict[int, list[tuple[float, int]]],
    counters: list[int],
    owned: set[int] | None = None,
    escapes: list[LabelSearchEscape] | None = None,
) -> None:
    """One pruned search per seeded label index (Algorithm 1, lines 8-14).

    Requires the **new** weights in ``adjacency``.  When confined, a push
    toward an unowned vertex is escaped *unconditionally* -- the usual
    improvement gate would read the unowned row, which another region's
    owner may be rewriting concurrently; the settle drain's pop gate
    (``d < label_v[i]``) re-applies the test on merged state, so the only
    cost is a possibly-superfluous escape record.
    """
    for i, heap in queues.items():
        while heap:
            d, v = heappop(heap)
            label_v = labels[v]
            if d < label_v[i]:
                label_v[i] = d
                counters[1] += 1
                for nbr, weight in adjacency[v]:
                    if tau[nbr] <= i or math.isinf(weight):
                        continue
                    if owned is not None and nbr not in owned:
                        if escapes is not None:
                            escapes.append((i, d + weight, nbr))
                        continue
                    if d + weight < labels[nbr][i]:
                        heappush(heap, (d + weight, nbr))
                        counters[0] += 1


def seed_affected_queues(
    tau: Sequence[int],
    labels,
    increases: Iterable[EdgeUpdate],
    queues: dict[int, list[tuple[float, int]]],
    counters: list[int],
) -> None:
    """Seed the phase-1 affected-vertex queues (Algorithm 2, lines 2-8).

    Must run on the **old** weights (the seeds use ``update.old_weight``);
    the through-the-edge tests tolerate float re-association via
    :func:`on_old_shortest_path` -- over-marking only costs repair work,
    under-marking loses the whole delta.

    On long label rows the through-the-edge test runs as one whole-row
    tolerance compare (:func:`repro.core.kernels.seed_affected_rows`) -- the
    same float64 arithmetic as the scalar loop, so the seeded index set is
    identical either way (regression-tested against the scalar predicate).
    """
    for update in increases:
        a, b = _orient(update, tau)
        w_old = update.old_weight
        label_a = labels[a]
        label_b = labels[b]
        seeded = kernels.seed_affected_rows(label_a, label_b, w_old, tau[a] + 1)
        if seeded is not None:
            push_b, push_a = seeded
            for i in push_b:
                i = int(i)
                queues.setdefault(i, [])
                heappush(queues[i], (label_a[i] + w_old, b))
                counters[0] += 1
            for i in push_a:
                i = int(i)
                queues.setdefault(i, [])
                heappush(queues[i], (label_b[i] + w_old, a))
                counters[0] += 1
            continue
        for i in range(tau[a] + 1):
            da, db = label_a[i], label_b[i]
            if math.isinf(da) or math.isinf(db):
                continue
            if on_old_shortest_path(da + w_old, db):
                queues.setdefault(i, [])
                heappush(queues[i], (da + w_old, b))
                counters[0] += 1
            elif on_old_shortest_path(db + w_old, da):
                queues.setdefault(i, [])
                heappush(queues[i], (db + w_old, a))
                counters[0] += 1


def drain_affected_queues(
    adjacency,
    tau: Sequence[int],
    labels,
    queues: dict[int, list[tuple[float, int]]],
    affected_by_index: dict[int, set[int]],
    counters: list[int],
    owned: set[int] | None = None,
    escapes: list[LabelSearchEscape] | None = None,
) -> None:
    """Follow old shortest paths outward, growing per-index affected sets
    (Algorithm 2, lines 9-14).

    Runs on the **old** weights and is read-only on the labels, which is
    what makes the confined variant race-free without any write discipline.
    ``affected_by_index`` may arrive pre-populated (the coordinator settling
    escapes on sets merged from its workers); membership checks against it
    prune re-exploration.  Unlike the decrease drain, escapes *are* gated on
    :func:`on_old_shortest_path` -- the phase is globally read-only, so the
    unowned label read is safe, and an ungated escape would flood the
    coordinator with vertices the predicate immediately rejects.
    """
    for i, heap in queues.items():
        affected = affected_by_index.setdefault(i, set())
        while heap:
            d, v = heappop(heap)
            if v in affected:
                continue
            affected.add(v)
            for nbr, weight in adjacency[v]:
                if (
                    tau[nbr] <= i
                    or math.isinf(weight)
                    or nbr in affected
                    or math.isinf(labels[nbr][i])
                    or not on_old_shortest_path(d + weight, labels[nbr][i])
                ):
                    continue
                if owned is not None and nbr not in owned:
                    if escapes is not None:
                        escapes.append((i, d + weight, nbr))
                    continue
                heappush(heap, (d + weight, nbr))
                counters[0] += 1


def repair_affected_entries(
    adjacency,
    tau: Sequence[int],
    labels,
    index: int,
    affected: set[int],
    counters: list[int],
) -> None:
    """Recompute ``L(v)[index]`` for every ``v`` in ``affected`` (Algorithm 2,
    Function Repair; Lemma 5.5).

    Requires the **new** weights in ``adjacency``.  Counts one label change
    per affected vertex (every affected entry is rewritten); the internal
    Dijkstra relaxations are not billed as heap pushes, matching the
    historical per-update accounting.
    """
    heap: list[tuple[float, int]] = []
    for v in affected:
        best = UNREACHABLE
        for nbr, weight in adjacency[v]:
            # A neighbour with tau == index is necessarily the ancestor
            # itself (adjacent vertices are comparable, Lemma 5.3), whose
            # label entry is 0 -- it must participate in the bound, or a
            # vertex whose shortest path is the direct edge to the
            # ancestor would be over-estimated.
            if tau[nbr] >= index and nbr not in affected and not math.isinf(weight):
                candidate = labels[nbr][index] + weight
                if candidate < best:
                    best = candidate
        labels[v][index] = best
        if best < UNREACHABLE:
            heappush(heap, (best, v))

    counters[1] += len(affected)
    while heap:
        d, v = heappop(heap)
        if d > labels[v][index]:
            continue
        for nbr, weight in adjacency[v]:
            if tau[nbr] > index and not math.isinf(weight):
                candidate = d + weight
                if candidate < labels[nbr][index]:
                    labels[nbr][index] = candidate
                    heappush(heap, (candidate, nbr))


def queues_from_escapes(
    escapes: Iterable[LabelSearchEscape],
) -> dict[int, list[tuple[float, int]]]:
    """Rebuild per-index heaps from escape records for a settle drain."""
    queues: dict[int, list[tuple[float, int]]] = {}
    for index, distance, vertex in sorted(escapes):
        queues.setdefault(index, [])
        heappush(queues[index], (distance, vertex))
    return queues


class _LabelSearchBase:
    """Shared plumbing of the decrease / increase Label Searches."""

    def __init__(self, graph: Graph, hierarchy: StableTreeHierarchy, labels: STLLabels):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels

    @staticmethod
    def _as_update_list(updates: Iterable[EdgeUpdate] | EdgeUpdate) -> list[EdgeUpdate]:
        if isinstance(updates, EdgeUpdate):
            return [updates]
        return list(updates)


class LabelSearchDecrease(_LabelSearchBase):
    """Algorithm 1: Label Search for edge-weight decreases."""

    def apply(self, updates: Iterable[EdgeUpdate] | EdgeUpdate) -> MaintenanceStats:
        """Apply a batch of weight decreases and repair the labels."""
        updates = self._as_update_list(updates)
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        labels = self.labels
        graph = self.graph

        # Decreases are applied to the graph first: the searches below follow
        # paths in the *new* graph, and any path through an updated edge must
        # already see the new weight.
        for update in updates:
            if update.kind is UpdateKind.INCREASE:
                raise UpdateError(
                    "LabelSearchDecrease received a weight increase on edge "
                    f"({update.u}, {update.v})"
                )
            graph.set_weight(update.u, update.v, update.new_weight)
            stats.updates_processed += 1

        # Seed one priority queue per affected ancestor label index
        # (Algorithm 1, lines 2-7), then one pruned search per index
        # (lines 8-14); both via the shared module-level kernels.
        queues: dict[int, list[tuple[float, int]]] = {}
        counters = [0, 0, 0]
        seed_decrease_queues(tau, labels, updates, queues, counters)
        stats.ancestors_touched += len(queues)
        drain_decrease_queues(graph.adjacency(), tau, labels, queues, counters)
        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        return stats


class LabelSearchIncrease(_LabelSearchBase):
    """Algorithm 2: Label Search for edge-weight increases."""

    def apply(self, updates: Iterable[EdgeUpdate] | EdgeUpdate) -> MaintenanceStats:
        """Apply a batch of weight increases and repair the labels."""
        updates = self._as_update_list(updates)
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        labels = self.labels
        graph = self.graph

        for update in updates:
            if update.kind is UpdateKind.DECREASE:
                raise UpdateError(
                    "LabelSearchIncrease received a weight decrease on edge "
                    f"({update.u}, {update.v})"
                )

        # Phase 1 (on OLD weights): find, per ancestor index, the vertices
        # whose old shortest path to the ancestor runs through an updated
        # edge (Algorithm 2, lines 2-14), via the shared kernels.
        queues: dict[int, list[tuple[float, int]]] = {}
        counters = [0, 0, 0]
        seed_affected_queues(tau, labels, updates, queues, counters)
        stats.ancestors_touched += len(queues)
        affected_by_index: dict[int, set[int]] = {}
        drain_affected_queues(
            graph.adjacency(), tau, labels, queues, affected_by_index, counters
        )
        for affected in affected_by_index.values():
            stats.vertices_affected += len(affected)

        # Apply the new weights before repairing.
        for update in updates:
            graph.set_weight(update.u, update.v, update.new_weight)
            stats.updates_processed += 1

        # Phase 2: repair every affected entry from its unaffected neighbours
        # (Algorithm 2, Function Repair; Lemma 5.5).
        adjacency = graph.adjacency()
        for i, affected in affected_by_index.items():
            if affected:
                repair_affected_entries(adjacency, tau, labels, i, affected, counters)
        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        return stats
