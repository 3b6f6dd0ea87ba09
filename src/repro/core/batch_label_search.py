"""Batched Label Search maintenance (the Algorithm 1/2 engine, batch-lifted).

The per-kind Label Search classes (:mod:`repro.core.label_search`) already
share per-label-index priority queues across the updates of one ``apply``
call -- the module docstring's observation that searches rooted in disjoint
subtrees never interact.  :class:`BatchedLabelSearchEngine` takes a whole
**coalesced** batch (one net update per edge, mixed kinds) and hands each
kind group to one such call:

* **Increases first** -- :class:`~repro.core.label_search.LabelSearchIncrease`
  grows the per-index affected sets for every net increase in one seed +
  drain pass over the *old* weights, lands the new weights and repairs every
  affected entry from its unaffected neighbours.
* **Decreases second**, on the increased graph --
  :class:`~repro.core.label_search.LabelSearchDecrease` lands the new
  weights, seeds the per-index decrease queues for the whole group and
  drains each queue once.

The two kind groups touch disjoint edges (coalescing guarantees it), so the
increase pass's weight writes never invalidate a decrease's recorded old
weight -- the same ordering argument as the Pareto batch engine.

With numpy the same two passes run as **frontier rounds** over flat entry
positions of the CSR label store, every label index of the batch at once
(:class:`repro.core.kernels.LabelSearchRounds`); the per-index heaps are the
fallback without numpy and the reference in the tests.  Both produce
bit-identical labels.  The choice follows the platform
(:data:`repro.core.kernels.HAS_NUMPY`); no option pins it.

This engine is what :class:`repro.core.batch.BatchPolicy` routes every
batch to by default (``label_search/serial``).  In the engine x backend
matrix (see docs/architecture.md) it also serves as the degenerate-plan and
residual fallback of the ``thread``/``process`` backends, whose confined
shard workers run the scalar kernels of :mod:`repro.core.label_search`
directly.  Pin it with ``STLConfig(engine="label_search")``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core import kernels
from repro.core.batch import validate_coalesced
from repro.core.label_search import (
    LabelSearchDecrease,
    LabelSearchIncrease,
    MaintenanceStats,
    _orient,
)
from repro.core.labelling import STLLabels
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.hierarchy.tree import StableTreeHierarchy


def merge_affected_sets(
    target: dict[int, set[int]], source: dict[int, Sequence[int] | set[int]]
) -> None:
    """Union per-index affected sets into ``target`` (shard/worker merge).

    Affected sets are *sets of marked vertices*, so the union over shards is
    exactly the set a global phase-1 search would have produced -- each
    shard replays the chains inside its region verbatim and hands crossing
    chains on as escapes, whose settle drain grows these same sets further.
    """
    for index, vertices in source.items():
        target.setdefault(index, set()).update(vertices)


class BatchedLabelSearchEngine:
    """Shared-queue Label Search over a coalesced batch of updates.

    Two implementations of the same two passes, selected per :meth:`apply`
    call by what the interpreter offers (:data:`repro.core.kernels.HAS_NUMPY`,
    read at call time):

    * **scalar** -- :class:`~repro.core.label_search.LabelSearchIncrease` /
      :class:`~repro.core.label_search.LabelSearchDecrease` themselves, each
      given its whole kind group in one call: the per-index heaps, one
      ``(vertex, index)`` entry at a time.  The only path without numpy and
      the reference the vector rounds are tested against.
    * **vector** -- :class:`repro.core.kernels.LabelSearchRounds`: all label
      indexes of the batch at once over flat entry positions, in
      level-synchronous rounds.  Labels come out bit-identical to the scalar
      path (see that class for the argument).
    """

    def __init__(self, graph: Graph, hierarchy: StableTreeHierarchy, labels: STLLabels):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels
        self._increase = LabelSearchIncrease(graph, hierarchy, labels)
        self._decrease = LabelSearchDecrease(graph, hierarchy, labels)

    def apply(self, updates: Sequence[EdgeUpdate]) -> MaintenanceStats:
        """Apply one coalesced batch (at most one net update per edge).

        Net increases are processed first (their phase-1 search must see the
        pre-batch weights), then net decreases on the increased graph;
        NEUTRAL net updates change nothing but are counted as processed.
        Raises :class:`repro.utils.errors.UpdateError` on non-coalesced or
        stale input, exactly like the Pareto batch engine.

        Counters mean the same on both kernels: ``vertices_affected`` is the
        number of entries marked by the increase pass, ``labels_changed``
        the number of distinct entries rewritten per pass, ``heap_pushes``
        the entries enqueued (on a heap, or on a frontier).  The vector
        kernel also records ``extra["vector_kernel"] = 1`` and
        ``extra["rounds"]``, the number of frontiers it processed.
        """
        validate_coalesced(self.graph, updates)
        vector = kernels.HAS_NUMPY
        increases = [u for u in updates if u.kind is UpdateKind.INCREASE]
        decreases = [u for u in updates if u.kind is UpdateKind.DECREASE]
        stats = MaintenanceStats()
        if increases:
            if vector:
                stats.merge(self._apply_increases_vector(increases))
            else:
                stats.merge(self._increase.apply(increases))
        if decreases:
            if vector:
                stats.merge(self._apply_decreases_vector(decreases))
            else:
                stats.merge(self._decrease.apply(decreases))
        # Counted once here: NEUTRAL updates count, and the per-kind
        # classes' own counts would cover only their kind.
        stats.updates_processed = len(updates)
        if vector:
            stats.extra["vector_kernel"] = 1
        return stats

    # ------------------------------------------------------------------ #
    # Vector kernel: both passes as frontier rounds over entry positions
    # ------------------------------------------------------------------ #

    def _rounds_over(
        self, updates: Sequence[EdgeUpdate]
    ) -> tuple[kernels.LabelSearchRounds, Any, Any]:
        """A round driver plus the batch's edges oriented ``tau(a) < tau(b)``."""
        tau = self.hierarchy.tau
        a, b = zip(*(_orient(update, tau) for update in updates))
        return kernels.LabelSearchRounds(self.graph, self.labels, self.hierarchy), a, b

    def _land_weights(self, updates: Sequence[EdgeUpdate]) -> None:
        for update in updates:
            self.graph.set_weight(update.u, update.v, update.new_weight)

    def _apply_increases_vector(self, increases: Sequence[EdgeUpdate]) -> MaintenanceStats:
        search, a, b = self._rounds_over(increases)
        marked, seeded = search.mark_increases(a, b, [u.old_weight for u in increases])
        self._land_weights(increases)
        affected = search.repair_marked(marked)
        stats = MaintenanceStats(
            ancestors_touched=seeded,
            labels_changed=affected,
            vertices_affected=affected,
            heap_pushes=search.enqueued,
        )
        stats.extra["rounds"] = search.rounds
        return stats

    def _apply_decreases_vector(self, decreases: Sequence[EdgeUpdate]) -> MaintenanceStats:
        search, a, b = self._rounds_over(decreases)
        self._land_weights(decreases)
        seeded, changed = search.decrease(a, b, [u.new_weight for u in decreases])
        stats = MaintenanceStats(
            ancestors_touched=seeded, labels_changed=changed, heap_pushes=search.enqueued
        )
        stats.extra["rounds"] = search.rounds
        return stats
