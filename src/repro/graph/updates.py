"""Edge-weight update model for dynamic road networks.

The paper considers two kinds of updates (Section 3): edge-weight *increases*
and *decreases*.  :class:`EdgeUpdate` captures a single update together with
the old weight so it can be classified and rolled back, and
:class:`UpdateBatch` captures the batches used throughout the evaluation
(Tables 3, Figures 8 and 10).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.graph.graph import Graph
from repro.utils.errors import InvalidWeightError, UpdateError


class UpdateKind(enum.Enum):
    """Classification of a weight update."""

    INCREASE = "increase"
    DECREASE = "decrease"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class EdgeUpdate:
    """A single edge-weight update ``(u, v): old_weight -> new_weight``."""

    u: int
    v: int
    old_weight: float
    new_weight: float

    def __post_init__(self) -> None:
        # A NaN compares neither above nor below anything, so it would
        # classify as NEUTRAL and be dropped without ever landing.
        if math.isnan(self.old_weight) or math.isnan(self.new_weight):
            raise InvalidWeightError(
                f"edge ({self.u}, {self.v}) update weights must not be NaN, "
                f"got {self.old_weight!r} -> {self.new_weight!r}"
            )

    @property
    def kind(self) -> UpdateKind:
        """Whether this update increases, decreases or preserves the weight."""
        if self.new_weight > self.old_weight:
            return UpdateKind.INCREASE
        if self.new_weight < self.old_weight:
            return UpdateKind.DECREASE
        return UpdateKind.NEUTRAL

    @property
    def delta(self) -> float:
        """Signed weight change ``new - old``."""
        return self.new_weight - self.old_weight

    def reversed(self) -> "EdgeUpdate":
        """The update that undoes this one (used to restore batches)."""
        return EdgeUpdate(self.u, self.v, self.new_weight, self.old_weight)

    def apply(self, graph: Graph) -> None:
        """Apply the update to ``graph`` (validates the recorded old weight)."""
        current = graph.weight(self.u, self.v)
        if current != self.old_weight:
            raise UpdateError(
                f"edge ({self.u}, {self.v}) has weight {current}, "
                f"update expected {self.old_weight}"
            )
        graph.set_weight(self.u, self.v, self.new_weight)

    @classmethod
    def scaling(cls, graph: Graph, u: int, v: int, factor: float) -> "EdgeUpdate":
        """Create an update multiplying the current weight of ``(u, v)`` by ``factor``."""
        old = graph.weight(u, v)
        return cls(u, v, old, old * factor)

    @classmethod
    def setting(cls, graph: Graph, u: int, v: int, new_weight: float) -> "EdgeUpdate":
        """Create an update setting the weight of ``(u, v)`` to ``new_weight``."""
        old = graph.weight(u, v)
        return cls(u, v, old, new_weight)


class UpdateBatch:
    """An ordered batch of edge-weight updates.

    Batches are how the paper's evaluation exercises maintenance: a batch of
    1,000 random edges is increased (weight x2), the indexes are updated, and
    the batch is then restored to measure the decrease case.
    """

    def __init__(self, updates: Iterable[EdgeUpdate] = ()):
        self._updates: list[EdgeUpdate] = list(updates)

    def __len__(self) -> int:
        """Number of updates in the batch."""
        return len(self._updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        """Iterate the updates in application order."""
        return iter(self._updates)

    def __getitem__(self, index: int) -> EdgeUpdate:
        """The update at position ``index`` (application order)."""
        return self._updates[index]

    def append(self, update: EdgeUpdate) -> None:
        """Add an update to the end of the batch."""
        self._updates.append(update)

    @property
    def updates(self) -> Sequence[EdgeUpdate]:
        """The updates in application order."""
        return tuple(self._updates)

    def increases(self) -> "UpdateBatch":
        """The sub-batch of weight increases."""
        return UpdateBatch(u for u in self._updates if u.kind is UpdateKind.INCREASE)

    def decreases(self) -> "UpdateBatch":
        """The sub-batch of weight decreases."""
        return UpdateBatch(u for u in self._updates if u.kind is UpdateKind.DECREASE)

    def reversed(self) -> "UpdateBatch":
        """The batch that restores every edge to its old weight (reverse order)."""
        return UpdateBatch(u.reversed() for u in reversed(self._updates))

    def coalesce(self, graph: Graph) -> "UpdateBatch":
        """Fold the batch into one *net* update per edge, in first-touch order.

        Applying a batch that touches the same edge several times must leave
        the edge at the weight of its **last** update, whatever the mix of
        increases and decreases in between.  Grouping by kind (all increases
        first, then all decreases) silently reorders such batches and lands on
        the wrong final weight; coalescing is the principled alternative: per
        edge, the whole update chain collapses to a single
        :class:`EdgeUpdate` whose ``old_weight`` is the edge's *current*
        weight in ``graph`` and whose ``new_weight`` is the chain's final
        weight.  The net update's :attr:`EdgeUpdate.kind` then classifies the
        overall effect (a NEUTRAL net update means the chain cancelled out).

        **Ordering guarantee:** the returned batch lists one net update per
        distinct edge in *first-seen* order -- the position of an edge's
        first touch in this batch -- regardless of how often or with which
        kinds the edge is touched later.  Downstream consumers rely on this
        being deterministic: :class:`repro.core.shard.ShardPlanner` splits
        the net batch into per-region sub-batches by iterating it in order,
        so a stable coalesce order is what makes shard plans (and the
        parallel schedule built from them) reproducible run to run.

        The chain is validated while folding: each update's ``old_weight``
        must match the previous update's ``new_weight`` (or the graph's
        current weight for the first touch), mirroring the validation of
        :meth:`EdgeUpdate.apply`.  Raises :class:`UpdateError` on mismatch.
        """
        pending: dict[tuple[int, int], EdgeUpdate] = {}
        order: list[tuple[int, int]] = []
        for update in self._updates:
            key = (update.u, update.v) if update.u < update.v else (update.v, update.u)
            prev = pending.get(key)
            if prev is None:
                expected_old = graph.weight(update.u, update.v)
            else:
                expected_old = prev.new_weight
            if update.old_weight != expected_old:
                raise UpdateError(
                    f"edge ({update.u}, {update.v}) has weight {expected_old}, "
                    f"update expected {update.old_weight}"
                )
            if prev is None:
                order.append(key)
                pending[key] = EdgeUpdate(update.u, update.v, expected_old, update.new_weight)
            else:
                pending[key] = EdgeUpdate(prev.u, prev.v, prev.old_weight, update.new_weight)
        return UpdateBatch(pending[key] for key in order)

    def apply(self, graph: Graph) -> None:
        """Apply every update in order to ``graph``."""
        for update in self._updates:
            update.apply(graph)

    def rollback(self, graph: Graph) -> None:
        """Undo every update (in reverse order) on ``graph``."""
        self.reversed().apply(graph)

    def edges(self) -> list[tuple[int, int]]:
        """The distinct edges touched by this batch, in first-touch order."""
        seen: set[tuple[int, int]] = set()
        ordered: list[tuple[int, int]] = []
        for update in self._updates:
            key = (update.u, update.v) if update.u < update.v else (update.v, update.u)
            if key not in seen:
                seen.add(key)
                ordered.append(key)
        return ordered
