"""Batched Pareto Search maintenance (the paper's Figure 10 batch regime).

The per-update Pareto Search algorithms (:mod:`repro.core.pareto_search`) run
two interval searches per update.  For the batch workloads of the evaluation
(Figure 10: groups of hundreds of updates) that wastes work twice over:

* overlapping updates re-explore the same regions -- the affected
  ``(vertex, level)`` sets of nearby updates largely coincide, and
* every update pays its own repair phase even though the repairs are
  Dijkstra searches over the *same* labels.

:class:`BatchedParetoEngine` lifts the sharing that Label Search's per-index
queues already exploit (see :mod:`repro.core.label_search`) into the
update-centric Pareto structure, for a batch of **coalesced** updates (one
net update per edge, see :meth:`repro.graph.updates.UpdateBatch.coalesce`).
It runs the per-update searches' own code; only the grouping differs:

* **Increases** -- every update's mark phase
  (:meth:`~repro.core.pareto_search.ParetoSearchIncrease.mark_update`) runs
  on the unmodified graph, then one
  :meth:`~repro.core.pareto_search.ParetoSearchIncrease.land_and_repair`
  merges the marks into per-entry bumps (the sum of the deltas of every
  update whose old shortest paths cross the entry), applies all new weights
  at once and runs a *single* combined bump-and-repair (Algorithm 5).
* **Decreases** -- all new weights are applied first, then every endpoint
  search runs on one *shared frontier*
  (:func:`~repro.core.pareto_search.shared_frontier_relax` with one context
  per endpoint): a single priority queue interleaves the searches (each
  keeps its own ``level()`` pruning map, so per-context pops still arrive in
  nondecreasing distance order), and because decrease repairs are monotone
  toward the true distances, a repair made by one search immediately prunes
  the relaxations of every other.

Correctness of the decrease pass on the fully-decreased graph: a label entry
whose distance drops has a new shortest path that can be decomposed at its
decreased edge *closest to the ancestor*, ``v .. x -> y .. anc``, where the
suffix avoids decreased edges; the search context rooted at ``y`` relaxes the
entry with ``d(v .. x -> y) + L(y)[i]``, and ``L(y)[i]`` never exceeds the
suffix length (the suffix is old-valid) nor undershoots the true new
distance.  Tests verify both passes entry-wise against from-scratch rebuilds.

:class:`BatchPolicy` additionally decides *which* processing strategy a batch
deserves, by one crossover on the net batch size:

* past a configurable fraction of affected edges a from-scratch label
  **rebuild** (the Figure 10 baseline) is cheaper than any maintenance,
* every smaller batch, down to a single update, runs on the serial
  **batched Label Search** engine
  (:class:`repro.core.batch_label_search.BatchedLabelSearchEngine`), the
  one cell of the engine x backend matrix that has won a committed
  measurement at every batch size.

The Pareto batch engine above and the sharded worker-pool backends
(:class:`repro.core.shard.ShardedBatchEngine`,
:class:`repro.core.parallel.ProcessShardBackend`) run only when a caller
names them in an :class:`repro.core.config.STLConfig`.

:meth:`repro.core.stl.StableTreeLabelling.apply_batch` consults the policy
and dispatches accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.label_search import MaintenanceStats, _orient
from repro.core.labelling import STLLabels
from repro.core.pareto_search import ParetoSearchIncrease, shared_frontier_relax
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.hierarchy.tree import StableTreeHierarchy
from repro.utils.errors import ConfigError, UpdateError


#: The engine names ``STLConfig(engine=...)`` accepts (sorted for the
#: error message of :func:`normalize_engine`).
ENGINE_NAMES = ("label_search", "pareto")


def normalize_engine(engine: str | None) -> str | None:
    """Map an ``STLConfig(engine=...)`` value to an engine name.

    ``None`` means "batched Label Search" and is returned unchanged; the
    explicit names ``"pareto"`` / ``"label_search"`` select a batch engine
    directly.
    Anything else raises :class:`repro.utils.errors.ConfigError` (a
    :class:`ValueError` subclass) naming the allowed set.
    """
    if engine is None:
        return None
    if isinstance(engine, str) and engine in ENGINE_NAMES:
        return engine
    allowed = ", ".join(repr(name) for name in ENGINE_NAMES)
    raise ConfigError(
        f"unknown batch engine {engine!r}; allowed engines: {allowed} (or None)"
    )


@dataclass
class BatchPolicy:
    """Knobs governing how a batch of updates is processed.

    The policy is keyed on the *net* (coalesced) batch size alone:

    ===========================  =====================================
    net batch size               strategy
    ===========================  =====================================
    ``> rebuild_fraction * m``   in-place label rebuild (and at least
                                 ``rebuild_min_updates``)
    everything else              serial batched Label Search
                                 (``label_search/serial``; vector kernels
                                 with numpy, scalar without)
    ===========================  =====================================

    The sharded backends are reached only through an explicit
    ``STLConfig(backend="thread"/"process")``, which bypasses the policy.

    Attributes
    ----------
    rebuild_min_updates:
        Never fall back to a rebuild for batches with fewer net updates than
        this; small batches are always cheaper to maintain incrementally.
    rebuild_fraction:
        Fall back to a from-scratch label rebuild when the number of net
        (coalesced) updates exceeds this fraction of the graph's edges.
        ``None`` disables the fallback entirely (the engine always runs).
        The default sits at the measured crossover.  On the 10k-vertex
        highway grid (19,526 edges; 2-CPU x86 container, Python 3.11,
        numpy 2.4), a batch doubling random edges and its reversal took
        (rising / falling seconds; the rebuild is the relax build):

        =======  ===========  ===========
        batch    maintain     rebuild
        =======  ===========  ===========
        300      1.08 / 0.31  1.20 / 1.17
        600      1.61 / 0.45  1.20 / 1.17
        750      1.75 / 0.59  1.21 / 1.15
        900      1.87 / 1.04  1.23 / 1.26
        1,200    1.76 / 1.01  1.20 / 1.30
        2,400    2.84 / 1.82  1.41 / 1.20
        4,800    2.93 / 2.51  1.04 / 0.93
        =======  ===========  ===========

        Two more seeds moved cells by up to 0.3 s and kept the pair
        crossover between 600 and 900 updates (a tie at 750, 3.8% of the
        edges), so the default is 4% (781 updates there).  Rush-hour
        congestion batches are more local than random ones and maintain
        cheaper, so their 601-update class still maintains.
    max_workers:
        Worker-pool size for the sharded engines; ``None`` lets each engine
        size its pool to ``min(#shards, os.cpu_count())``.
    """

    rebuild_min_updates: int = 64
    rebuild_fraction: float | None = 0.04
    max_workers: int | None = None

    def should_rebuild(self, num_net_updates: int, num_edges: int) -> bool:
        """Whether a batch of ``num_net_updates`` warrants a full rebuild."""
        if self.rebuild_fraction is None:
            return False
        if num_net_updates < self.rebuild_min_updates:
            return False
        return num_net_updates > self.rebuild_fraction * max(1, num_edges)


def validate_coalesced(graph: Graph, updates: Sequence[EdgeUpdate]) -> None:
    """Enforce the coalesced-batch precondition shared by the batch engines.

    Raises :class:`UpdateError` if an edge appears more than once (the
    kind-partitioned processing would silently reorder such a chain -- the
    very corruption coalescing exists to fix) or if an update's
    ``old_weight`` does not match the live graph (a stale ``old_weight``
    mis-scopes the mark phase and mis-classifies the net kind, again
    silently).  :meth:`repro.graph.updates.UpdateBatch.coalesce` establishes
    both preconditions.
    """
    seen: set[tuple[int, int]] = set()
    for update in updates:
        key = (update.u, update.v) if update.u < update.v else (update.v, update.u)
        if key in seen:
            raise UpdateError(
                f"a coalesced batch is required, but edge ({update.u}, "
                f"{update.v}) appears more than once; fold the batch with "
                "UpdateBatch.coalesce first"
            )
        seen.add(key)
        current = graph.weight(update.u, update.v)
        if current != update.old_weight:
            raise UpdateError(
                f"edge ({update.u}, {update.v}) has weight {current}, "
                f"update expected {update.old_weight}"
            )


def shared_frontier_decrease(
    graph: Graph,
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    decreases: Sequence[EdgeUpdate],
) -> MaintenanceStats:
    """All decrease endpoint searches on one shared frontier.

    This is the decrease half of :class:`BatchedParetoEngine`, exposed as a
    function so the sharded engine (:mod:`repro.core.shard`) can reuse it.
    It lands the new weights first.  The search body is Algorithm 3's
    :func:`repro.core.pareto_search.shared_frontier_relax` with one context
    per ``(root, start)`` endpoint pair, all on one frontier.

    Correctness requires the **pre-decrease label state**: the decomposition
    argument in the module docstring leans on every still-unrepaired entry
    being realised by an old-valid path.  The pass is *not* exact from
    half-repaired intermediate states -- propagation is improvement-gated
    (no push without a label improvement), so an entry left stale behind
    already-exact neighbours is never reached.  Callers must therefore run
    this exactly once per batch of decreases, on labels that are exact for
    the pre-decrease graph.
    """
    stats = MaintenanceStats()
    tau = hierarchy.tau

    for update in decreases:
        graph.set_weight(update.u, update.v, update.new_weight)

    contexts: list[tuple[int, list[float], list[tuple[float, int, int, int]]]] = []
    for update in decreases:
        a, b = _orient(update, tau)
        phi = update.new_weight
        rmin = min(tau[a], tau[b])
        for root, start in ((a, b), (b, a)):
            contexts.append((root, labels[root], [(phi, 0, start, rmin)]))

    counters = [0, 0, 0]
    shared_frontier_relax(graph.adjacency(), tau, labels, contexts, counters)
    stats.heap_pushes += counters[0]
    stats.labels_changed += counters[1]
    stats.vertices_affected += counters[2]
    return stats


class BatchedParetoEngine:
    """Shared-phase Pareto Search over a coalesced batch of updates."""

    def __init__(self, graph: Graph, hierarchy: StableTreeHierarchy, labels: STLLabels):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels
        # Reuses the per-update engine's mark and bump-and-repair phases; the
        # batching is in how their inputs are merged, not in the searches.
        self._increase = ParetoSearchIncrease(graph, hierarchy, labels)

    def apply(self, updates: Sequence[EdgeUpdate]) -> MaintenanceStats:
        """Apply one coalesced batch (at most one net update per edge).

        Net increases are processed first (their mark phase must see the
        pre-batch weights), then net decreases on the increased graph; the
        two groups touch disjoint edges, so the decreases' recorded old
        weights stay valid.  NEUTRAL net updates change nothing but are
        counted as processed.

        Raises :class:`UpdateError` if an edge appears more than once (the
        kind-partitioned processing below would silently reorder such a
        chain -- the very corruption coalescing exists to fix) or if an
        update's ``old_weight`` does not match the live graph (a stale
        ``old_weight`` mis-scopes the mark phase and mis-classifies the net
        kind, again silently).  ``UpdateBatch.coalesce`` establishes both
        preconditions.
        """
        validate_coalesced(self.graph, updates)
        stats = MaintenanceStats(updates_processed=len(updates))
        # Increases: every mark phase runs on the *old* graph and labels,
        # then one combined land-and-repair over the whole group.
        marked: list[tuple[EdgeUpdate, dict[int, set[int]]]] = []
        for update in updates:
            if update.kind is UpdateKind.INCREASE:
                marks: dict[int, set[int]] = {}
                stats.merge(self._increase.mark_update(update, marks))
                marked.append((update, marks))
        stats.merge(self._increase.land_and_repair(marked))
        # Decreases: all endpoint searches on one shared frontier.
        decreases = [u for u in updates if u.kind is UpdateKind.DECREASE]
        if decreases:
            stats.merge(
                shared_frontier_decrease(self.graph, self.hierarchy, self.labels, decreases)
            )
        return stats
