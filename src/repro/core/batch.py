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
net update per edge, see :meth:`repro.graph.updates.UpdateBatch.coalesce`):

* **Increases** -- one shared mark phase runs every endpoint search on the
  unmodified graph and merges the affected ``(vertex, level)`` sets,
  accumulating per-entry bumps (the sum of the deltas of every update whose
  old shortest paths cross the entry -- a valid upper bound, since keeping
  any old shortest path costs its old length plus the deltas of the updated
  edges it uses).  All new weights are then applied at once and a *single*
  combined bump-and-repair (Algorithm 5) restores exact distances.
* **Decreases** -- all new weights are applied first, then every endpoint
  search runs on one *shared frontier*: a single priority queue interleaves
  the searches (each keeps its own ``level()`` pruning map, so per-context
  pops still arrive in nondecreasing distance order), and because decrease
  repairs are monotone toward the true distances, a repair made by one
  search immediately prunes the relaxations of every other.

Correctness of the decrease pass on the fully-decreased graph: a label entry
whose distance drops has a new shortest path that can be decomposed at its
decreased edge *closest to the ancestor*, ``v .. x -> y .. anc``, where the
suffix avoids decreased edges; the search context rooted at ``y`` relaxes the
entry with ``d(v .. x -> y) + L(y)[i]``, and ``L(y)[i]`` never exceeds the
suffix length (the suffix is old-valid) nor undershoots the true new
distance.  Tests verify both passes entry-wise against from-scratch rebuilds.

:class:`BatchPolicy` additionally decides *which* processing strategy a batch
deserves, by a three-way crossover on the net batch size:

* tiny batches run through the historical **per-update loop** -- the batch
  machinery has fixed costs that one or two updates never amortise,
* past a configurable fraction of affected edges a from-scratch label
  **rebuild** (the Figure 10 baseline) is cheaper than any maintenance,
* everything in between runs on the serial **batched Label Search** engine
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

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from repro.core.label_search import MaintenanceStats, _orient
from repro.core.labelling import STLLabels
from repro.core.pareto_search import ParetoSearchIncrease
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
    ``< batched_min_updates``    per-update loop (``apply_update``)
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
    batched_min_updates:
        Below this many net updates the batch machinery (precondition scan,
        kind partition, merged phases) costs more than it shares; the batch
        is processed through the plain per-update loop instead.
    max_workers:
        Worker-pool size for the sharded engines; ``None`` lets each engine
        size its pool to ``min(#shards, os.cpu_count())``.
    """

    rebuild_min_updates: int = 64
    rebuild_fraction: float | None = 0.04
    batched_min_updates: int = 3
    max_workers: int | None = None

    def should_rebuild(self, num_net_updates: int, num_edges: int) -> bool:
        """Whether a batch of ``num_net_updates`` warrants a full rebuild."""
        if self.rebuild_fraction is None:
            return False
        if num_net_updates < self.rebuild_min_updates:
            return False
        return num_net_updates > self.rebuild_fraction * max(1, num_edges)

    def should_loop(self, num_net_updates: int) -> bool:
        """Whether the batch is too small for the batch machinery."""
        return num_net_updates < self.batched_min_updates


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


def shared_frontier_relax(
    adjacency,
    tau,
    labels,
    contexts,
    counters: list[int],
    owned: set[int] | None = None,
    escapes: list[tuple[int, float, int, int, int]] | None = None,
) -> None:
    """Shared-frontier decrease relaxation over explicit per-root contexts.

    The single implementation behind :func:`shared_frontier_decrease`
    (contexts built from the decreased edges, unconfined) and the process
    shard backend's confined worker frontiers plus escape settlement
    (:mod:`repro.core.parallel`).  ``contexts`` is a sequence of
    ``(root, root_label, seeds)`` with seeds ``(distance, interval_min,
    vertex, interval_max)``; all contexts share one frontier heap, each pop
    relaxing against its own root label and ``level()`` map, so repairs
    written by one context prune the candidates of every other.
    Per-context pops still arrive in nondecreasing distance order (a
    subsequence of a globally distance-ordered heap), which keeps the
    ``level(v)`` pruning safe.

    ``counters`` is ``[heap_pushes, labels_changed, vertices_affected]``;
    ``adjacency``/``labels`` only need ``[]`` lookup.  With ``owned``
    given, frontier pushes leaving the owned set are recorded as
    ``(root, *entry)`` escapes instead of followed.
    """
    roots = [root for root, _, _ in contexts]
    root_labels = [label_root for _, label_root, _ in contexts]
    level_maps: list[dict[int, int]] = [{} for _ in contexts]
    heap: list[tuple[float, int, int, int, int]] = []
    for ctx, (_, _, seeds) in enumerate(contexts):
        for d, active_min, v, active_max in seeds:
            heappush(heap, (d, active_min, ctx, v, active_max))
            counters[0] += 1

    while heap:
        d, active_min, ctx, v, active_max = heappop(heap)
        level = level_maps[ctx]
        active_max = min(active_max, tau[v])
        active_min = max(active_min, level.get(v, 0))
        if active_min > active_max:
            continue
        level[v] = active_max + 1
        counters[2] += 1

        label_root = root_labels[ctx]
        label_v = labels[v]
        new_min = -1
        new_max = -1
        for i in range(active_min, active_max + 1):
            root_dist = label_root[i]
            if math.isinf(root_dist):
                continue
            candidate = d + root_dist
            if candidate < label_v[i]:
                label_v[i] = candidate
                counters[1] += 1
                if new_min == -1:
                    new_min = i
                new_max = i

        if new_min != -1:
            for nbr, weight in adjacency[v]:
                if math.isinf(weight) or tau[nbr] < new_min:
                    continue
                if owned is not None and nbr not in owned:
                    if escapes is not None:
                        escapes.append((roots[ctx], d + weight, new_min, nbr, new_max))
                    continue
                heappush(heap, (d + weight, new_min, ctx, nbr, new_max))
                counters[0] += 1


def shared_frontier_decrease(
    graph: Graph,
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    decreases: Sequence[EdgeUpdate],
    apply_weights: bool = True,
) -> MaintenanceStats:
    """All decrease endpoint searches on one shared frontier.

    This is the decrease half of :class:`BatchedParetoEngine`, exposed as a
    function so the sharded engine (:mod:`repro.core.shard`) can reuse it.
    ``apply_weights=False`` skips the weight application for callers that
    already put the new weights in place.  The search body is the shared
    :func:`shared_frontier_relax` kernel with one context per
    ``(root, start)`` endpoint pair.

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

    if apply_weights:
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
        increases = [u for u in updates if u.kind is UpdateKind.INCREASE]
        decreases = [u for u in updates if u.kind is UpdateKind.DECREASE]
        stats = MaintenanceStats(updates_processed=len(updates))
        if increases:
            stats.merge(self._apply_increases(increases))
        if decreases:
            stats.merge(self._apply_decreases(decreases))
        return stats

    # ------------------------------------------------------------------ #
    # Increases: merged mark phase + one combined bump-and-repair
    # ------------------------------------------------------------------ #

    def _apply_increases(self, increases: Sequence[EdgeUpdate]) -> MaintenanceStats:
        stats = MaintenanceStats()
        tau = self.hierarchy.tau

        # Mark phase: every endpoint search runs on the *old* graph and old
        # labels; per (vertex, level) the deltas of all marking updates
        # accumulate into one upper-bound bump.
        affected: dict[int, dict[int, float]] = {}
        for update in increases:
            a, b = _orient(update, tau)
            delta = update.new_weight - update.old_weight
            marks: dict[int, set[int]] = {}
            stats.merge(self._increase.mark_affected(a, b, update.old_weight, marks))
            stats.merge(self._increase.mark_affected(b, a, update.old_weight, marks))
            for v, levels in marks.items():
                row = affected.setdefault(v, {})
                for i in levels:
                    row[i] = row.get(i, 0.0) + delta
        stats.vertices_affected += len(affected)

        for update in increases:
            self.graph.set_weight(update.u, update.v, update.new_weight)
        if affected:
            stats.merge(self._increase.bump_and_repair(affected))
        return stats

    # ------------------------------------------------------------------ #
    # Decreases: all endpoint searches on one shared frontier
    # ------------------------------------------------------------------ #

    def _apply_decreases(self, decreases: Sequence[EdgeUpdate]) -> MaintenanceStats:
        return shared_frontier_decrease(self.graph, self.hierarchy, self.labels, decreases)
