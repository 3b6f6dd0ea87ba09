"""Pareto Search maintenance algorithms (Algorithms 3-5 of the paper).

Pareto Search is the *update-centric* maintenance strategy: instead of one
search per affected ancestor (Label Search), each edge update triggers exactly
two searches, one from each endpoint, that track whole *intervals* of
ancestor label indexes at once.

The technical obstacle is that labels store distances in nested subgraphs
``S_0 ⊇ S_1 ⊇ ...`` (one per ancestor level), so a path that is valid for a
low level may be invalid for a higher level.  The searches therefore carry a
Pareto-active interval ``[min, max]`` of levels: the interval's upper end is
capped by the label index of every vertex the path visits (so the path stays
inside the corresponding subgraphs), and its lower end is advanced past
levels that have already been processed at a smaller distance (``level(v)``
bookkeeping, Definition 5.11 / Example 5.13).

Contract (same as Label Search): the algorithms are called *before* the
weight change is applied to the graph; on return the graph and the labels
both reflect the new weights.

Implementation note (documented deviation): for weight increases the paper
interleaves each endpoint search with its repair (Algorithm 4 line 28).  We
run both searches on the unmodified labels first, then bump the collected
affected intervals by +Δ (the paper's upper bound, line 18) and run a single
combined repair (Algorithm 5).  This keeps the two-search structure and the
interval grouping while making correctness independent of the order of the
two searches; the tests verify equivalence against a from-scratch rebuild.

Each search exists once, here, and every engine runs it: the decrease's
search-and-repair is :func:`shared_frontier_relax`, the increase's mark is
:func:`interval_mark_search` and its bump-and-repair is
:meth:`ParetoSearchIncrease.land_and_repair`.  The per-update classes call
them with one update at a time; the batch engine
(:class:`repro.core.batch.BatchedParetoEngine`) and the sharded backends
(:mod:`repro.core.shard`, :mod:`repro.core.parallel`) with whole groups.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable, Sequence

from repro.core import kernels
from repro.core.label_search import (
    MaintenanceStats,
    _LabelSearchBase,
    _orient,
    on_old_shortest_path,
)
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.utils.errors import UpdateError

UNREACHABLE = math.inf


def interval_mark_search(
    adjacency,
    tau,
    labels,
    label_root,
    seeds,
    hits: dict[int, set[int]],
    counters: list[int],
    owned: set[int] | None = None,
    escapes: list[tuple[float, int, int, int]] | None = None,
) -> None:
    """The mark half of Algorithm 4 as a reusable kernel.

    This is the single implementation behind
    :meth:`ParetoSearchIncrease.mark_affected` (seeded with the updated
    edge, unconfined) and the process shard backend's confined worker marks
    plus escape settlement (:mod:`repro.core.parallel`).  ``seeds`` are heap
    entries ``(distance, interval_min, vertex, interval_max)``; ``hits``
    collects marked levels per vertex; ``counters`` is ``[heap_pushes,
    labels_changed, vertices_affected]`` (a plain list so worker processes
    can ship it back without pickling a stats object).

    ``adjacency``/``labels`` only need ``[]`` lookup, so the kernel runs on
    the live index and on per-region dict slices alike.  With ``owned``
    given, pushes that leave the owned set are appended to ``escapes`` --
    the exact entry the unconfined search would have pushed -- instead of
    followed.  Ties on distance are processed lowest-interval-first so the
    ``level(v)`` pruning never skips an unexamined level (see
    :func:`shared_frontier_relax`).

    On wide active intervals the through-the-edge test of each pop runs as
    one whole-row tolerance compare
    (:func:`repro.core.kernels.interval_hit_levels`) -- the same float64
    arithmetic as the scalar loop, so the marked level set is identical
    either way; short intervals (and non-buffer label rows, e.g. worker
    dict slices) keep the scalar loop.
    """
    level: dict[int, int] = {}
    heap: list[tuple[float, int, int, int]] = []
    for seed in seeds:
        heappush(heap, seed)
        counters[0] += 1

    while heap:
        d, active_min, v, active_max = heappop(heap)
        active_max = min(active_max, tau[v])
        active_min = max(active_min, level.get(v, 0))
        if active_min > active_max:
            continue
        level[v] = active_max + 1

        label_v = labels[v]
        new_min = -1
        new_max = -1
        hit_levels = kernels.interval_hit_levels(d, label_root, label_v, active_min, active_max)
        if hit_levels is not None:
            if hit_levels:
                new_min = hit_levels[0]
                new_max = hit_levels[-1]
        else:
            hit_levels = []
            for i in range(active_min, active_max + 1):
                root_dist = label_root[i]
                if math.isinf(root_dist) or math.isinf(label_v[i]):
                    continue
                if on_old_shortest_path(d + root_dist, label_v[i]):
                    hit_levels.append(i)
                    if new_min == -1:
                        new_min = i
                    new_max = i

        if new_min != -1:
            hits.setdefault(v, set()).update(hit_levels)
            for nbr, weight in adjacency[v]:
                if math.isinf(weight) or tau[nbr] < new_min:
                    continue
                entry = (d + weight, new_min, nbr, new_max)
                if owned is not None and nbr not in owned:
                    if escapes is not None:
                        escapes.append(entry)
                    continue
                heappush(heap, entry)
                counters[0] += 1


def shared_frontier_relax(
    adjacency,
    tau,
    labels,
    contexts,
    counters: list[int],
    owned: set[int] | None = None,
    escapes: list[tuple[int, float, int, int, int]] | None = None,
) -> None:
    """The search-and-repair of Algorithm 3 over explicit per-root contexts.

    The single implementation behind :class:`ParetoSearchDecrease` (one
    context per endpoint search, run one after the other),
    :func:`repro.core.batch.shared_frontier_decrease` (one context per
    decreased edge endpoint, all at once, unconfined) and the process shard
    backend's confined worker frontiers plus escape settlement
    (:mod:`repro.core.parallel`).  ``contexts`` is a sequence of ``(root,
    root_label, seeds)`` with seeds ``(distance, interval_min, vertex,
    interval_max)`` -- for an unconfined search, the updated edge ``root ->
    start`` at its new weight.  Because a decrease knows the new distance of
    a vertex the moment it is popped, entries are repaired on the fly
    (Algorithm 3, lines 15-20).

    All contexts share one frontier heap, each pop relaxing against its own
    root label and ``level()`` map, so repairs written by one context prune
    the candidates of every other.  Ties on distance are broken toward
    *smaller* interval minima: by Lemma 5.9 lower levels never have larger
    distances, so processing low intervals first guarantees that whenever
    ``level(v)`` skips past a level, that level has already been examined at
    a distance ``<= d`` -- which is what makes the single-scalar pruning
    safe.  Per-context pops arrive in nondecreasing distance order (a
    subsequence of a globally distance-ordered heap), which keeps it safe
    with many contexts too.

    ``counters`` is ``[heap_pushes, labels_changed, vertices_affected]``;
    ``adjacency``/``labels`` only need ``[]`` lookup.  With ``owned``
    given, frontier pushes leaving the owned set are recorded as
    ``(root, *entry)`` escapes instead of followed.  The loop binds its
    helpers and counters to locals: it is the per-update decrease's whole
    cost.
    """
    push = heappush
    pop = heappop
    isinf = math.isinf
    roots = [root for root, _, _ in contexts]
    root_labels = [label_root for _, label_root, _ in contexts]
    level_maps: list[dict[int, int]] = [{} for _ in contexts]
    heap: list[tuple[float, int, int, int, int]] = []
    pushes = changed = popped = 0
    for ctx, (_, _, seeds) in enumerate(contexts):
        for d, active_min, v, active_max in seeds:
            push(heap, (d, active_min, ctx, v, active_max))
            pushes += 1

    while heap:
        d, active_min, ctx, v, active_max = pop(heap)
        level = level_maps[ctx]
        tau_v = tau[v]
        if tau_v < active_max:
            active_max = tau_v
        active_min = max(active_min, level.get(v, 0))
        if active_min > active_max:
            continue
        level[v] = active_max + 1
        popped += 1

        label_root = root_labels[ctx]
        label_v = labels[v]
        new_min = -1
        new_max = -1
        for i in range(active_min, active_max + 1):
            root_dist = label_root[i]
            if isinf(root_dist):
                continue
            candidate = d + root_dist
            if candidate < label_v[i]:
                label_v[i] = candidate
                changed += 1
                if new_min == -1:
                    new_min = i
                new_max = i

        if new_min != -1:
            for nbr, weight in adjacency[v]:
                # A neighbour with tau < new_min would be discarded at pop
                # time anyway (its interval collapses past tau); skipping
                # the push keeps the queue small.
                if isinf(weight) or tau[nbr] < new_min:
                    continue
                if owned is not None and nbr not in owned:
                    if escapes is not None:
                        escapes.append((roots[ctx], d + weight, new_min, nbr, new_max))
                    continue
                push(heap, (d + weight, new_min, ctx, nbr, new_max))
                pushes += 1

    counters[0] += pushes
    counters[1] += changed
    counters[2] += popped


class ParetoSearchDecrease(_LabelSearchBase):
    """Algorithm 3: Pareto Search for edge-weight decreases.

    For an update ``(a, b, w_new)`` two interval searches run: one rooted at
    ``a`` (starting from ``b``) repairing entries via ``L(a)[i] + d``, and the
    symmetric one rooted at ``b``, each a :func:`shared_frontier_relax` with
    one context.  The constructor and update normalisation are Label
    Search's.
    """

    def apply(self, updates: Iterable[EdgeUpdate] | EdgeUpdate) -> MaintenanceStats:
        """Apply weight decreases one at a time (the paper's per-update form)."""
        stats = MaintenanceStats()
        for update in self._as_update_list(updates):
            if update.kind is UpdateKind.INCREASE:
                raise UpdateError(
                    "ParetoSearchDecrease received a weight increase on edge "
                    f"({update.u}, {update.v})"
                )
            stats.merge(self._apply_single(update))
        return stats

    def _apply_single(self, update: EdgeUpdate) -> MaintenanceStats:
        self.graph.set_weight(update.u, update.v, update.new_weight)
        tau = self.hierarchy.tau
        labels = self.labels
        adjacency = self.graph.adjacency()
        a, b = _orient(update, tau)
        rmin = min(tau[a], tau[b])
        counters = [0, 0, 0]
        # The search rooted at ``a`` (starting from ``b``), then the
        # symmetric one; each runs to completion before the next starts.
        for root, start in ((a, b), (b, a)):
            seeds = [(update.new_weight, 0, start, rmin)]
            shared_frontier_relax(adjacency, tau, labels, [(root, labels[root], seeds)], counters)
        return MaintenanceStats(
            updates_processed=1,
            heap_pushes=counters[0],
            labels_changed=counters[1],
            vertices_affected=counters[2],
        )


class ParetoSearchIncrease(_LabelSearchBase):
    """Algorithms 4-5: Pareto Search for edge-weight increases."""

    def apply(self, updates: Iterable[EdgeUpdate] | EdgeUpdate) -> MaintenanceStats:
        """Apply weight increases one at a time (the paper's per-update form)."""
        stats = MaintenanceStats()
        for update in self._as_update_list(updates):
            if update.kind is UpdateKind.DECREASE:
                raise UpdateError(
                    "ParetoSearchIncrease received a weight decrease on edge "
                    f"({update.u}, {update.v})"
                )
            stats.merge(self._apply_single(update))
        return stats

    def _apply_single(self, update: EdgeUpdate) -> MaintenanceStats:
        marks: dict[int, set[int]] = {}
        stats = self.mark_update(update, marks)
        stats.updates_processed = 1
        stats.merge(self.land_and_repair([(update, marks)]))
        return stats

    def mark_update(self, update: EdgeUpdate, marks: dict[int, set[int]]) -> MaintenanceStats:
        """Both endpoint mark searches of one increase, on the *old* weights.

        Follows old shortest paths through the updated edge from both
        endpoints (Algorithm 4) and unions the marked ``(vertex, level)``
        pairs into ``marks``.  Read-only on the graph and the labels.
        """
        a, b = _orient(update, self.hierarchy.tau)
        stats = self.mark_affected(a, b, update.old_weight, marks)
        stats.merge(self.mark_affected(b, a, update.old_weight, marks))
        return stats

    def land_and_repair(
        self, marked: Sequence[tuple[EdgeUpdate, dict[int, set[int]]]]
    ) -> MaintenanceStats:
        """Land a group of marked increases and restore exact labels.

        ``marked`` pairs each increase with the marks :meth:`mark_update`
        collected for it on the pre-group weights.  The marks merge, in
        ``marked`` order, into one ``{vertex: {level: bump}}`` map that sums
        the deltas of every update whose old shortest paths cross the entry
        -- a valid upper bound, since keeping any old shortest path costs its
        old length plus the deltas of the updated edges it uses.  Then the new
        weights land and :meth:`bump_and_repair` runs Algorithm 5 once.  The
        per-update search calls this with a one-update group; the batch
        engines with the whole batch, so that equal inputs sum their bumps in
        the same order and produce the same floats.
        """
        affected: dict[int, dict[int, float]] = {}
        for update, marks in marked:
            delta = update.new_weight - update.old_weight
            for v, levels in marks.items():
                row = affected.setdefault(v, {})
                for i in levels:
                    row[i] = row.get(i, 0.0) + delta
        for update, _ in marked:
            self.graph.set_weight(update.u, update.v, update.new_weight)
        stats = self.bump_and_repair(affected) if affected else MaintenanceStats()
        stats.vertices_affected += len(affected)
        return stats

    def mark_affected(
        self,
        root: int,
        start: int,
        phi_old: float,
        affected: dict[int, set[int]],
    ) -> MaintenanceStats:
        """Interval search over *old* shortest paths through the updated edge.

        Collects, per reached vertex, the exact set of ancestor levels whose
        label entry is realised by a path through the updated edge (the
        equality check of Algorithm 4, line 17); the search itself propagates
        the containing interval, as in the paper.  The body is the shared
        :func:`interval_mark_search` kernel, seeded with the updated edge.
        """
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        rmin = min(tau[root], tau[start])
        counters = [0, 0, 0]
        interval_mark_search(
            self.graph.adjacency(),
            tau,
            self.labels,
            self.labels[root],
            [(phi_old, 0, start, rmin)],
            affected,
            counters,
        )
        stats.heap_pushes += counters[0]
        return stats

    def bump_and_repair(self, affected: dict[int, dict[int, float]]) -> MaintenanceStats:
        """Algorithm 5: bump affected entries and repair them.

        ``affected`` maps each vertex to ``{level: bump}``, the upper-bound
        bump :meth:`land_and_repair` accumulated for the entry; the graph
        already carries the new weights.  The repair then restores entries
        whose true new distance is smaller than the bound.  The paper groups
        affected levels into intervals for cache locality -- a C++
        consideration; here the exact level sets are used directly, which
        produces the same labels with less Python-level work.
        """
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        labels = self.labels
        adjacency = self.graph.adjacency()

        # Upper-bound bump (Algorithm 4, line 18): a shortest path uses each
        # updated edge at most once, so old + accumulated delta bounds the
        # new distance.
        for v, bumps in affected.items():
            label_v = labels[v]
            for i, bump in bumps.items():
                if not math.isinf(label_v[i]):
                    label_v[i] += bump
                    stats.labels_changed += 1

        # Seed the repair queue from *all* neighbours (Algorithm 5, lines 2-6);
        # unaffected neighbours carry exact distances, affected ones carry
        # their upper bounds.
        heap: list[tuple[float, int, int]] = []
        for v, levels in affected.items():
            label_v = labels[v]
            for nbr, weight in adjacency[v]:
                if math.isinf(weight):
                    continue
                label_n = labels[nbr]
                tau_n = tau[nbr]
                for i in levels:
                    if i > tau_n:
                        continue
                    candidate = label_n[i] + weight
                    if candidate < label_v[i]:
                        heappush(heap, (candidate, v, i))
                        stats.heap_pushes += 1

        # Dijkstra-style repair restricted to the affected entries
        # (Algorithm 5, lines 7-12).
        while heap:
            d, v, i = heappop(heap)
            label_v = labels[v]
            if d >= label_v[i]:
                continue
            label_v[i] = d
            stats.labels_changed += 1
            for nbr, weight in adjacency[v]:
                if math.isinf(weight):
                    continue
                levels = affected.get(nbr)
                if levels is None or i not in levels or i > tau[nbr]:
                    continue
                candidate = d + weight
                if candidate < labels[nbr][i]:
                    heappush(heap, (candidate, nbr, i))
                    stats.heap_pushes += 1
        return stats
