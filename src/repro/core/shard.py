"""Sharded parallel batch maintenance: partition-aware planning + worker pool.

:mod:`repro.core.batch` processes a coalesced batch through *shared* mark /
repair phases, but still as one single-threaded pass.  This module splits
that pass along the same structural seams the stable tree hierarchy itself is
built from -- balanced vertex separators (:mod:`repro.partition`):

* :class:`ShardPlanner` bisects the graph's vertex set (recursively, with a
  :class:`repro.partition.bisection.Bisector`) into ``num_shards`` disjoint
  *regions* plus the accumulated separator vertices.  A coalesced batch is
  then split into per-region sub-batches -- an update goes to region ``k``
  when **both** endpoints lie strictly inside region ``k`` -- and a
  *residual* sub-batch holding every separator-touching or region-crossing
  update.  Because :meth:`repro.graph.updates.UpdateBatch.coalesce`
  preserves first-seen edge order and regions are computed once from the
  weight-independent topology, planning is deterministic.
* :class:`ShardedBatchEngine` fans the per-region sub-batches' *read-only*
  work out to a :class:`concurrent.futures.ThreadPoolExecutor`, runs every
  label-writing phase serially, and applies the residual sub-batch serially
  last.

**Equivalence guarantee.**  The engine produces labels entry-wise equal to
what the single-threaded :class:`repro.core.batch.BatchedParetoEngine` (and a
from-scratch rebuild) produces, by construction rather than by scheduling
luck -- concurrency is only ever applied to phases that cannot race:

* *Increases* -- the per-update mark phase is read-only on the graph and the
  labels, so the shards' mark searches run concurrently without any
  synchronisation.  The per-update ``(delta, marks)`` results are then merged
  **in the original coalesced batch order** -- reproducing the serial
  engine's bump accumulation float-for-float -- and a single serial combined
  bump-and-repair (Algorithm 5) finishes exactly as the serial engine would.
* *Decreases* -- one serial shared-frontier pass over all shard decreases,
  identical to the serial engine's decrease half.  Concurrent in-place
  decrease repairs are deliberately **not** attempted: the shared frontier's
  correctness proof starts from the pre-decrease label state (every
  still-unrepaired entry realised by an old-valid path), and from a
  half-repaired state an entry can be stranded behind already-exact
  neighbours -- propagation is improvement-gated, so no later pass would
  reach it (see :meth:`ShardedBatchEngine._apply_decreases`).
* *Residual* -- the region-crossing updates run through the serial
  :class:`BatchedParetoEngine` last, on labels that are exact for the
  mid-batch graph; serial composition of exact engines is exact.

A note on parallelism in CPython: the thread pool provides *concurrency*,
not bytecode-level parallelism, under the GIL, and only the read-only mark
fan-out uses it.  The design's durable value is the plan itself: per-shard
search frontiers only interact through the separator, which is what the
*process* backend exploits -- :class:`repro.core.parallel.ProcessShardBackend`
gives each worker process exclusive ownership of its regions' label rows and
runs whole shard sub-batches (decreases included) in true parallel on the
same plan.  Every engine reports plan quality (``shards``,
``sharded_updates``, ``residual_updates``) in its stats.

The three engines sit behind one :class:`ShardBackend` protocol (``serial`` /
``thread`` / ``process``), created by :func:`create_backend` and selected on
:meth:`repro.core.stl.StableTreeLabelling.apply_batch` via
``STLConfig.backend`` (validated by :func:`normalize_backend`).  Each backend runs either
batch *engine* -- the Pareto phases above, or batched Label Search
(:mod:`repro.core.batch_label_search`), whose per-label-index queues shard
under the same ownership model with confined drains and escape records
(:meth:`ShardedBatchEngine._apply_label_search`); the ``engine`` argument of
:meth:`ShardBackend.apply` picks per batch.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from repro.core.batch import (
    BatchedParetoEngine,
    shared_frontier_decrease,
    validate_coalesced,
)
from repro.core.batch_label_search import BatchedLabelSearchEngine, merge_affected_sets
from repro.core.label_search import (
    LabelSearchEscape,
    MaintenanceStats,
    drain_affected_queues,
    drain_decrease_queues,
    queues_from_escapes,
    repair_affected_entries,
    seed_affected_queues,
    seed_decrease_queues,
)
from repro.core.labelling import STLLabels
from repro.core.pareto_search import ParetoSearchIncrease
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, UpdateKind
from repro.hierarchy.tree import StableTreeHierarchy
from repro.partition.bisection import Bisector, HybridBisector
from repro.utils.errors import ConfigError


def default_num_shards() -> int:
    """Default shard count: one per core, clamped to a useful range."""
    return max(2, min(8, os.cpu_count() or 2))


#: The backend names ``STLConfig(backend=...)`` accepts (sorted for the
#: error message of :func:`normalize_backend`).
SHARD_BACKEND_NAMES = ("process", "serial", "thread")


def normalize_backend(backend: str | None) -> str | None:
    """Validate an ``STLConfig(backend=...)`` value.

    ``None`` (the policy decides; it never shards) and the names
    ``"serial"`` / ``"thread"`` / ``"process"`` are returned unchanged.
    Anything else -- booleans included -- raises
    :class:`repro.utils.errors.ConfigError` (a :class:`ValueError`
    subclass) naming the allowed set.
    """
    if backend is None or (isinstance(backend, str) and backend in SHARD_BACKEND_NAMES):
        return backend
    allowed = ", ".join(repr(name) for name in SHARD_BACKEND_NAMES)
    raise ConfigError(
        f"unknown shard backend {backend!r}; allowed backends: {allowed} (or None)"
    )


@runtime_checkable
class ShardBackend(Protocol):
    """The surface every sharded-batch backend exposes.

    Implementations: :class:`SerialShardBackend` (no pool -- the batched
    engines behind the backend interface), :class:`ShardedBatchEngine`
    (thread pool, concurrent read-only marks) and
    :class:`repro.core.parallel.ProcessShardBackend` (process pool,
    partitioned label ownership).  All three take a **coalesced** batch,
    run it through the requested batch ``engine`` (``"pareto"`` or
    ``"label_search"``; any engine composes with any backend) and leave
    labels entry-wise equal to that engine's serial result.
    """

    name: str
    planner: "ShardPlanner"

    def apply(
        self,
        updates: Sequence[EdgeUpdate],
        max_workers: int | None = None,
        engine: str = "pareto",
    ) -> MaintenanceStats:
        """Apply one coalesced batch."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release pool resources (idempotent; trivial for poolless backends)."""
        ...  # pragma: no cover - protocol


@dataclass
class ShardPlan:
    """A coalesced batch split into per-region sub-batches plus a residual.

    Attributes
    ----------
    shards:
        One :class:`UpdateBatch` per planner region (index-aligned with
        :attr:`regions`); possibly empty.  Updates keep their first-seen
        coalesced order within each shard.
    residual:
        The sub-batch of separator-touching and region-crossing updates,
        applied serially after the shards.
    regions:
        The planner's disjoint vertex regions.
    separator:
        The accumulated separator vertices (in no region).
    """

    shards: list[UpdateBatch]
    residual: UpdateBatch
    regions: list[list[int]] = field(default_factory=list)
    separator: list[int] = field(default_factory=list)

    @property
    def num_updates(self) -> int:
        """Total number of planned (net) updates, residual included."""
        return sum(len(s) for s in self.shards) + len(self.residual)

    @property
    def sharded_updates(self) -> int:
        """Number of updates that landed in per-region shards."""
        return sum(len(s) for s in self.shards)

    @property
    def populated_shards(self) -> int:
        """Number of non-empty per-region sub-batches."""
        return sum(1 for s in self.shards if len(s))

    @property
    def balance(self) -> float:
        """Fraction of the net updates that avoid the serial residual shard.

        A plan where most updates cross the separator degenerates into the
        serial engine plus overhead.
        """
        total = self.num_updates
        if total == 0:
            return 0.0
        return self.sharded_updates / total


class ShardPlanner:
    """Partition-aware splitter of coalesced batches into shard sub-batches.

    The planner bisects the graph's vertex set with a
    :class:`repro.partition.bisection.Bisector` (default
    :class:`~repro.partition.bisection.HybridBisector`, the same family the
    hierarchy builder uses), recursively splitting the largest region until
    ``num_shards`` regions exist.  Separator vertices collect into a shared
    residual set.  Regions depend only on the graph *topology*, which edge
    weight updates never change, so they are computed once and reused for
    every batch.
    """

    def __init__(
        self,
        graph: Graph,
        num_shards: int | None = None,
        bisector: Bisector | None = None,
    ):
        if num_shards is not None and num_shards < 2:
            raise ValueError(f"num_shards must be at least 2, got {num_shards}")
        self.graph = graph
        self.num_shards = num_shards or default_num_shards()
        self.bisector = bisector or HybridBisector()
        self._region_of: list[int] | None = None
        self._regions: list[list[int]] | None = None
        self._separator: list[int] | None = None

    # ------------------------------------------------------------------ #
    # Region computation (lazy, topology-only, cached)
    # ------------------------------------------------------------------ #

    def regions(self) -> tuple[list[list[int]], list[int]]:
        """The planner's disjoint vertex regions and the separator set."""
        if self._regions is None:
            self._compute_regions()
        assert self._regions is not None and self._separator is not None
        return self._regions, self._separator

    def _compute_regions(self) -> None:
        graph = self.graph
        separator: list[int] = []
        # (splittable, region) work list; repeatedly bisect the largest
        # still-splittable region until the target count is reached.
        regions: list[tuple[bool, list[int]]] = [(True, list(range(graph.num_vertices)))]
        while len(regions) < self.num_shards and any(s for s, _ in regions):
            regions.sort(key=lambda item: (item[0], len(item[1])))
            splittable, region = regions.pop()
            if not splittable or len(region) < 2:
                regions.append((False, region))
                break
            bisection = self.bisector.bisect(graph, region)
            separator.extend(bisection.separator)
            halves = [h for h in (bisection.left, bisection.right) if h]
            if len(halves) < 2:
                # The region would not split (e.g. a clique fully absorbed
                # into the separator); keep what remains as unsplittable.
                regions.extend((False, h) for h in halves)
                continue
            regions.extend((True, h) for h in halves)
        self._regions = [sorted(region) for _, region in regions if region]
        self._separator = sorted(separator)
        region_of = [-1] * graph.num_vertices
        for rid, region in enumerate(self._regions):
            for v in region:
                region_of[v] = rid
        self._region_of = region_of

    # ------------------------------------------------------------------ #
    # Batch splitting
    # ------------------------------------------------------------------ #

    def plan(self, batch: Sequence[EdgeUpdate] | UpdateBatch) -> ShardPlan:
        """Split a coalesced batch into per-region sub-batches + residual.

        An update is *internal* to region ``k`` when both endpoints have
        ``region_of == k`` (separator vertices have no region); every other
        update -- separator-touching or region-crossing -- lands in the
        residual.  Iteration order is the batch's own order, so sub-batches
        inherit the deterministic first-seen ordering of
        :meth:`repro.graph.updates.UpdateBatch.coalesce`.
        """
        regions, separator = self.regions()
        region_of = self._region_of
        assert region_of is not None
        shards = [UpdateBatch() for _ in regions]
        residual = UpdateBatch()
        for update in batch:
            ru = region_of[update.u]
            rv = region_of[update.v]
            if ru != -1 and ru == rv:
                shards[ru].append(update)
            else:
                residual.append(update)
        return ShardPlan(
            shards=shards, residual=residual, regions=regions, separator=separator
        )


class ShardedBatchEngine:
    """Thread-pool batch maintenance over a shard plan (backend ``thread``).

    See the module docstring for the phase structure and the equivalence
    argument.  The engine degrades gracefully: a plan with fewer than two
    populated shards (e.g. a batch that is 100% separator-crossing) is
    handed wholesale to the serial :class:`BatchedParetoEngine`.
    """

    name = "thread"

    def __init__(
        self,
        graph: Graph,
        hierarchy: StableTreeHierarchy,
        labels: STLLabels,
        planner: ShardPlanner | None = None,
        max_workers: int | None = None,
    ):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels
        self.planner = planner or ShardPlanner(graph)
        self.max_workers = max_workers
        self._serial = BatchedParetoEngine(graph, hierarchy, labels)
        self._serial_ls = BatchedLabelSearchEngine(graph, hierarchy, labels)
        self._increase = ParetoSearchIncrease(graph, hierarchy, labels)

    def close(self) -> None:
        """Nothing to release: the thread pool is per-:meth:`apply` call."""

    def _serial_engine(self, engine: str):
        return self._serial_ls if engine == "label_search" else self._serial

    def apply(
        self,
        updates: Sequence[EdgeUpdate],
        max_workers: int | None = None,
        engine: str = "pareto",
    ) -> MaintenanceStats:
        """Apply one coalesced batch through the sharded phases.

        :attr:`planner` plans the batch.  ``engine`` selects the batch
        engine family the phases decompose (``"pareto"`` or
        ``"label_search"``).  Raises
        :class:`repro.utils.errors.UpdateError` on non-coalesced input
        (same precondition as the serial engines).
        """
        validate_coalesced(self.graph, updates)
        plan = self.planner.plan(updates)
        stats = MaintenanceStats(updates_processed=len(updates))
        stats.extra["shards"] = plan.populated_shards
        stats.extra["sharded_updates"] = plan.sharded_updates
        stats.extra["residual_updates"] = len(plan.residual)
        serial = self._serial_engine(engine)

        if plan.populated_shards < 2:
            # Degenerate plan (everything separator-crossing, or a single
            # populated region): the pool cannot help, run serially.
            serial_stats = serial.apply(updates)
            serial_stats.updates_processed = 0  # already counted above
            stats.merge(serial_stats)
            return stats

        shard_increases = [
            [u for u in shard if u.kind is UpdateKind.INCREASE] for shard in plan.shards
        ]
        shard_decreases = [
            [u for u in shard if u.kind is UpdateKind.DECREASE] for shard in plan.shards
        ]
        workers = max_workers or self.max_workers or min(
            plan.populated_shards, os.cpu_count() or 1
        )
        if engine == "label_search":
            stats.merge(
                self._apply_label_search(plan, shard_increases, shard_decreases, workers)
            )
        else:
            # The original coalesced order of the sharded increases; merging
            # the concurrent mark results in this order reproduces the serial
            # engine's bump accumulation float-for-float.
            sharded_edges = {
                (u.u, u.v) if u.u < u.v else (u.v, u.u)
                for shard in plan.shards
                for u in shard
            }
            increase_order = [
                u
                for u in updates
                if u.kind is UpdateKind.INCREASE
                and ((u.u, u.v) if u.u < u.v else (u.v, u.u)) in sharded_edges
            ]
            if any(shard_increases):
                with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
                    stats.merge(
                        self._apply_increases(pool, shard_increases, increase_order)
                    )
            if any(shard_decreases):
                stats.merge(self._apply_decreases(shard_decreases))
        if len(plan.residual):
            residual_stats = serial.apply(plan.residual.updates)
            residual_stats.updates_processed = 0  # already counted above
            stats.merge(residual_stats)
        return stats

    # ------------------------------------------------------------------ #
    # Increases: concurrent read-only marks, ordered merge, serial repair
    # ------------------------------------------------------------------ #

    def _mark_shard(
        self, increases: Sequence[EdgeUpdate], stats: MaintenanceStats
    ) -> dict[tuple[int, int], dict[int, set[int]]]:
        """Worker body: mark phases for one shard's increases (read-only).

        Runs on the unmodified graph and labels, so any number of these can
        run concurrently; ``stats`` is this worker's private counter object.
        Returns per-edge marks so the caller can merge them in the original
        batch order.
        """
        results: dict[tuple[int, int], dict[int, set[int]]] = {}
        for update in increases:
            marks: dict[int, set[int]] = {}
            stats.merge(self._increase.mark_update(update, marks))
            key = (update.u, update.v) if update.u < update.v else (update.v, update.u)
            results[key] = marks
        return results

    def _apply_increases(
        self,
        pool: ThreadPoolExecutor,
        shard_increases: list[list[EdgeUpdate]],
        increase_order: list[EdgeUpdate],
    ) -> MaintenanceStats:
        stats = MaintenanceStats()
        per_shard_stats = [MaintenanceStats() for _ in shard_increases]
        futures = [
            pool.submit(self._mark_shard, incs, per_shard_stats[k])
            for k, incs in enumerate(shard_increases)
            if incs
        ]
        marks_by_edge: dict[tuple[int, int], dict[int, set[int]]] = {}
        for future in futures:
            marks_by_edge.update(future.result())
        for local in per_shard_stats:
            stats.merge(local)

        # Land the marks *in the original batch order*, reproducing
        # BatchedParetoEngine exactly (same accumulation order means
        # bit-identical bump floats).
        marked = [
            (u, marks_by_edge[(u.u, u.v) if u.u < u.v else (u.v, u.u)]) for u in increase_order
        ]
        stats.merge(self._increase.land_and_repair(marked))
        return stats

    # ------------------------------------------------------------------ #
    # Decreases: one serial shared frontier (deliberately not pooled)
    # ------------------------------------------------------------------ #

    def _apply_decreases(self, shard_decreases: list[list[EdgeUpdate]]) -> MaintenanceStats:
        """One serial shared-frontier pass over all shard decreases.

        Deliberately *not* fanned out to the pool.  An earlier design ran
        per-shard frontiers concurrently with in-place label writes plus a
        serial "settle" pass afterwards; that is unsound: the shared
        frontier's correctness proof starts from the *pre-decrease* label
        state, where every still-unrepaired entry is realised by an
        old-valid path.  From a half-repaired intermediate state an entry
        can be stranded *behind already-exact neighbours* -- propagation is
        improvement-gated, so the frontier dies before reaching it and no
        later pass re-fires it -- and the unlocked check-then-write pair
        adds a lost-update race that manufactures exactly such states.
        Keeping the decrease pass serial keeps the engine inside the proof.
        The shard split still pays off: per-shard frontiers only interact
        through the separator, which is what a process-pool backend with
        partitioned label ownership would exploit (see ROADMAP).
        """
        all_decreases = [u for shard in shard_decreases for u in shard]
        return shared_frontier_decrease(
            self.graph, self.hierarchy, self.labels, all_decreases
        )

    # ------------------------------------------------------------------ #
    # Label Search: confined per-shard queue drains + serial settlement
    # ------------------------------------------------------------------ #

    def _apply_label_search(
        self,
        plan: ShardPlan,
        shard_increases: list[list[EdgeUpdate]],
        shard_decreases: list[list[EdgeUpdate]],
        workers: int,
    ) -> MaintenanceStats:
        """Sharded Label Search over the plan's per-region sub-batches.

        The same confinement/escape scheme the process backend runs
        (:mod:`repro.core.parallel`), in-process:

        * *Phase 1* (per shard, concurrent) -- seed + drain the per-index
          affected queues confined to the shard's region; the phase is
          read-only on labels, and a frontier step crossing the separator
          becomes a :data:`repro.core.label_search.LabelSearchEscape`.  The
          merged affected sets plus one unconfined settle drain over the
          escapes reproduce the global phase-1 result, after which the
          weights land and one serial per-index repair finishes the half.
        * *Decreases* (per shard, concurrent) -- after all new weights are
          applied, each shard seeds and drains its per-index decrease
          queues, writing **only its own region's rows** (escapes are
          recorded unconditionally rather than gated on an unowned-row
          read); a final unconfined settle drain follows the crossings.
          Unlike the Pareto shared frontier (see
          :meth:`_apply_decreases`), the per-index drain is plain
          improvement-gated relaxation per label index: every write is a
          genuine path length, confined drains replay exactly the chains
          inside their region, and a chain pruned by a better write is
          covered by that write's own continuations or escapes -- so the
          settle pass reaches the same fixpoint as the serial drain.
        """
        tau = self.hierarchy.tau
        labels = self.labels
        stats = MaintenanceStats()
        counters = [0, 0, 0]

        if any(shard_increases):
            adjacency = self.graph.adjacency()

            def mark_shard(
                rid: int,
            ) -> tuple[dict[int, set[int]], list[LabelSearchEscape], list[int]]:
                local_counters = [0, 0, 0]
                queues: dict[int, list[tuple[float, int]]] = {}
                seed_affected_queues(
                    tau, labels, shard_increases[rid], queues, local_counters
                )
                local_affected: dict[int, set[int]] = {}
                local_escapes: list[LabelSearchEscape] = []
                drain_affected_queues(
                    adjacency,
                    tau,
                    labels,
                    queues,
                    local_affected,
                    local_counters,
                    owned=set(plan.regions[rid]),
                    escapes=local_escapes,
                )
                return local_affected, local_escapes, local_counters

            affected_by_index: dict[int, set[int]] = {}
            escapes: list[LabelSearchEscape] = []
            with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
                futures = [
                    pool.submit(mark_shard, rid)
                    for rid, incs in enumerate(shard_increases)
                    if incs
                ]
                for future in futures:
                    local_affected, local_escapes, local_counters = future.result()
                    merge_affected_sets(affected_by_index, local_affected)
                    escapes.extend(local_escapes)
                    for k in range(3):
                        counters[k] += local_counters[k]
            if escapes:
                drain_affected_queues(
                    adjacency,
                    tau,
                    labels,
                    queues_from_escapes(escapes),
                    affected_by_index,
                    counters,
                )
            stats.extra["mark_escapes"] = len(escapes)
            stats.ancestors_touched += len(affected_by_index)
            for affected in affected_by_index.values():
                stats.vertices_affected += len(affected)

            for incs in shard_increases:
                for update in incs:
                    self.graph.set_weight(update.u, update.v, update.new_weight)
            adjacency = self.graph.adjacency()
            for index in sorted(affected_by_index):
                affected = affected_by_index[index]
                if affected:
                    repair_affected_entries(adjacency, tau, labels, index, affected, counters)

        if any(shard_decreases):
            for decs in shard_decreases:
                for update in decs:
                    self.graph.set_weight(update.u, update.v, update.new_weight)
            adjacency = self.graph.adjacency()

            def drain_shard(rid: int) -> tuple[int, list[LabelSearchEscape], list[int]]:
                local_counters = [0, 0, 0]
                queues: dict[int, list[tuple[float, int]]] = {}
                seed_decrease_queues(
                    tau, labels, shard_decreases[rid], queues, local_counters
                )
                local_escapes: list[LabelSearchEscape] = []
                drain_decrease_queues(
                    adjacency,
                    tau,
                    labels,
                    queues,
                    local_counters,
                    owned=set(plan.regions[rid]),
                    escapes=local_escapes,
                )
                return len(queues), local_escapes, local_counters

            dec_escapes: list[LabelSearchEscape] = []
            seeded_indexes = 0
            with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
                futures = [
                    pool.submit(drain_shard, rid)
                    for rid, decs in enumerate(shard_decreases)
                    if decs
                ]
                for future in futures:
                    num_queues, local_escapes, local_counters = future.result()
                    seeded_indexes += num_queues
                    dec_escapes.extend(local_escapes)
                    for k in range(3):
                        counters[k] += local_counters[k]
            stats.ancestors_touched += seeded_indexes
            if dec_escapes:
                drain_decrease_queues(
                    adjacency, tau, labels, queues_from_escapes(dec_escapes), counters
                )
            stats.extra["decrease_escapes"] = len(dec_escapes)

        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        return stats


class SerialShardBackend:
    """The batched serial engines behind the :class:`ShardBackend` surface.

    Exists so callers can treat "no pool at all" as just another backend
    (``create_backend("serial")``); it does not plan.
    """

    name = "serial"

    def __init__(
        self,
        graph: Graph,
        hierarchy: StableTreeHierarchy,
        labels: STLLabels,
        planner: ShardPlanner | None = None,
        max_workers: int | None = None,
    ):
        self.planner = planner or ShardPlanner(graph)
        self._engines = {
            "pareto": BatchedParetoEngine(graph, hierarchy, labels),
            "label_search": BatchedLabelSearchEngine(graph, hierarchy, labels),
        }

    def apply(
        self,
        updates: Sequence[EdgeUpdate],
        max_workers: int | None = None,
        engine: str = "pareto",
    ) -> MaintenanceStats:
        return self._engines[engine].apply(updates)

    def close(self) -> None:
        """Nothing to release."""


def create_backend(
    name: str,
    graph: Graph,
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    planner: ShardPlanner | None = None,
    max_workers: int | None = None,
) -> "ShardBackend":
    """Instantiate a shard backend by name (``serial``/``thread``/``process``).

    The process backend is imported lazily: :mod:`repro.core.parallel`
    imports this module for the plan types, and callers that never go
    multi-process should not pay for the multiprocessing machinery.
    """
    if name == "serial":
        return SerialShardBackend(graph, hierarchy, labels, planner, max_workers)
    if name == "thread":
        return ShardedBatchEngine(graph, hierarchy, labels, planner, max_workers)
    if name == "process":
        from repro.core.parallel import ProcessShardBackend

        return ProcessShardBackend(graph, hierarchy, labels, planner, max_workers)
    allowed = ", ".join(repr(n) for n in SHARD_BACKEND_NAMES)
    raise ValueError(f"unknown shard backend {name!r}; allowed backends: {allowed}")
