"""The public facade of Stable Tree Labelling.

:class:`StableTreeLabelling` ties the hierarchy, the label construction, the
query and the four maintenance algorithms into one object with the life cycle
a downstream user needs:

>>> from repro import StableTreeLabelling, generators
>>> graph = generators.grid_road_network(16, 16, seed=1)
>>> stl = StableTreeLabelling.build(graph)
>>> d = stl.query(0, graph.num_vertices - 1)
>>> stl.increase_edge(0, 1, new_weight=graph.weight(0, 1) * 2)
>>> stl.decrease_edge(0, 1, new_weight=graph.weight(0, 1) / 2)

Maintenance defaults to Label Search, the ancestor-centric Algorithms 1-2:
every single update runs as a one-update batch of the batched Label Search
engine, so single updates and batches share one path.
``maintenance="pareto"`` selects the per-update Pareto Search classes
(Algorithms 3-5) instead, which is how the STL-P rows of Table 3 are
produced.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Literal

from repro.core.batch import BatchedParetoEngine, BatchPolicy
from repro.core.batch_label_search import BatchedLabelSearchEngine
from repro.core.config import DEFAULT_CONFIG, STLConfig
from repro.core.shard import ShardBackend, ShardedBatchEngine, ShardPlanner
from repro.core.label_search import MaintenanceStats
from repro.core.construction import build_index
from repro.core.labelling import STLLabels, build_labels
from repro.core.pareto_search import ParetoSearchDecrease, ParetoSearchIncrease
from repro.core.query import batch_query, query_distance, query_with_hub
from repro.core.stats import IndexStats
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, UpdateKind
from repro.hierarchy.builder import BuildReport, HierarchyOptions
from repro.hierarchy.tree import StableTreeHierarchy
from repro.utils.errors import ConfigError, UpdateError
from repro.utils.memory import MemoryEstimate
from repro.utils.timer import Timer
from repro.utils.validation import check_vertex

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from repro.core.snapshot import LabelSnapshot

MaintenanceMode = Literal["pareto", "label_search"]


class StableTreeLabelling:
    """Stable Tree Labelling index over a dynamic road network.

    Instances are normally created with :meth:`build`; the constructor is for
    advanced uses (pre-built hierarchies, deserialisation).
    """

    def __init__(
        self,
        graph: Graph,
        hierarchy: StableTreeHierarchy,
        labels: STLLabels,
        maintenance: MaintenanceMode = "label_search",
        construction_seconds: float = 0.0,
        batch_policy: BatchPolicy | None = None,
        config: STLConfig | None = None,
        build_report: BuildReport | None = None,
    ):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels
        self.construction_seconds = construction_seconds
        #: Construction diagnostics + phase timing breakdown; ``None`` for
        #: indexes assembled from pre-built parts (deserialisation).
        self.build_report = build_report
        self.config = config or DEFAULT_CONFIG
        self.batch_policy = batch_policy or self.config.policy or BatchPolicy()
        self._close_pending = False
        self.set_maintenance(maintenance)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        graph: Graph,
        options: HierarchyOptions | None = None,
        maintenance: MaintenanceMode = "label_search",
        *,
        construction: str | None = None,
        max_workers: int | None = None,
    ) -> "StableTreeLabelling":
        """Build the index: stable tree hierarchy + subgraph-distance labels.

        ``construction`` selects the build pipeline: ``"serial"`` (the
        in-process build, also what ``None`` means) or ``"parallel"`` (the
        opt-in process-parallel shared-memory builder of
        :mod:`repro.core.construction`, with ``max_workers`` capping its
        pool).  Both pipelines produce byte-identical hierarchies and
        labels; the resolved mode, the per-phase timing and the label
        relax's work land in :attr:`build_report`.
        """
        timer = Timer()
        with timer.measure():
            hierarchy, labels, report = build_index(
                graph, options, construction=construction, max_workers=max_workers
            )
        return cls(graph, hierarchy, labels, maintenance, timer.elapsed, build_report=report)

    def rebuild(self, options: HierarchyOptions | None = None) -> "StableTreeLabelling":
        """Construct a fresh index on the current graph (Figure 10 baseline).

        The fresh index inherits this one's :class:`STLConfig` and batch
        policy -- including the config's construction-mode selection.
        """
        fresh = StableTreeLabelling.build(
            self.graph,
            options,
            self._maintenance_mode,
            construction=self.config.construction,
        )
        fresh.config = self.config
        fresh.batch_policy = self.batch_policy
        return fresh

    def set_maintenance(self, maintenance: MaintenanceMode) -> None:
        """Select the maintenance algorithm family ('pareto' or 'label_search')."""
        if maintenance not in ("pareto", "label_search"):
            raise ConfigError(f"unknown maintenance mode {maintenance!r}")
        self._maintenance_mode: MaintenanceMode = maintenance
        # Label Search serves single updates through its batch engine; only
        # Pareto Search keeps per-update classes.
        self._decrease = ParetoSearchDecrease(self.graph, self.hierarchy, self.labels)
        self._increase = ParetoSearchIncrease(self.graph, self.hierarchy, self.labels)
        self._batch_engine = BatchedParetoEngine(self.graph, self.hierarchy, self.labels)
        self._ls_batch_engine = BatchedLabelSearchEngine(self.graph, self.hierarchy, self.labels)
        # The shard planner's regions are topology-only, so switching
        # maintenance modes or adopting a label store keeps the (lazily
        # computed) plan regions; the bisection is only paid on the first
        # sharded batch.  The process backend (live worker processes bound
        # to the same graph) survives for the same reason.  Both are reused
        # only while they were built over this graph and hierarchy: a
        # structural rebuild swaps those in, and a planner over the old
        # vertex set would misplace (or index past) the new vertices.
        shard_engine = getattr(self, "_shard_engine", None)
        if (
            shard_engine is not None
            and shard_engine.graph is self.graph
            and shard_engine.hierarchy is self.hierarchy
        ):
            planner = shard_engine.planner
        else:
            if shard_engine is not None:
                self._release_backend()
            planner = ShardPlanner(self.graph)
            self._process_backend: ShardBackend | None = None
        self._shard_engine = ShardedBatchEngine(
            self.graph, self.hierarchy, self.labels, planner=planner
        )

    def close(self) -> None:
        """Release pooled resources (worker pool + shared label segment).

        Idempotent and safe to call concurrently with live snapshot
        readers: closing the process backend moves the label entries out of
        their shared-memory segment, which must not happen while an
        in-flight reader holds a pin on the store
        (:meth:`repro.core.labelling.STLLabels.pin` -- the serving layer
        pins the store of every acquired zero-copy snapshot).  With pins
        outstanding the teardown is *deferred* until the last reader
        releases; a second ``close`` during the deferral window (or after
        teardown completed) is a no-op.  Safe to skip entirely: worker
        processes are daemonic, so an un-closed index cannot keep the
        interpreter alive.  Long-running services that build many indexes
        should still close each one.
        """
        if self._close_pending:
            return
        if self.labels.pinned:
            self._close_pending = True

            def _finish() -> None:
                self._close_pending = False
                self._release_backend()

            self.labels.defer_until_drained(_finish)
            return
        self._release_backend()

    def _release_backend(self) -> None:
        """Tear down the process backend now (pool + segment)."""
        if self._process_backend is not None:
            self._process_backend.close()
            self._process_backend = None

    @property
    def close_pending(self) -> bool:
        """Whether a close is deferred behind live snapshot readers."""
        return self._close_pending

    def snapshot(self, version: int = 0, copy: bool = True) -> "LabelSnapshot":
        """An immutable :class:`~repro.core.snapshot.LabelSnapshot` of this index.

        ``copy=False`` shares the live store zero-copy -- callers must then
        follow the copy-on-write discipline (shadow the store with
        :meth:`adopt_labels` before the next mutation), which is exactly
        what the serving layer's maintenance task does.
        """
        from repro.core.snapshot import LabelSnapshot

        return LabelSnapshot.capture(self, version, copy=copy)

    def adopt_labels(self, labels: STLLabels) -> None:
        """Swap in a different label store and rebind everything to it.

        The serving layer's shadow-copy step: after publishing a zero-copy
        snapshot, the writer adopts a private copy of its store
        (:meth:`STLLabels.snapshot_store`) before mutating, leaving the
        published buffer untouched for readers.  Every maintenance engine
        holds a reference to the store it was built over, so the engines
        are rebuilt (the shard planner and its lazily computed plan are
        preserved -- regions are topology-only); a live process backend is
        *rebound* (:meth:`repro.core.parallel.ProcessShardBackend.rebind`):
        its resident workers detach from the old store's shared segment and
        re-attach to a fresh segment over the new store on the next batch.
        """
        if len(labels) != len(self.labels):
            raise UpdateError(
                f"adopted store covers {len(labels)} vertices, index has {len(self.labels)}"
            )
        self.labels = labels
        self.set_maintenance(self._maintenance_mode)
        if self._process_backend is not None:
            self._process_backend.rebind(labels)

    @property
    def maintenance_mode(self) -> MaintenanceMode:
        """The currently selected maintenance algorithm family."""
        return self._maintenance_mode

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, s: int, t: int) -> float:
        """Shortest-path distance between ``s`` and ``t`` (Equation 3).

        An id outside ``[0, n)`` raises the ``IndexError`` that
        :meth:`batch_query` raises for it (:func:`repro.core.query.query_distance`
        checks both ids; Python's negative indexing would otherwise silently
        answer for vertex ``n + s``).
        """
        return query_distance(self.hierarchy, self.labels, s, t)

    def query_with_hub(self, s: int, t: int) -> tuple[float, int]:
        """Distance plus the label index of the common ancestor realising it."""
        check_vertex(s, self.graph.num_vertices)
        check_vertex(t, self.graph.num_vertices)
        return query_with_hub(self.hierarchy, self.labels, s, t)

    def batch_query(
        self, pairs: Iterable[tuple[int, int]], *, config: STLConfig | None = None
    ) -> list[float]:
        """Answer many queries (delegates to :func:`repro.core.query.batch_query`).

        The kernel is selected by ``config`` (defaulting to the index's own
        :class:`STLConfig`): ``"vector"`` (the fused numpy gather +
        segment-min of :mod:`repro.core.kernels`, requires the
        ``repro[fast]`` extra), ``"scalar"`` (the pure-Python loop), or
        ``None`` for the import-time default.  Purely a performance choice:
        both kernels return entry-wise identical answers.
        """
        kernel = (config or self.config).kernel
        return batch_query(self.hierarchy, self.labels, list(pairs), kernel)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def apply_update(self, update: EdgeUpdate) -> MaintenanceStats:
        """Apply one edge-weight update.

        Under Label Search (the default) the update is a one-update batch of
        the batched Label Search engine: the vector rounds with numpy, the
        scalar heaps without.  Under Pareto Search it dispatches on the
        update's kind to the per-update Pareto classes (STL-P).
        """
        if self._maintenance_mode == "label_search":
            return self._ls_batch_engine.apply([update])
        if update.kind is UpdateKind.INCREASE:
            return self._increase.apply(update)
        if update.kind is UpdateKind.DECREASE:
            return self._decrease.apply(update)
        return MaintenanceStats(updates_processed=1)

    def apply_batch(
        self, updates: Iterable[EdgeUpdate], *, config: STLConfig | None = None
    ) -> MaintenanceStats:
        """Apply a batch of updates with per-edge coalescing.

        Batch semantics:

        * **Coalescing** -- the batch is first folded into one *net* update
          per edge (:meth:`repro.graph.updates.UpdateBatch.coalesce`): an
          edge touched by both increases and decreases ends at the weight of
          its last update, never at a kind-grouped reordering of the chain.
          The net update's kind classifies the overall effect, so a chain
          that cancels out is a NEUTRAL no-op.
        * **Net-kind processing** -- net increases run before net decreases
          (disjoint edges, so the order only fixes which pass pays for which
          entry).  Every batch below the rebuild crossover, down to a single
          net update, runs on the serial batched Label Search engine.
        * **Rebuild crossover** -- when the net batch exceeds
          ``policy.rebuild_fraction`` of the graph's edges (and
          ``policy.rebuild_min_updates``), maintaining is slower than
          reconstructing: the weights are applied and the labels are rebuilt
          from scratch in place (``stats.extra["rebuild_fallback"]`` records
          the fallback).  ``config.policy`` defaults to :attr:`batch_policy`.

        Backend, engine family and policy come from ``config`` (a per-call
        :class:`STLConfig` override, defaulting to the index's own config):

        * ``config.backend`` selects the shard backend: ``"thread"`` or
          ``"process"`` force that worker-pool engine (bypassing the rebuild
          crossover -- an explicit request to exercise the parallel path, as
          the benchmarks do; ``stats.extra["sharded"]`` records it);
          ``"serial"`` and ``None`` (default) never shard.
        * ``config.engine`` selects the batch engine family independently of
          the backend: ``"pareto"`` (the update-centric shared phases) or
          ``"label_search"`` (the ancestor-centric searches of
          :mod:`repro.core.batch_label_search`).  ``None`` means Label
          Search, which has won at every measured batch size.  Every engine
          runs on every backend and all strategies produce entry-wise
          identical labels, so both choices are purely performance matters;
          ``stats.extra["label_search_engine"]`` records a Label Search
          batch.
        The serial Label Search engine runs its vector frontier rounds when
        numpy is installed and its scalar heaps otherwise; ``config.kernel``
        does not pin it (it selects only the :meth:`batch_query` kernel).
        Labels are bit-identical either way; ``stats.extra["vector_kernel"]``
        and ``["rounds"]`` record a vector batch.

        ``updates_processed`` counts every update consumed from the input
        batch, including NEUTRAL updates and updates folded away by
        coalescing; ``stats.extra["net_updates"]`` reports the coalesced
        batch size.
        """
        cfg = config if config is not None else self.config
        batch = updates if isinstance(updates, UpdateBatch) else UpdateBatch(updates)
        total = len(batch)
        if total == 0:
            return MaintenanceStats()
        policy = cfg.policy or self.batch_policy
        net = batch.coalesce(self.graph)
        # NEUTRAL nets (cancelled chains) do no maintenance work, so they must
        # not push an otherwise-small batch over the rebuild crossover.
        effective = sum(1 for u in net if u.kind is not UpdateKind.NEUTRAL)
        used_engine = cfg.engine or "label_search"
        if cfg.backend in ("thread", "process"):
            stats = self._shard_backend(cfg.backend).apply(
                net.updates, max_workers=policy.max_workers, engine=used_engine
            )
            stats.extra["sharded"] = 1
        elif policy.should_rebuild(effective, self.graph.num_edges):
            stats = self._rebuild_in_place(net)
            used_engine = "rebuild"
        elif used_engine == "label_search":
            stats = self._ls_batch_engine.apply(net.updates)
        else:
            stats = self._batch_engine.apply(net.updates)
        stats.updates_processed += total - len(net)
        stats.extra["net_updates"] = len(net)
        if used_engine == "label_search":
            stats.extra["label_search_engine"] = 1
        return stats

    def _shard_backend(self, backend: str) -> ShardBackend:
        """The thread engine, or the lazily created process backend.

        The process backend is constructed on first use (spawning worker
        processes is not free) and shares the thread engine's planner, so
        both pools run the identical partition of the vertex set.
        """
        if backend == "thread":
            return self._shard_engine
        if self._process_backend is None:
            from repro.core.parallel import ProcessShardBackend

            self._process_backend = ProcessShardBackend(
                self.graph,
                self.hierarchy,
                self.labels,
                planner=self._shard_engine.planner,
            )
        return self._process_backend

    def _rebuild_in_place(self, net: UpdateBatch) -> MaintenanceStats:
        """Apply ``net`` to the graph and rebuild the labels from scratch.

        The hierarchy is weight-independent, so only the labels are
        recomputed; the label buffer is overwritten in place to keep the
        maintenance engines (which hold a reference to it) -- and any
        resident worker processes mapping its shared buffer -- valid.
        """
        for update in net:
            self.graph.set_weight(update.u, update.v, update.new_weight)
        self.labels.load_from(build_labels(self.graph, self.hierarchy))
        stats = MaintenanceStats(updates_processed=len(net))
        stats.extra["rebuild_fallback"] = 1
        return stats

    def increase_edge(self, u: int, v: int, new_weight: float) -> MaintenanceStats:
        """Increase the weight of edge ``(u, v)`` to ``new_weight``."""
        old = self.graph.weight(u, v)
        if new_weight < old:
            raise UpdateError(
                f"increase_edge called with new weight {new_weight} below current {old}"
            )
        return self.apply_update(EdgeUpdate(u, v, old, new_weight))

    def decrease_edge(self, u: int, v: int, new_weight: float) -> MaintenanceStats:
        """Decrease the weight of edge ``(u, v)`` to ``new_weight``."""
        old = self.graph.weight(u, v)
        if new_weight > old:
            raise UpdateError(
                f"decrease_edge called with new weight {new_weight} above current {old}"
            )
        return self.apply_update(EdgeUpdate(u, v, old, new_weight))

    def remove_edge(self, u: int, v: int) -> MaintenanceStats:
        """Logically delete edge ``(u, v)`` by raising its weight to infinity.

        This is the Section 8 treatment of structural deletions.  The label
        entries of vertices that lose their last path to an ancestor become
        ``inf``, and queries fall back to other common ancestors.
        """
        old = self.graph.weight(u, v)
        if math.isinf(old):
            return MaintenanceStats()
        return self.apply_update(EdgeUpdate(u, v, old, math.inf))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> IndexStats:
        """Size statistics of this index (Table 4 row).

        When the index was built through :meth:`build` /
        :func:`open_network`, the stats carry the construction-time
        breakdown from the :class:`~repro.hierarchy.builder.BuildReport`:
        hierarchy seconds vs label seconds vs builder worker count.
        """
        report = self.build_report
        return IndexStats(
            method=f"STL ({self._maintenance_mode})",
            num_vertices=self.graph.num_vertices,
            num_label_entries=self.labels.num_entries(),
            memory=MemoryEstimate(distance_entries=self.labels.num_entries()),
            tree_height=self.hierarchy.height,
            construction_seconds=self.construction_seconds,
            hierarchy_seconds=report.hierarchy_seconds if report else 0.0,
            label_seconds=report.label_seconds if report else 0.0,
            construction_workers=report.workers if report else 0,
            label_rounds=report.label_rounds if report else 0,
            label_enqueued=report.label_enqueued if report else 0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StableTreeLabelling(vertices={self.graph.num_vertices}, "
            f"entries={self.labels.num_entries()}, "
            f"maintenance={self._maintenance_mode!r})"
        )


def open_network(
    graph: Graph,
    *,
    config: STLConfig | None = None,
    options: HierarchyOptions | None = None,
) -> StableTreeLabelling:
    """Open ``graph`` for querying and maintenance under one :class:`STLConfig`.

    The post-redesign entry point: build the stable tree hierarchy and the
    subgraph-distance labels, and return an index whose every later call --
    ``apply_batch``, ``batch_query``, the serving layer -- defaults to
    ``config``'s backend / engine / kernel / policy choices instead of
    per-call kwargs::

        stl = repro.open_network(graph, config=STLConfig(engine="label_search"))
        stl.apply_batch(batch)              # Label Search, no kwargs
        stl.batch_query(pairs)              # config's kernel

    ``config=None`` means :data:`repro.core.config.DEFAULT_CONFIG`: every
    choice deferred to the measured crossovers.  ``options`` tunes the
    hierarchy construction exactly as :meth:`StableTreeLabelling.build`
    does.  The maintenance algorithm family follows the config's engine
    selection (:attr:`STLConfig.maintenance`), and the build pipeline
    follows ``config.construction`` (``"parallel"`` routes through the
    process-parallel shared-memory builder of
    :mod:`repro.core.construction`).
    """
    cfg = config or DEFAULT_CONFIG
    timer = Timer()
    with timer.measure():
        hierarchy, labels, report = build_index(
            graph, options, construction=cfg.construction
        )
    return StableTreeLabelling(
        graph,
        hierarchy,
        labels,
        cfg.maintenance,  # type: ignore[arg-type]
        timer.elapsed,
        config=cfg,
        build_report=report,
    )
