"""Shared experiment infrastructure: configuration, building, measuring.

The drivers in this package all follow the same recipe:

1. build the dataset analogue(s),
2. build every competing index on its own copy of the graph,
3. replay a workload while timing it,
4. return rows/series shaped like the paper's exhibit.

This module hosts the pieces every driver shares so the per-exhibit modules
stay small and readable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.baselines.dtdhl import DTDHL
from repro.baselines.hc2l import HC2L
from repro.baselines.inch2h import IncH2H
from repro.core.batch import BatchPolicy
from repro.core.label_search import MaintenanceStats
from repro.core.stl import StableTreeLabelling
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.timer import Timer
from repro.workloads.datasets import DEFAULT_BENCH_DATASETS, DATASETS


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment driver.

    The defaults are sized so that the complete benchmark suite finishes in a
    few minutes of pure-Python time; they can be scaled up via environment
    variables (``REPRO_FULL_DATASETS``, ``REPRO_SCALE``) or explicitly.
    """

    datasets: Sequence[str] = field(default_factory=lambda: default_dataset_names())
    scale: float = 1.0
    seed: int = 2025
    num_update_batches: int = 3
    updates_per_batch: int = 30
    update_factor: float = 2.0
    num_query_pairs: int = 2_000
    query_sets: int = 10
    pairs_per_query_set: int = 60
    beta: float = 0.2
    leaf_size: int = 16
    batch_rebuild_min_updates: int = BatchPolicy.rebuild_min_updates
    batch_rebuild_fraction: float | None = BatchPolicy.rebuild_fraction
    batch_max_workers: int | None = None

    def hierarchy_options(self) -> HierarchyOptions:
        """Hierarchy options matching this configuration."""
        return HierarchyOptions(beta=self.beta, leaf_size=self.leaf_size)

    def batch_policy(self) -> BatchPolicy:
        """Batch-processing policy (rebuild crossover + worker-pool size).

        Experiment series are engine-pinned: each names its engine in the
        ``STLConfig`` it runs under, so a series that wants the Pareto batch
        engine says ``engine="pareto"``.
        """
        return BatchPolicy(
            rebuild_min_updates=self.batch_rebuild_min_updates,
            rebuild_fraction=self.batch_rebuild_fraction,
            max_workers=self.batch_max_workers,
        )


def default_dataset_names() -> list[str]:
    """Datasets used by default benches; all ten with ``REPRO_FULL_DATASETS=1``."""
    if os.environ.get("REPRO_FULL_DATASETS", "").strip() in ("1", "true", "yes"):
        return list(DATASETS)
    return list(DEFAULT_BENCH_DATASETS)


# --------------------------------------------------------------------------- #
# Index construction helpers
# --------------------------------------------------------------------------- #

def build_stl_variants(
    graph: Graph, options: HierarchyOptions | None = None
) -> dict[str, StableTreeLabelling]:
    """Build the STL-P and STL-L variants sharing one hierarchy/label build.

    The hierarchy is weight-independent and can be shared; the labels and the
    graph are copied so the two variants maintain independent state.
    """
    base = StableTreeLabelling.build(graph.copy(), options, maintenance="pareto")
    label_search = StableTreeLabelling(
        graph.copy(),
        base.hierarchy,
        base.labels.copy(),
        maintenance="label_search",
        construction_seconds=base.construction_seconds,
    )
    return {"STL-P": base, "STL-L": label_search}


def build_dynamic_competitors(graph: Graph) -> dict[str, object]:
    """Build the dynamic baselines (IncH2H, DTDHL), each on its own graph copy."""
    return {
        "IncH2H": IncH2H.build(graph.copy()),
        "DTDHL": DTDHL.build(graph.copy()),
    }


def build_static_competitors(graph: Graph) -> dict[str, object]:
    """Build the static baseline (HC2L)."""
    return {"HC2L": HC2L.build(graph.copy())}


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #

def measure_updates_per_ms(index, updates: Iterable[EdgeUpdate]) -> float:
    """Average milliseconds per update when applying ``updates`` one by one."""
    updates = list(updates)
    if not updates:
        return 0.0
    timer = Timer()
    for update in updates:
        with timer.measure():
            index.apply_update(update)
    return timer.average_ms


def measure_query_us(index, pairs: Sequence[tuple[int, int]], warmup: int = 200) -> float:
    """Average microseconds per query over ``pairs``.

    A short warm-up pass runs first so method-ordering effects (cold dict and
    attribute caches in CPython) do not skew the comparison between methods.
    """
    if not pairs:
        return 0.0
    query = index.query
    for s, t in pairs[: min(warmup, len(pairs))]:
        query(s, t)
    timer = Timer()
    with timer.measure():
        for s, t in pairs:
            query(s, t)
    return timer.elapsed * 1e6 / len(pairs)


def measure_batch_query_qps(
    index: StableTreeLabelling,
    pairs: Sequence[tuple[int, int]],
    kernel: str | None = None,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` queries/second for ``batch_query`` with ``kernel``.

    One untimed warm-up call runs first so the one-off costs -- building the
    hierarchy's kernel arrays and the store's cached numpy views for the
    vector kernel, CPython method caches for the scalar one -- are paid
    outside the measurement; best-of filters scheduler noise the same way
    ``timeit`` does.
    """
    if not pairs:
        return 0.0
    config = index.config.replace(kernel=kernel)
    index.batch_query(pairs, config=config)
    best = math.inf
    for _ in range(max(repeats, 1)):
        timer = Timer()
        with timer.measure():
            index.batch_query(pairs, config=config)
        best = min(best, timer.elapsed)
    return len(pairs) / best


def apply_batch_timed(index, batch: UpdateBatch) -> float:
    """Seconds spent applying ``batch`` through the index's batch interface."""
    timer = Timer()
    with timer.measure():
        index.apply_batch(batch)
    return timer.elapsed


def measure_batched_seconds(
    index: StableTreeLabelling,
    batches: Iterable[UpdateBatch],
    backend: str | None = None,
    engine: str | None = None,
) -> tuple[float, MaintenanceStats]:
    """Total seconds applying ``batches`` via ``apply_batch``, plus their stats.

    The stats are merged over the batches, so ``extra["rebuild_fallback"]``
    counts how many crossed the :class:`repro.core.batch.BatchPolicy`
    threshold and were processed as an in-place rebuild instead of
    incremental maintenance (Figure 10's crossover diagnostic) and
    ``labels_changed`` the entries the others rewrote.  ``backend`` and
    ``engine`` override the index's :class:`repro.core.config.STLConfig` for
    these batches: ``"thread"`` / ``"process"`` force a worker-pool backend
    (no rebuild fallback can then occur), ``"pareto"`` / ``"label_search"``
    pin the engine family, and ``None`` lets the policy decide.  The
    experiment series always pin ``engine`` so each measured series is the
    strategy its label names.
    """
    config = index.config.replace(backend=backend, engine=engine)
    timer = Timer()
    stats = MaintenanceStats()
    for batch in batches:
        with timer.measure():
            stats.merge(index.apply_batch(batch, config=config))
    return timer.elapsed, stats
