"""Figure 10 -- batched maintenance vs full reconstruction.

A stream of updates (each edge's weight is doubled, then restored) is
processed in groups of growing size; the cumulative maintenance time of STL
is compared against the time to rebuild the labelling from scratch.  The
paper's observation -- maintenance stays below reconstruction even for the
largest group -- is the headline argument for incremental maintenance.

Four maintenance flavours are measured per group:

* the **per-update loop** (``apply_update`` per stream entry, the index's
  default Label Search: one-update batches of the batched engine),
  whose label entries rewritten are reported beside the entries a
  reconstruction writes -- the counter behind the timing comparison,
* the **batched path** (``apply_batch`` on the increase half, then on the
  decrease half), which coalesces per edge, shares the mark/repair phases of
  Pareto Search across the whole group, and auto-falls back to an in-place
  label rebuild past the :class:`repro.core.batch.BatchPolicy` crossover
  (reported in the ``rebuild fallbacks`` row),
* the **thread-sharded path** (``STLConfig(backend="thread")``), which
  splits each half along the :class:`repro.core.shard.ShardPlanner`
  partition and runs the per-region sub-batches on a thread pool
  (:class:`repro.core.shard.ShardedBatchEngine`), falling back to the serial
  engine for degenerate plans, and
* the **process-sharded path** (``STLConfig(backend="process")``), which
  ships each region's label rows to a worker process that owns them
  (:class:`repro.core.parallel.ProcessShardBackend`) -- the only flavour
  whose searches run outside the GIL.

Each batched/sharded flavour is additionally measured with the **Label
Search engine** (``STLConfig(engine="label_search")``, the batched
Algorithms 1-2 of :mod:`repro.core.batch_label_search`), giving the full
engine x backend matrix per group: ``STL batched`` vs ``STL-LS batched``
compares the engine families serially, the sharded rows compare them on the
worker-pool backends.  Every row pins its engine, so each series is the
strategy its label names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.label_search import MaintenanceStats
from repro.core.stl import StableTreeLabelling
from repro.experiments.harness import ExperimentConfig, measure_batched_seconds
from repro.experiments.reporting import format_series
from repro.utils.timer import Timer
from repro.workloads.datasets import build_dataset
from repro.workloads.updates import mixed_update_stream


@dataclass
class Figure10Series:
    """Per-dataset maintenance-vs-reconstruction comparison."""

    network: str
    group_sizes: list[int] = field(default_factory=list)
    maintenance_seconds: list[float] = field(default_factory=list)
    labels_changed: list[int] = field(default_factory=list)
    batched_seconds: list[float] = field(default_factory=list)
    sharded_seconds: list[float] = field(default_factory=list)
    process_seconds: list[float] = field(default_factory=list)
    ls_batched_seconds: list[float] = field(default_factory=list)
    ls_sharded_seconds: list[float] = field(default_factory=list)
    ls_process_seconds: list[float] = field(default_factory=list)
    rebuild_fallbacks: list[int] = field(default_factory=list)
    reconstruction_seconds: float = 0.0
    index_entries: int = 0

    def as_series(self) -> dict[str, list[float]]:
        return {
            "STL per-update [s]": self.maintenance_seconds,
            "STL batched [s]": self.batched_seconds,
            "STL sharded [s]": self.sharded_seconds,
            "STL process-sharded [s]": self.process_seconds,
            "STL-LS batched [s]": self.ls_batched_seconds,
            "STL-LS sharded [s]": self.ls_sharded_seconds,
            "STL-LS process-sharded [s]": self.ls_process_seconds,
            "Rebuild fallbacks": [float(n) for n in self.rebuild_fallbacks],
            "Reconstruction [s]": [self.reconstruction_seconds] * len(self.group_sizes),
            "STL per-update entries rewritten": [float(n) for n in self.labels_changed],
            "Reconstruction entries": [float(self.index_entries)] * len(self.group_sizes),
        }


def run_figure10(
    config: ExperimentConfig | None = None,
    group_sizes: tuple[int, ...] = (25, 50, 100, 200, 400),
) -> list[Figure10Series]:
    """Measure grouped maintenance time against full reconstruction.

    Every group is measured twice on the same update stream: once through the
    per-update loop and once through the batched path.  Both passes restore
    the graph to its original weights (the stream nets to zero), so the
    measurements are directly comparable.
    """
    config = config or ExperimentConfig()
    results: list[Figure10Series] = []
    for name in config.datasets:
        graph = build_dataset(name, scale=config.scale, seed=config.seed)
        stl = StableTreeLabelling.build(graph.copy(), config.hierarchy_options())
        stl.batch_policy = config.batch_policy()
        series = Figure10Series(
            network=name,
            reconstruction_seconds=stl.construction_seconds,
            index_entries=stl.labels.num_entries(),
        )
        for size in group_sizes:
            stream = mixed_update_stream(
                stl.graph, size, factor=config.update_factor, seed=config.seed
            )
            stats = MaintenanceStats()
            timer = Timer()
            with timer.measure():
                for update in stream:
                    stats.merge(stl.apply_update(update))
            series.group_sizes.append(size)
            series.maintenance_seconds.append(timer.elapsed)
            series.labels_changed.append(stats.labels_changed)
            # The batched path processes the same stream as the paper does: the
            # increase half as one batch, then the restoring decrease half.
            seconds, batched = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()), engine="pareto"
            )
            series.batched_seconds.append(seconds)
            series.rebuild_fallbacks.append(batched.extra.get("rebuild_fallback", 0))
            # The sharded paths replay the same halves once more each (the
            # stream nets to zero after every pass, so the graph state
            # matches); the explicit backend names force the worker-pool
            # engines even for groups the policy would keep serial.
            sharded, _ = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()),
                backend="thread", engine="pareto",
            )
            series.sharded_seconds.append(sharded)
            process, _ = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()),
                backend="process", engine="pareto",
            )
            series.process_seconds.append(process)
            # The Label Search engine replays the same halves on all three
            # backends -- the engine half of the engine x backend matrix.
            ls_batched, _ = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()), engine="label_search"
            )
            series.ls_batched_seconds.append(ls_batched)
            ls_sharded, _ = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()),
                backend="thread", engine="label_search",
            )
            series.ls_sharded_seconds.append(ls_sharded)
            ls_process, _ = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()),
                backend="process", engine="label_search",
            )
            series.ls_process_seconds.append(ls_process)
        stl.close()  # release the process backend's worker pool
        results.append(series)
    return results


def format_figure10(results: list[Figure10Series]) -> str:
    """Render the Figure 10 comparison as per-dataset tables."""
    blocks = []
    for series in results:
        blocks.append(
            format_series(
                series.as_series(),
                series.group_sizes,
                title=(
                    f"Figure 10 ({series.network}): grouped maintenance vs reconstruction"
                ),
                x_label="# updates",
            )
        )
    return "\n\n".join(blocks)
