"""Empirical calibration for the batch-policy crossovers.

:func:`calibrate_shipping` measures what sizes the **backend** crossover
(``process_min_updates``); :func:`calibrate_engines` races the two serial
batch engine families, the measurement behind the default routing of every
batch to Label Search (there is no engine crossover left to size).

:class:`repro.core.batch.BatchPolicy.process_min_updates` decides when a
sharded batch is routed to the process pool.  The right value depends on
what a batch actually costs to *ship* to the workers, which changed
fundamentally with shared-memory residency: the legacy protocol re-pickled
every owned label row (plus adjacency rows) out to the workers and the
mutated rows back, per batch, so its cost scaled with the *region* size; the
resident protocol ships only the update records and the weight deltas since
the last sync, so its cost scales with the *batch* size and is invisible
next to the engine work.

This module measures both protocols on the live planner regions --
synthetic coalesced batches of configurable sizes, pickled exactly as the
backends would ship them -- and derives a recommended crossover: the
smallest measured batch size whose resident shipping overhead stays below a
fraction of the batch's serial processing time.  ``benchmarks/perf_smoke.py``
runs the calibration on the smoke workload and records the measurements in
its JSON artifact, which is where the documented default of
``process_min_updates`` comes from.
"""

from __future__ import annotations

import pickle
import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.labelling import STLLabels
from repro.core.serialization import slice_labels
from repro.core.shard import ShardPlanner
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, UpdateKind
from repro.hierarchy.tree import StableTreeHierarchy

#: Conservative cost of one request/reply pipe round trip (pickle framing,
#: two context switches); folded into the recommended-crossover overhead.
ROUND_TRIP_SECONDS = 0.0005


@dataclass(frozen=True)
class ShippingMeasurement:
    """Measured per-batch shipping cost of both protocols at one batch size.

    ``slice_*`` is the legacy slice-shipping protocol (owned label rows +
    adjacency rows out, mutated label rows back); ``delta_*`` is the
    resident protocol (update records + weight deltas, nothing back but
    escapes/marks, which both protocols pay identically and are therefore
    excluded).  Seconds cover one pickle/unpickle round of the payloads.
    """

    updates: int
    slice_bytes: int
    slice_seconds: float
    delta_bytes: int
    delta_seconds: float

    @property
    def bytes_ratio(self) -> float:
        """How many times more bytes slice shipping moves per batch."""
        return self.slice_bytes / max(1, self.delta_bytes)

    @property
    def seconds_ratio(self) -> float:
        """How many times longer slice shipping takes per batch."""
        return self.slice_seconds / max(1e-12, self.delta_seconds)


@dataclass(frozen=True)
class ShippingCalibration:
    """Result of :func:`calibrate_shipping`: one measurement per batch size."""

    measurements: tuple[ShippingMeasurement, ...]

    def recommended_min_updates(
        self,
        per_update_seconds: float,
        overhead_fraction: float = 0.1,
        round_trips: int = 2,
    ) -> int:
        """Smallest measured batch size worth routing to the process pool.

        A batch amortises the pool when its fixed per-batch overhead --
        resident shipping plus ``round_trips`` pipe round trips -- stays
        below ``overhead_fraction`` of the batch's serial processing time
        (``updates * per_update_seconds``, e.g. the ``batched`` series of
        the perf smoke divided by its update count).  Falls back to twice
        the largest measured size when no measured size qualifies.
        """
        for m in sorted(self.measurements, key=lambda m: m.updates):
            overhead = m.delta_seconds + round_trips * ROUND_TRIP_SECONDS
            if overhead <= overhead_fraction * m.updates * per_update_seconds:
                return m.updates
        return 2 * max(m.updates for m in self.measurements)

    def as_dict(self) -> dict:
        """JSON-friendly form (recorded by the perf-smoke artifact)."""
        return {
            "measurements": [
                {
                    "updates": m.updates,
                    "slice_bytes": m.slice_bytes,
                    "slice_seconds": m.slice_seconds,
                    "delta_bytes": m.delta_bytes,
                    "delta_seconds": m.delta_seconds,
                    "bytes_ratio": m.bytes_ratio,
                    "seconds_ratio": m.seconds_ratio,
                }
                for m in self.measurements
            ],
        }


def _synthetic_batch(graph: Graph, num_updates: int, seed: int) -> Sequence[EdgeUpdate]:
    """A coalesced mixed batch over random edges (both update kinds)."""
    rng = random.Random(seed)
    edges = list(graph.edges())
    current = {(u, v): w for u, v, w in edges}
    batch = UpdateBatch()
    for _ in range(num_updates):
        u, v, _ = edges[rng.randrange(len(edges))]
        old = current[(u, v)]
        new = round(old * rng.uniform(0.5, 2.0), 3)
        batch.append(EdgeUpdate(u, v, old, new))
        current[(u, v)] = new
    return batch.coalesce(graph).updates


def _pickle_round(payload: object) -> tuple[int, float]:
    """(bytes, seconds) of one dumps+loads round at the highest protocol."""
    start = time.perf_counter()
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    return len(blob), time.perf_counter() - start


def calibrate_shipping(
    graph: Graph,
    labels: STLLabels,
    planner: ShardPlanner | None = None,
    batch_sizes: Sequence[int] = (48, 96, 192, 384),
    seed: int = 2025,
    rounds: int = 3,
) -> ShippingCalibration:
    """Measure slice-vs-delta shipping on the planner's regions.

    For each batch size a synthetic coalesced batch is planned, and the
    exact per-worker payloads of both protocols are pickled and unpickled
    ``rounds`` times (the minimum is kept).  Slice shipping pays the owned
    label rows and adjacency rows outbound plus the mutated label rows
    inbound; delta shipping pays the update records plus one absolute-weight
    triple per updated edge, split over its two sync messages.
    """
    planner = planner or ShardPlanner(graph)
    tau_like = list(range(graph.num_vertices))  # placeholder of identical pickle shape
    measurements = []
    for size in batch_sizes:
        updates = _synthetic_batch(graph, size, seed + size)
        plan = planner.plan(updates)
        slice_tasks = []
        delta_tasks = []
        adjacency = graph.adjacency()
        for rid, shard in enumerate(plan.shards):
            if not len(shard):
                continue
            region = plan.regions[rid]
            records = [
                (u.u, u.v, u.old_weight, u.new_weight)
                for u in shard
            ]
            increases = [r for r, u in zip(records, shard) if u.kind is UpdateKind.INCREASE]
            decreases = [r for r, u in zip(records, shard) if u.kind is UpdateKind.DECREASE]
            rows = slice_labels(labels, region)
            slice_tasks.append(
                {
                    "owned": list(region),
                    "tau": tau_like,
                    "adjacency": {v: list(adjacency[v]) for v in region},
                    "labels": rows,
                    "increases": increases,
                    "decreases": decreases,
                }
            )
            deltas = [(min(u, v), max(u, v), new) for u, v, _old, new in records]
            delta_tasks.append(
                {
                    "weight_deltas": deltas,
                    "increases": increases,
                    "decreases": decreases,
                }
            )
        slice_return = [task["labels"] for task in slice_tasks]
        slice_bytes = 0
        slice_seconds = float("inf")
        delta_bytes = 0
        delta_seconds = float("inf")
        for _ in range(max(1, rounds)):
            out_bytes, out_secs = _pickle_round(slice_tasks)
            back_bytes, back_secs = _pickle_round(slice_return)
            slice_bytes = out_bytes + back_bytes
            slice_seconds = min(slice_seconds, out_secs + back_secs)
            d_bytes, d_secs = _pickle_round(delta_tasks)
            delta_bytes = d_bytes
            delta_seconds = min(delta_seconds, d_secs)
        measurements.append(
            ShippingMeasurement(
                updates=len(updates),
                slice_bytes=slice_bytes,
                slice_seconds=slice_seconds,
                delta_bytes=delta_bytes,
                delta_seconds=delta_seconds,
            )
        )
    return ShippingCalibration(measurements=tuple(measurements))


@dataclass(frozen=True)
class EngineMeasurement:
    """Serial batch seconds of both engine families at one batch size.

    Both engines process the *same* synthetic coalesced batch from the same
    starting labels (independent graph/label copies), so the two timings are
    directly comparable; ``rounds`` timings are taken and the minimum kept.
    """

    updates: int
    pareto_seconds: float
    label_search_seconds: float

    @property
    def speedup(self) -> float:
        """How many times faster Label Search ran (>1 means it won)."""
        return self.pareto_seconds / max(1e-12, self.label_search_seconds)


@dataclass(frozen=True)
class EngineCalibration:
    """Result of :func:`calibrate_engines`: one measurement per batch size."""

    measurements: tuple[EngineMeasurement, ...]

    def as_dict(self) -> dict:
        """JSON-friendly form (recorded by the perf-smoke artifact)."""
        return {
            "measurements": [
                {
                    "updates": m.updates,
                    "pareto_seconds": m.pareto_seconds,
                    "label_search_seconds": m.label_search_seconds,
                    "speedup": m.speedup,
                }
                for m in self.measurements
            ],
        }


def calibrate_engines(
    graph: Graph,
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    batch_sizes: Sequence[int] = (24, 48, 96, 192, 384),
    seed: int = 2025,
    rounds: int = 3,
) -> EngineCalibration:
    """Race the two serial batch engines across a range of batch sizes.

    For each size, a synthetic mixed batch is coalesced once and applied by
    each engine ``rounds`` times, every application starting from a fresh
    copy of the graph and labels so no engine sees the other's writes (or
    its own previous round's); the minimum wall time per engine is kept.
    The perf smoke records the result.  Both engines run their default
    implementation, so with numpy the Label Search side is its vector
    kernel.
    """
    from repro.core.batch import BatchedParetoEngine
    from repro.core.batch_label_search import BatchedLabelSearchEngine

    measurements = []
    for size in batch_sizes:
        updates = _synthetic_batch(graph, size, seed + size)
        timings = {"pareto": float("inf"), "label_search": float("inf")}
        for name, engine_cls in (
            ("pareto", BatchedParetoEngine),
            ("label_search", BatchedLabelSearchEngine),
        ):
            for _ in range(max(1, rounds)):
                graph_copy = graph.copy()
                labels_copy = labels.copy()
                engine = engine_cls(graph_copy, hierarchy, labels_copy)
                start = time.perf_counter()
                engine.apply(updates)
                timings[name] = min(timings[name], time.perf_counter() - start)
        measurements.append(
            EngineMeasurement(
                updates=len(updates),
                pareto_seconds=timings["pareto"],
                label_search_seconds=timings["label_search"],
            )
        )
    return EngineCalibration(measurements=tuple(measurements))
