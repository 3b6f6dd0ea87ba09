"""Per-layer probes of the traced runs.

Every probe times direct calls into one layer's public functions -- the
layers are measured from outside, nothing in ``src/`` is instrumented -- and
records one span per call.  Each probe runs in the traced run of the workload
whose end-to-end metrics it explains (README, "Per-layer metrics"); in the
other workloads' traced runs its metrics read 0.
"""

from __future__ import annotations

import io
import statistics
import time
from typing import Any

import repro
from repro import BatchPolicy, ShardPlanner, STLConfig
from repro.core.labelling import build_labels
from repro.core.query import query_distance
from repro.core.serialization import load_labelling, save_labelling
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import build_hierarchy_with_report
from repro.utils.errors import ConfigError

from bench import inputs

pc = time.perf_counter

PEEL_PAIRS = 10_000
ENGINES = ("pareto", "label_search")
BACKENDS = ("serial", "thread", "process")
#: ``MaintenanceStats`` fields counted at the ``apply_update`` boundary.
MAINTENANCE_COUNTS = ("labels_changed", "heap_pushes", "vertices_affected")


def chosen_cell(stats: Any) -> str:
    """``engine/backend`` a batch ran on, read back from ``stats.extra``."""
    extra = stats.extra
    if extra.get("rebuild_fallback"):
        return "rebuild"
    engine = "label_search" if extra.get("label_search_engine") else "pareto"
    if "process_workers" in extra:
        backend = "process"
    elif extra.get("sharded"):
        backend = "thread"
    else:
        backend = "serial"
    return f"{engine}/{backend}"


def median_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


# --------------------------------------------------------------------------- #
# query-static: graph, hierarchy, labelling, construction, query, kernels,
# serialization
# --------------------------------------------------------------------------- #


def construction(ctx: Any, result: Any) -> tuple[Any, Any]:
    """Build the index phase by phase; returns ``(graph, default index)``."""
    tracer, m = ctx.tracer, result.metrics
    graph, m["graph.generate_s"] = tracer.call("graph.highway_grid_network", inputs.dataset, ctx.scale)
    (hierarchy, report), m["hierarchy.build_s"] = tracer.call(
        "hierarchy.build_hierarchy", build_hierarchy_with_report, graph
    )
    m["hierarchy.height"] = hierarchy.height
    m["hierarchy.nodes"] = report.num_nodes
    labels, m["labelling.build_s"] = tracer.call("core.labelling.build_labels", build_labels, graph, hierarchy)
    m["labelling.entries"] = labels.num_entries()
    m["labelling.us_per_entry"] = m["labelling.build_s"] * 1e6 / labels.num_entries()
    parallel, m["construction.parallel_s"] = tracer.call(
        "core.construction.parallel", repro.open_network, graph,
        config=STLConfig(construction="parallel"),
    )
    m["construction.parallel_equal"] = float(parallel.labels.equals(labels))
    parallel.close()
    stl, _ = tracer.call("core.stl.open_network", repro.open_network, graph)
    result.info["construction_default"] = stl.build_report.construction
    return graph, stl


def query_peel(tracer: Any, m: dict, hierarchy: Any, labels: Any, far: Any, near: Any) -> None:
    """``core.query`` alone: per-call ``query_distance`` and entries scanned."""
    for name, pairs in (("far", far[:PEEL_PAIRS]), ("near", near[:PEEL_PAIRS])):
        samples = []
        op = tracer.new_op()
        for s, t in pairs:
            start = pc()
            query_distance(hierarchy, labels, s, t)
            end = pc()
            samples.append(end - start)
            tracer.add("core.query.query_distance", start, end, op)
        m[f"query.{name}_us"] = median_us(samples)
    scanned = [hierarchy.num_common_ancestors(s, t) for s, t in far[:PEEL_PAIRS] + near[:PEEL_PAIRS]]
    m["query.entries_scanned_mean"] = statistics.fmean(scanned)


def query_layers(ctx: Any, result: Any, stl: Any, far: Any, near: Any) -> None:
    tracer, m = ctx.tracer, result.metrics
    query_peel(tracer, m, stl.hierarchy, stl.labels, far, near)
    pairs = far + near

    def kernel_qps(kernel: str, chunk: int, chunks: int) -> float:
        try:
            config = STLConfig(kernel=kernel)
        except ConfigError:  # numpy missing: the vector kernel does not exist here
            return 0.0
        per_pair = []
        for i in range(chunks):
            sample = pairs[i * chunk : (i + 1) * chunk] or pairs[:chunk]
            _, seconds = tracer.call(f"core.kernels.{kernel}", stl.batch_query, sample, config=config)
            per_pair.append(seconds / len(sample))
        return 1.0 / statistics.median(per_pair[1:] or per_pair)

    m["kernels.scalar_qps"] = kernel_qps("scalar", 10_000, 3)
    m["kernels.vector_qps"] = kernel_qps("vector", 10_000, 10)
    m["kernels.vector_qps_100"] = kernel_qps("vector", 100, 200)

    # The service's copy-on-write step before each commit: shadow the store,
    # adopt it, and pay the rebuilt array views on the next bulk query.
    shadow, seconds = tracer.call("core.labelling.snapshot_store", stl.labels.snapshot_store)
    m["labelling.snapshot_store_ms"] = seconds * 1e3
    stl.adopt_labels(shadow)
    _, seconds = tracer.call("core.kernels.cold_call", stl.batch_query, pairs[:100])
    m["kernels.cold_call_ms"] = seconds * 1e3

    _, seconds = tracer.call("core.snapshot.capture", stl.snapshot, copy=False)
    m["snapshot.capture_ms"] = seconds * 1e3

    buffer = io.StringIO()
    _, m["serialization.save_s"] = tracer.call("core.serialization.save_labelling", save_labelling, stl, buffer)
    m["serialization.file_mb"] = buffer.tell() / 1e6
    buffer.seek(0)
    loaded, m["serialization.load_s"] = tracer.call(
        "core.serialization.load_labelling", load_labelling, buffer, stl.graph
    )
    result.check((1, 0 if loaded.labels.equals(stl.labels) else 1))
    loaded.close()


# --------------------------------------------------------------------------- #
# update-trickle: pareto_search, label_search, maintenance counts
# --------------------------------------------------------------------------- #


def trickle_layers(
    tracer: Any, result: Any, stl: Any, sample: list, latencies: list[float],
    increases: list[bool],
) -> None:
    m = result.metrics

    def split(samples: list[float], flags: list[bool], family: str) -> None:
        up = [x for x, inc in zip(samples, flags) if inc]
        down = [x for x, inc in zip(samples, flags) if not inc]
        m[f"{family}.increase_ms_p50"] = statistics.median(up) * 1e3
        m[f"{family}.decrease_ms_p50"] = statistics.median(down) * 1e3

    split(latencies, increases, "pareto_search")
    for key in MAINTENANCE_COUNTS:
        m[f"maint.{key}_per_update"] = tracer.counts[f"maint.{key}"] / len(latencies)

    stl.set_maintenance("label_search")
    try:
        samples, flags = [], []
        for u, v, w in sample:
            increase = EdgeUpdate(u, v, w, 2.0 * w)
            op = tracer.new_op()
            for update in (increase, increase.reversed()):
                _, seconds = tracer.call("core.label_search.apply_update", stl.apply_update, update, op=op)
                samples.append(seconds)
                flags.append(update is increase)
        split(samples, flags, "label_search")
    finally:
        stl.set_maintenance("pareto")


# --------------------------------------------------------------------------- #
# update-rush: batch engines, shard planner, process backend
# --------------------------------------------------------------------------- #


def rush_layers(ctx: Any, result: Any, stl: Any, cycles: dict) -> None:
    """The twelve engine x backend cells on L's first batch and its reversal."""
    tracer, m = ctx.tracer, result.metrics

    def pair(label: str, rising: Any, config: STLConfig | None) -> tuple[Any, float, float]:
        up, inc_s = tracer.call(f"core.batch.{label}.inc", stl.apply_batch, rising, config=config)
        _, dec_s = tracer.call(
            f"core.batch.{label}.dec", stl.apply_batch, rising.reversed(), config=config
        )
        return up, inc_s, dec_s

    # The traced run skips the warm-up, so this is the first process-backend
    # batch of the index; a class-S batch keeps the batch itself small beside
    # the pool's start-up.
    small = inputs.size_class(stl.graph, ctx.scale, "S")[0]
    process = STLConfig(backend="process")
    _, cold_s, _ = pair("process.cold", small, process)
    _, warm_s, _ = pair("process.warm", small, process)
    m["parallel.spinup_s"] = cold_s - warm_s

    rising = cycles["L"][0]
    for engine in ENGINES:
        for backend in BACKENDS:
            label = f"{engine}.{backend}"
            up, m[f"batch.{label}.inc_s"], m[f"batch.{label}.dec_s"] = pair(
                label, rising, STLConfig(engine=engine, backend=backend)
            )
            if label == "label_search.serial":
                m["maint.labels_changed_per_batch_L"] = up.labels_changed
            if label == "pareto.process":
                m["parallel.shipped_weight_deltas"] = up.extra.get("shipped_weight_deltas", 0)

    up, m["batch.auto.L_inc_s"], m["batch.auto.L_dec_s"] = pair("auto", rising, None)
    result.info.setdefault("chosen", {})["L"] = chosen_cell(up)

    graph = stl.graph
    net, seconds = tracer.call("graph.updates.coalesce", UpdateBatch(rising.updates).coalesce, graph)
    m["batch.coalesce_ms"] = seconds * 1e3
    planner = ShardPlanner(graph)
    planner.regions()  # topology-only and cached: not part of a batch's cost
    plan, seconds = tracer.call("core.shard.plan", planner.plan, net)
    m["shard.plan_ms"] = seconds * 1e3
    m["shard.balance"] = plan.balance

    # The rebuild fallback, forced through the policy on M's first batch.
    forced = STLConfig(policy=BatchPolicy(rebuild_min_updates=1, rebuild_fraction=0.0))
    first = cycles["M"][0]
    up, m["batch.rebuild_s"] = tracer.call("core.batch.rebuild", stl.apply_batch, first, config=forced)
    result.check((1, 0 if chosen_cell(up) == "rebuild" else 1))
    stl.apply_batch(first.reversed())
