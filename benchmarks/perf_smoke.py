"""CI perf-smoke: a scaled-down Figure 10 engine x backend comparison.

Runs one update stream through the batch strategies of
:meth:`repro.core.stl.StableTreeLabelling.apply_batch` -- both engine
families (Pareto, Label Search) on all three backends (serial, thread,
process) plus the per-update loop -- writes the wall-clocks plus memory,
shipping and engine-calibration measurements as ``BENCH_ci.json`` (schema
below) and -- when ``--check`` is given -- fails if a gated series
regressed more than ``--threshold`` x against the committed baseline
(``benchmarks/baseline.json``), or if the label store's estimated memory
grew more than ``--memory-threshold`` x.

Schema (``repro-perf-smoke/4``)::

    {
      "schema": "repro-perf-smoke/4",
      "dataset": "NY", "scale": 0.5, "updates": 600, "seed": 2025,
      "python": "3.11.7",
      "queries": {             # batch_query kernel throughput
        "pairs": 5000,
        "default_kernel": "vector" | "scalar",   # import-time selection
        "scalar_qps": ...,
        "vector_qps": ... | null    # null on a no-numpy interpreter
      },
      "series": {            # wall-clock seconds per strategy
        "construction": ...,
        "per_update": ...,
        "batched": ...,            # Pareto engine, serial backend
        "thread_sharded": ...,     # Pareto engine, thread backend
        "process_sharded": ...,    # Pareto engine, process backend
        "ls_batched": ...,         # Label Search engine, serial backend
        "ls_thread_sharded": ...,  # Label Search engine, thread backend
        "ls_process_sharded": ...  # Label Search engine, process backend
      },
      "memory": {
        "label_store_bytes": ...,   # flat entries + offsets (exact)
        "estimate_bytes": ...,      # STLLabels.memory_estimate().total_bytes
        "peak_rss_kb": ...          # getrusage ru_maxrss after all passes
      },
      "shipping": {          # slice-vs-delta calibration (core/calibration)
        "measurements": [{"updates", "slice_bytes", "slice_seconds",
                          "delta_bytes", "delta_seconds",
                          "bytes_ratio", "seconds_ratio"}, ...]
      },
      "engines": {           # Pareto-vs-LS calibration (core/calibration)
        "measurements": [{"updates", "pareto_seconds",
                          "label_search_seconds", "speedup"}, ...]
      }
    }

The time guard keys on the **batched** and **ls_batched** series only:
they are the strategies with the least scheduling noise (no pools), so a
>2x change means a real algorithmic regression rather than a loaded
runner.  The sharded series are recorded as a trajectory (CI uploads the
JSON as an artifact per run) but not gated -- their wall-clocks depend on
the runner's core count.  The query guard keys on ``vector_qps`` (when
both the run and the baseline have one): the vectorised batch query is
single-threaded and best-of-3, so a >2x throughput drop is a kernel
regression, not noise.  The memory guard keys on ``estimate_bytes``: it
is deterministic for a given workload, so any growth is a real change in
label-store layout.

Regenerate the baseline after an intentional perf change with::

    PYTHONPATH=src python benchmarks/perf_smoke.py --write-baseline benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import sys
from pathlib import Path

from repro.core.batch import BatchPolicy
from repro.core.calibration import calibrate_engines, calibrate_shipping
from repro.core.kernels import DEFAULT_KERNEL, HAS_NUMPY
from repro.core.stl import StableTreeLabelling
from repro.experiments.harness import measure_batch_query_qps, measure_batched_seconds
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.timer import Timer
from repro.workloads.datasets import build_dataset
from repro.workloads.updates import mixed_update_stream

SCHEMA = "repro-perf-smoke/4"

#: Query pairs measured per kernel (same pairs for both).
QUERY_PAIRS = 5_000

#: Series gated by ``--check``; everything else is trajectory-only.
GATED_SERIES = ("batched", "ls_batched")


def run_smoke(dataset: str, scale: float, updates: int, seed: int) -> dict:
    """Measure the engine x backend strategies once on one Figure 10 stream."""
    graph = build_dataset(dataset, scale=scale, seed=seed)
    stl = StableTreeLabelling.build(graph, HierarchyOptions(leaf_size=8))
    stl.batch_policy = BatchPolicy(rebuild_fraction=None)
    series: dict[str, float] = {"construction": stl.construction_seconds}

    rng = random.Random(seed)
    pairs = [
        (rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices))
        for _ in range(QUERY_PAIRS)
    ]
    queries: dict[str, object] = {
        "pairs": QUERY_PAIRS,
        "default_kernel": DEFAULT_KERNEL,
        "scalar_qps": measure_batch_query_qps(stl, pairs, kernel="scalar"),
        "vector_qps": (
            measure_batch_query_qps(stl, pairs, kernel="vector") if HAS_NUMPY else None
        ),
    }

    stream = mixed_update_stream(stl.graph, updates, factor=2.0, seed=seed)
    halves = (stream.increases(), stream.decreases())

    timer = Timer()
    with timer.measure():
        for update in stream:
            stl.apply_update(update)
    series["per_update"] = timer.elapsed

    # Every pass replays the same halves: the stream nets to zero, so the
    # graph (and therefore the labels) return to the same state in between.
    # Each series pins its engine explicitly so the policy's engine
    # crossover can never reroute a series behind its label.
    for key, parallel, engine in (
        ("batched", "serial", "pareto"),
        ("thread_sharded", "thread", "pareto"),
        ("process_sharded", "process", "pareto"),
        ("ls_batched", "serial", "label_search"),
        ("ls_thread_sharded", "thread", "label_search"),
        ("ls_process_sharded", "process", "label_search"),
    ):
        series[key], _ = measure_batched_seconds(
            stl, halves, parallel=parallel, engine=engine
        )

    shipping = calibrate_shipping(stl.graph, stl.labels).as_dict()
    engines = calibrate_engines(stl.graph, stl.hierarchy, stl.labels).as_dict()
    memory = {
        "label_store_bytes": stl.labels.store_bytes(),
        "estimate_bytes": stl.labels.memory_estimate().total_bytes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    stl.close()

    return {
        "schema": SCHEMA,
        "dataset": dataset,
        "scale": scale,
        "updates": updates,
        "seed": seed,
        "python": platform.python_version(),
        "queries": queries,
        "series": series,
        "memory": memory,
        "shipping": shipping,
        "engines": engines,
    }


def check_against_baseline(
    result: dict,
    baseline_path: Path,
    threshold: float,
    memory_threshold: float,
) -> int:
    """Return a process exit code: 0 within budget, 1 on regression."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("schema") != SCHEMA:
        print(f"baseline {baseline_path} has schema {baseline.get('schema')!r}, "
              f"expected {SCHEMA!r}")
        return 1
    code = 0
    for key in GATED_SERIES:
        reference = baseline["series"][key]
        measured = result["series"][key]
        ratio = measured / reference if reference > 0 else float("inf")
        verdict = "OK" if ratio <= threshold else "REGRESSION"
        print(f"{key}: {measured:.3f}s vs baseline {reference:.3f}s "
              f"(x{ratio:.2f}, budget x{threshold:.1f}) -> {verdict}")
        if ratio > threshold:
            code = 1

    baseline_vector = baseline.get("queries", {}).get("vector_qps")
    measured_vector = result["queries"]["vector_qps"]
    if baseline_vector is None or measured_vector is None:
        print("queries: no vector_qps on one side (no-numpy run?), skipping the guard")
    else:
        qps_ratio = baseline_vector / measured_vector if measured_vector > 0 else float("inf")
        qps_verdict = "OK" if qps_ratio <= threshold else "REGRESSION"
        print(f"vector batch_query: {measured_vector:,.0f} q/s vs baseline "
              f"{baseline_vector:,.0f} q/s (x{qps_ratio:.2f} slowdown, "
              f"budget x{threshold:.1f}) -> {qps_verdict}")
        if qps_ratio > threshold:
            code = 1

    baseline_memory = baseline.get("memory", {}).get("estimate_bytes")
    if baseline_memory is None:
        print("memory: baseline has no estimate_bytes field, skipping the guard")
        return code
    measured_memory = result["memory"]["estimate_bytes"]
    mem_ratio = (
        measured_memory / baseline_memory if baseline_memory > 0 else float("inf")
    )
    mem_verdict = "OK" if mem_ratio <= memory_threshold else "REGRESSION"
    print(f"label memory: {measured_memory} B vs baseline {baseline_memory} B "
          f"(x{mem_ratio:.2f}, budget x{memory_threshold:.1f}) -> {mem_verdict}")
    return code if mem_ratio <= memory_threshold else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="NY")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--updates", type=int, default=600)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the measurement JSON here (e.g. BENCH_ci.json)")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to compare the batched series against")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="allowed slowdown factor vs the baseline (default 2.0)")
    parser.add_argument("--memory-threshold", type=float, default=1.5,
                        help="allowed label-memory growth factor vs the baseline "
                             "(default 1.5)")
    parser.add_argument("--write-baseline", type=Path, default=None,
                        help="write the measurement as the new committed baseline")
    args = parser.parse_args(argv)

    result = run_smoke(args.dataset, args.scale, args.updates, args.seed)
    for name, seconds in result["series"].items():
        print(f"{name:>16}: {seconds:.3f}s")
    queries = result["queries"]
    line = (f"batch_query ({queries['pairs']} pairs, default={queries['default_kernel']}): "
            f"scalar {queries['scalar_qps']:,.0f} q/s")
    if queries["vector_qps"] is not None:
        line += (f", vector {queries['vector_qps']:,.0f} q/s "
                 f"(x{queries['vector_qps'] / queries['scalar_qps']:.1f})")
    print(line)
    memory = result["memory"]
    print(f"label store: {memory['label_store_bytes']} B "
          f"(estimate {memory['estimate_bytes']} B), "
          f"peak RSS {memory['peak_rss_kb']} kB")
    for m in result["shipping"]["measurements"]:
        print(f"shipping @{m['updates']:>4} updates: "
              f"slice {m['slice_bytes']} B / {m['slice_seconds'] * 1e3:.2f} ms, "
              f"delta {m['delta_bytes']} B / {m['delta_seconds'] * 1e3:.2f} ms "
              f"(x{m['bytes_ratio']:.1f} bytes, x{m['seconds_ratio']:.1f} time)")
    for m in result["engines"]["measurements"]:
        print(f"engines @{m['updates']:>4} updates: "
              f"pareto {m['pareto_seconds'] * 1e3:.2f} ms, "
              f"label_search {m['label_search_seconds'] * 1e3:.2f} ms "
              f"(x{m['speedup']:.2f})")

    for target in (args.out, args.write_baseline):
        if target is not None:
            target.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {target}")

    if args.check is not None:
        return check_against_baseline(
            result, args.check, args.threshold, args.memory_threshold
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
