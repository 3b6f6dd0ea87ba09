"""The benchmark's one command.

Driver form -- one workload, one run, one JSON object on the last line::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the timed run and reports every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` is the traced run and reports every
per-layer metric.  Without ``--workload`` every workload runs both ways, each
in a fresh subprocess, and every metric is printed as ``workload metric value
unit``.  Results and spans are written only under ``--out`` (default: a fresh
temporary directory); nothing is ever written into the tree.  The exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no library to measure under {ROOT / 'src'}")
# The script's own directory leaves the path: its module names (trace, ...)
# must not shadow the standard library's for the code under test.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

from bench import hygiene, inputs, serve_mixed, workloads  # noqa: E402
from bench.trace import Tracer  # noqa: E402

WORKLOADS = {
    "query-static": workloads.query_static,
    "update-trickle": workloads.update_trickle,
    "update-rush": workloads.update_rush,
    "serve-mixed": serve_mixed.run,
}
#: Run length of the smoke sizes (the full length is BENCHMARK.json's).
SMOKE_SECONDS = 0.5


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args: argparse.Namespace) -> int:
    """Driver form: run one workload in this process and print its result."""
    benchmark = spec()
    fingerprint = hygiene.fingerprint(args.seed)
    if fingerprint["load_average"] > (os.cpu_count() or 1):
        print(f"warning: load average {fingerprint['load_average']:.2f} exceeds the CPU count",
              file=sys.stderr)
    watch = hygiene.Watch()
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(
        scale=inputs.SMOKE if args.smoke else inputs.FULL,
        seed=args.seed, seconds=args.seconds, tracer=tracer,
    )
    result = WORKLOADS[args.workload](ctx)

    leaked_procs, leaked_mb = watch.leftovers()
    result.check((1, 1 if leaked_procs or leaked_mb else 0))
    if tracer is not None:
        result.metrics["hygiene.leaked_procs"] = leaked_procs
        result.metrics["hygiene.leaked_shm_mb"] = leaked_mb
    metrics = {}
    for meta in benchmark["per_layer" if args.trace else "end_to_end"]:
        # A per-layer metric reads 0 on a workload whose traced run does not
        # exercise that layer; every end-to-end metric exists on every workload.
        value = result.metrics.get(meta["name"], 0.0) if args.trace else result.metrics[meta["name"]]
        metrics[meta["name"]] = {"value": float(value), "unit": meta["unit"]}
    unknown = set(result.metrics) - set(metrics)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    fingerprint["load_average_after"] = os.getloadavg()[0]
    if tracer is not None:
        # Which per-layer metrics this workload's traced run is the home of.
        fingerprint["measured"] = sorted(result.metrics)
    fingerprint.update(result.info)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if tracer is not None:
            tracer.dump(str(out / f"trace-{args.workload}.jsonl"))
    print("info " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, timed then traced, each in a fresh subprocess."""
    benchmark = spec()
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="stl-bench-"))
    out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    runs = []
    status = 0
    for name in WORKLOADS:
        # Timed repeats walk consecutive seeds; the traced run uses the first.
        for trace, seed in [(0, args.seed + i) for i in range(args.repeat)] + [(1, args.seed)]:
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{name} trace={trace}: no result (exit {done.returncode})", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
            runs.append({"workload": name, "trace": trace, "info": info, **result})
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
            print(f"{name} failed_share {result['failed'] / result['attempted']:.6g} share")
            status = status or done.returncode
    (out / "results.json").write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"results and traces under {out}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process (the driver form)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for results.json and trace-*.jsonl")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed runs per workload in the all-workloads form (compare.py "
                             "needs at least 4 a side to tell a change from the spread)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that only exercise the code (used by the smoke test)")
    args = parser.parse_args(argv)
    if args.smoke and args.seconds is None:
        args.seconds = SMOKE_SECONDS
    # Every path out -- result, failed run, exception, SIGINT, SIGTERM -- stops
    # and waits for each process the run started, the shared-memory tracker
    # included.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    hygiene.adopt_orphans()
    try:
        if args.workload is None:
            return run_all(args)
        if args.seconds is None:
            args.seconds = float(spec()["run_seconds"])
        return run_one(args)
    finally:
        hygiene.shutdown()


if __name__ == "__main__":
    sys.exit(main())
