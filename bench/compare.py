"""Compare two result sets written by ``bench/run.py --out``.

    python3 bench/compare.py A/results.json B/results.json

``A`` is the parent, ``B`` the change.  For every workload x end-to-end metric
the verdict uses the bound ``BENCHMARK.json`` fixes for that metric:

* ``worse`` / ``better`` -- B's median differs from A's by more than the bound,
* ``same`` -- within the bound,
* ``unresolved`` -- the run-to-run spread of either side (interquartile range
  over median, known when a side holds at least four runs) is wider than the
  bound, unless every run of B reads better than every run of A.

Counts the program makes (``EXACT``) must be identical for equal seeds.  The
exit code is non-zero on any ``worse``, any count mismatch, or a higher share
of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that are counts of work, not times: they repeat exactly for a seed.
EXACT = (
    "index_mb", "hierarchy.height", "hierarchy.nodes", "labelling.entries",
    "query.entries_scanned_mean", "maint.labels_changed_per_update",
    "maint.heap_pushes_per_update", "maint.vertices_affected_per_update",
    "maint.labels_changed_per_batch_L", "parallel.shipped_weight_deltas",
)


def load(path: str) -> dict:
    """``(workload, trace) -> list of runs`` from one results file."""
    groups: dict = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        groups[run["workload"], run["trace"]].append(run)
    return groups


def values(runs: list, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def spread(samples: list[float]) -> float | None:
    if len(samples) < 4:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and B's relative worsening (negative: B is better)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worsening = sign * (statistics.median(b) - base) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        all_better = max(sign * x for x in b) < min(sign * x for x in a)
        return ("better" if all_better else "unresolved"), worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def environment(runs: list) -> set:
    return {(r["info"].get("cpu_count"), r["info"].get("numpy")) for r in runs}


def failed_share(runs: list) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[0]), load(argv[1])
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        timed_a, timed_b = a.get((workload, 0)), b.get((workload, 0))
        if not timed_a or not timed_b:
            print(f"{workload}: missing on one side")
            status = 1
            continue
        env_a, env_b = environment(timed_a), environment(timed_b)
        if env_a != env_b or any(numpy is None for _, numpy in env_a | env_b):
            print(f"{workload}: warning: environments differ or lack numpy; not comparable")
        for meta in spec["end_to_end"]:
            name = meta["name"]
            word, worsening = verdict(
                values(timed_a, name), values(timed_b, name), meta["better"], meta["bound"]
            )
            print(f"{workload} {name} {word} {worsening:+.1%} (bound {meta['bound']:.0%})")
            if word == "worse":
                status = 1
        if failed_share(timed_b) > failed_share(timed_a):
            print(f"{workload} failed_share worse")
            status = 1
        for trace in (0, 1):
            by_seed_a = {r["info"].get("seed"): r for r in a.get((workload, trace), [])}
            for run in b.get((workload, trace), []):
                twin = by_seed_a.get(run["info"].get("seed"))
                if twin is None:
                    continue
                for name in EXACT:
                    if name in run["metrics"] and (
                        run["metrics"][name]["value"] != twin["metrics"][name]["value"]
                    ):
                        print(f"{workload} {name} mismatch: {twin['metrics'][name]['value']} "
                              f"!= {run['metrics'][name]['value']}")
                        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
