"""Smoke test of the benchmark harness (collected by the tier-1 suite).

Runs every workload, timed and traced, at ``--smoke`` sizes and checks the
harness's contract with ``BENCHMARK.json``; it measures nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def tree() -> set[str]:
    listing = set()
    for directory, names, files in os.walk(ROOT):
        names[:] = [name for name in names if name not in IGNORED]
        listing.update(os.path.join(directory, name) for name in files)
    return listing


def test_every_metric_is_emitted_and_nothing_leaks(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = tree()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert tree() == before, "the benchmark wrote inside the repository"

    runs = json.loads((tmp_path / "results.json").read_text())["runs"]
    assert {(run["workload"], run["trace"]) for run in runs} == {
        (workload["name"], trace) for workload in spec["workloads"] for trace in (0, 1)
    }
    measured_somewhere = set()
    for run in runs:
        expected = spec["per_layer"] if run["trace"] else spec["end_to_end"]
        assert set(run["metrics"]) == {meta["name"] for meta in expected}
        for meta in expected:
            assert run["metrics"][meta["name"]]["unit"] == meta["unit"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        if run["trace"]:
            assert run["metrics"]["hygiene.leaked_procs"]["value"] == 0
            assert run["metrics"]["hygiene.leaked_shm_mb"]["value"] == 0
            assert (tmp_path / f"trace-{run['workload']}.jsonl").stat().st_size > 0
        else:
            assert all(entry["value"] > 0 for entry in run["metrics"].values())
        measured_somewhere.update(run["info"].get("measured", []))
    unmeasured = {meta["name"] for meta in spec["per_layer"]} - measured_somewhere
    assert not unmeasured, f"per-layer metrics no workload measures: {sorted(unmeasured)}"
