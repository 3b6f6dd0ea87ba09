"""Shared configuration for the benchmark suite.

Every benchmark regenerates one exhibit (table or figure) of the paper's
evaluation on the scaled synthetic datasets.  The defaults are sized so the
whole suite runs in a few minutes of pure-Python time; export

* ``REPRO_FULL_DATASETS=1`` to cover all ten datasets, and/or
* ``REPRO_BENCH_SCALE=<float>`` to grow every dataset proportionally,

to trade time for fidelity.  The printed tables are the artefacts; run with
``--exhibits-out PATH`` to also write them to a file.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.exhibits import persist_to, report  # noqa: F401 - report is re-exported
from repro.experiments.harness import ExperimentConfig, default_dataset_names


def bench_scale() -> float:
    """Dataset scale factor for benchmarks (REPRO_BENCH_SCALE, default 0.5)."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
    except ValueError:
        return 0.5


def bench_datasets(limit: int = 2) -> list[str]:
    """Datasets exercised by the heavier benchmarks (first ``limit`` by default)."""
    names = default_dataset_names()
    if os.environ.get("REPRO_FULL_DATASETS", "").strip() in ("1", "true", "yes"):
        return names
    return names[:limit]


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Benchmark-sized experiment configuration."""
    return ExperimentConfig(
        datasets=bench_datasets(),
        scale=bench_scale(),
        num_update_batches=2,
        updates_per_batch=20,
        num_query_pairs=2_000,
        query_sets=10,
        pairs_per_query_set=40,
    )


@pytest.fixture(scope="session", autouse=True)
def _exhibit_file(request):
    """Persist this session's exhibits only under ``--exhibits-out PATH``.

    pytest captures the stdout of passing tests, so the flag is how the
    printed tables reach a file; without it nothing is written.
    """
    persist_to(request.config.getoption("--exhibits-out"))
    yield
    persist_to(None)
