"""Benchmark: Figure 9 -- query time under varying query distances (Q1..Q10)."""

from benchmarks.conftest import report
from repro.experiments.figure9 import format_figure9, run_figure9
from repro.experiments.harness import ExperimentConfig


def test_figure9_report(benchmark, bench_config):
    """Regenerate and print the Figure 9 series."""
    config = ExperimentConfig(
        datasets=bench_config.datasets[:1],
        scale=bench_config.scale,
        query_sets=10,
        pairs_per_query_set=60,
        leaf_size=bench_config.leaf_size,
    )
    results = benchmark.pedantic(run_figure9, args=(config,), rounds=1, iterations=1)
    report(format_figure9(results))
    for series in results:
        assert len(series.query_sets) == 10
        # The timings are exhibits; the claim behind them is asserted on its
        # cause.  Long-range STL queries scan only the small high-level cuts:
        # fewer label entries (common ancestors) per pair than short-range ones.
        scanned = series.stl_entries_scanned
        assert scanned[-1] < scanned[0]
