"""Figure 9 -- query time under varying query distances (sets Q1..Q10).

Short-range queries hit deep, vertex-rich common-ancestor prefixes, long-range
queries hit only the small high-level cuts; the figure shows STL beating
IncH2H clearly on the long-range sets while being comparable (or slightly
slower) on short-range ones, with HC2L fastest on short/medium ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.hc2l import HC2L
from repro.baselines.inch2h import IncH2H
from repro.core.stl import StableTreeLabelling
from repro.experiments.harness import ExperimentConfig, measure_query_us
from repro.experiments.reporting import format_series
from repro.workloads.datasets import build_dataset
from repro.workloads.queries import distance_stratified_query_sets


@dataclass
class Figure9Series:
    """Per-dataset query times for the distance-stratified query sets.

    ``stl_entries_scanned`` holds, per bucket, the mean number of label
    entries (common ancestors) an STL query scans -- the cause behind the
    STL timing series, and empty when STL is not measured.
    """

    network: str
    query_sets: list[int] = field(default_factory=list)
    series_us: dict[str, list[float]] = field(default_factory=dict)
    stl_entries_scanned: list[float] = field(default_factory=list)


def run_figure9(
    config: ExperimentConfig | None = None,
    include_methods: tuple[str, ...] = ("STL", "HC2L", "IncH2H"),
) -> list[Figure9Series]:
    """Measure query times per distance bucket for every configured dataset."""
    config = config or ExperimentConfig()
    results: list[Figure9Series] = []
    for name in config.datasets:
        graph = build_dataset(name, scale=config.scale, seed=config.seed)
        buckets = distance_stratified_query_sets(
            graph,
            num_sets=config.query_sets,
            pairs_per_set=config.pairs_per_query_set,
            seed=config.seed,
        )
        indexes: dict[str, object] = {}
        stl = None
        if "STL" in include_methods:
            stl = StableTreeLabelling.build(graph.copy(), config.hierarchy_options())
            indexes["STL"] = stl
        if "HC2L" in include_methods:
            indexes["HC2L"] = HC2L.build(graph.copy(), leaf_size=config.leaf_size)
        if "IncH2H" in include_methods:
            indexes["IncH2H"] = IncH2H.build(graph.copy())

        series = Figure9Series(network=name)
        series.query_sets = list(range(1, len(buckets) + 1))
        series.series_us = {method: [] for method in indexes}
        for bucket in buckets:
            for method, index in indexes.items():
                series.series_us[method].append(measure_query_us(index, bucket))
        if stl is not None:
            series.stl_entries_scanned = [
                sum(stl.hierarchy.num_common_ancestors(s, t) for s, t in bucket) / len(bucket)
                for bucket in buckets
            ]
        results.append(series)
    return results


def format_figure9(results: list[Figure9Series]) -> str:
    """Render the Figure 9 series as per-dataset tables."""
    blocks = []
    for series in results:
        columns = dict(series.series_us)
        if series.stl_entries_scanned:
            columns["STL entries scanned"] = series.stl_entries_scanned
        blocks.append(
            format_series(
                columns,
                series.query_sets,
                title=f"Figure 9 ({series.network}): query time [us] vs query set Q_i",
                x_label="Q_i",
            )
        )
    return "\n\n".join(blocks)
