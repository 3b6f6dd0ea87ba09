"""Unit tests for the experiment drivers (small configurations)."""

from repro.core.batch import BatchPolicy
from repro.experiments.harness import (
    ExperimentConfig,
    build_dynamic_competitors,
    build_static_competitors,
    build_stl_variants,
    measure_query_us,
    measure_updates_per_ms,
)
from repro.experiments.reporting import format_series, format_table
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.table4 import format_table4, run_table4
from repro.experiments.table5 import format_table5, run_table5
from repro.experiments.figure8 import format_figure8, run_figure8
from repro.experiments.figure9 import format_figure9, run_figure9
from repro.experiments.figure10 import format_figure10, run_figure10
from repro.workloads.datasets import build_dataset
from repro.workloads.updates import random_update_batch
from repro.workloads.queries import random_query_pairs


TINY = ExperimentConfig(
    datasets=["NY"],
    scale=0.25,
    num_update_batches=1,
    updates_per_batch=5,
    num_query_pairs=100,
    query_sets=4,
    pairs_per_query_set=10,
    leaf_size=8,
)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 22, "bb": "z"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a " in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_series(self):
        text = format_series({"m": [1.0, 2.0]}, [10, 20], x_label="x")
        assert "10" in text and "2.000" in text


class TestHarness:
    def test_build_stl_variants_are_independent(self):
        graph = build_dataset("NY", scale=0.25, seed=1)
        variants = build_stl_variants(graph)
        assert set(variants) == {"STL-P", "STL-L"}
        assert variants["STL-P"].graph is not variants["STL-L"].graph
        assert variants["STL-P"].maintenance_mode == "pareto"
        assert variants["STL-L"].maintenance_mode == "label_search"

    def test_competitor_builders(self):
        graph = build_dataset("NY", scale=0.2, seed=1)
        dynamic = build_dynamic_competitors(graph)
        static = build_static_competitors(graph)
        assert set(dynamic) == {"IncH2H", "DTDHL"}
        assert set(static) == {"HC2L"}

    def test_batch_policy_carries_the_config_knobs(self):
        config = ExperimentConfig(
            batch_rebuild_min_updates=9, batch_rebuild_fraction=None, batch_max_workers=2
        )
        policy = config.batch_policy()
        assert policy.rebuild_min_updates == 9
        assert policy.rebuild_fraction is None
        assert policy.max_workers == 2
        assert policy == BatchPolicy(rebuild_min_updates=9, rebuild_fraction=None, max_workers=2)

    def test_measurement_helpers(self):
        graph = build_dataset("NY", scale=0.2, seed=1)
        stl = build_stl_variants(graph)["STL-P"]
        increases, _ = random_update_batch(graph, 3, seed=0)
        assert measure_updates_per_ms(stl, increases) > 0
        pairs = random_query_pairs(graph, 50, seed=0)
        assert measure_query_us(stl, pairs, warmup=10) > 0
        assert measure_updates_per_ms(stl, []) == 0.0
        assert measure_query_us(stl, []) == 0.0


class TestTableDrivers:
    def test_table2(self):
        rows = run_table2(TINY)
        assert len(rows) == 1
        assert rows[0]["network"] == "NY"
        assert "NY" in format_table2(rows)

    def test_table3_shapes_and_formatting(self):
        rows = run_table3(TINY)
        assert len(rows) == 1
        row = rows[0]
        assert set(row.increase_ms) == {"STL-P", "STL-L", "IncH2H", "DTDHL"}
        assert all(value >= 0 for value in row.increase_ms.values())
        text = format_table3(rows)
        assert "STL-P+" in text and "DTDHL- [ms]" in text

    def test_table4(self):
        rows = run_table4(TINY, include_methods=("STL", "HC2L"))
        stats = rows[0].stats
        assert set(stats) == {"STL", "HC2L"}
        assert stats["STL"].num_label_entries > 0
        assert "STL size" in format_table4(rows)

    def test_table5(self):
        rows = run_table5(TINY, include_methods=("STL", "HC2L"))
        assert set(rows[0].query_us) == {"STL", "HC2L"}
        assert all(v > 0 for v in rows[0].query_us.values())
        assert "STL [us]" in format_table5(rows)


class TestFigureDrivers:
    def test_figure8(self):
        results = run_figure8(TINY, num_factors=2)
        series = results[0]
        assert series.factors == [2.0, 3.0]
        assert set(series.series_ms) == {"STL-P+", "STL-P-", "IncH2H+", "IncH2H-"}
        assert "factor" in format_figure8(results)

    def test_figure9(self):
        results = run_figure9(TINY, include_methods=("STL",))
        series = results[0]
        assert len(series.query_sets) == TINY.query_sets
        assert len(series.series_us["STL"]) == TINY.query_sets
        assert len(series.stl_entries_scanned) == TINY.query_sets
        assert "STL entries scanned" in format_figure9(results)

    def test_figure10(self):
        results = run_figure10(TINY, group_sizes=(3, 6))
        series = results[0]
        assert series.group_sizes == [3, 6]
        assert series.reconstruction_seconds > 0
        assert len(series.maintenance_seconds) == 2
        assert "Reconstruction" in format_figure10(results)


def test_default_config_uses_bench_subset(monkeypatch):
    monkeypatch.delenv("REPRO_FULL_DATASETS", raising=False)
    config = ExperimentConfig()
    assert list(config.datasets) == ["NY", "BAY", "COL", "FLA"]
    monkeypatch.setenv("REPRO_FULL_DATASETS", "1")
    from repro.experiments.harness import default_dataset_names

    assert len(default_dataset_names()) == 10
