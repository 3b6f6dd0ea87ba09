"""Benchmark: Figure 10 addendum -- single-thread vs sharded batch engine.

The 1k-update workload of ``test_figure10_batch_vs_rebuild`` is replayed
through the serial :class:`repro.core.batch.BatchedParetoEngine` and through
the worker-pool :class:`repro.core.shard.ShardedBatchEngine`, recording both
wall-clocks side by side and asserting the sharded engine's equivalence
guarantee (entry-wise identical labels) on the exact workload the paper's
figure uses.

Under CPython's GIL the pool provides concurrency rather than parallel
bytecode execution, so the sharded wall-clock and the shard plan quality
(balance, residual share) are printed as diagnostics of the plan/merge
overhead, not asserted.
"""

from benchmarks.conftest import report
from repro.core.batch import BatchPolicy
from repro.core.stl import StableTreeLabelling
from repro.experiments.harness import ExperimentConfig, measure_batched_seconds
from repro.workloads.datasets import build_dataset
from repro.workloads.updates import mixed_update_stream


def test_figure10_sharded_vs_serial_1k(bench_config):
    """Sharded vs serial batch engine on the 1k-update Figure 10 workload.

    Two indexes share one hierarchy/label build; the same stream halves (a
    1,000-edge sample doubled, then restored) go through the serial engine on
    one and the sharded engine on the other, so the final labels must agree
    entry-wise -- the equivalence guarantee of
    :class:`repro.core.shard.ShardedBatchEngine` -- and both must return the
    graph to its original weights.
    """
    config = ExperimentConfig(
        datasets=bench_config.datasets[:1],
        scale=bench_config.scale,
        leaf_size=bench_config.leaf_size,
    )
    name = config.datasets[0]
    graph = build_dataset(name, scale=config.scale, seed=config.seed)
    serial_stl = StableTreeLabelling.build(graph.copy(), config.hierarchy_options())
    sharded_stl = StableTreeLabelling(
        graph.copy(),
        serial_stl.hierarchy,
        serial_stl.labels.copy(),
        construction_seconds=serial_stl.construction_seconds,
    )
    no_rebuild = BatchPolicy(rebuild_fraction=None)
    serial_stl.batch_policy = no_rebuild
    sharded_stl.batch_policy = no_rebuild

    stream = mixed_update_stream(
        serial_stl.graph, 1000, factor=config.update_factor, seed=config.seed
    )
    halves = (stream.increases(), stream.decreases())

    # Both sides pin the Pareto batch engine: this exhibit compares its serial
    # and thread-sharded phases, and an unpinned batch runs Label Search.
    serial_seconds, _ = measure_batched_seconds(
        serial_stl, halves, backend="serial", engine="pareto"
    )
    sharded_seconds, _ = measure_batched_seconds(
        sharded_stl, halves, backend="thread", engine="pareto"
    )

    plan = sharded_stl._shard_engine.planner.plan(
        stream.increases().coalesce(sharded_stl.graph)
    )
    report(
        f"Figure 10 ({name}): 1k-update workload, serial vs sharded batch engine\n"
        f"stream: {len(stream)} updates over {len(stream) // 2} distinct edges "
        f"(of {sharded_stl.graph.num_edges} in the graph)\n"
        f"shard plan: {plan.populated_shards} populated shards, "
        f"balance {plan.balance:.2f}, {len(plan.residual)} residual updates\n"
        f"serial engine [s]   | {serial_seconds:.3f}\n"
        f"sharded engine [s]  | {sharded_seconds:.3f}"
    )

    # Equivalence guarantee on the Figure 10 workload: entry-wise identical
    # labels and identical final graph weights.
    for u, v, w in graph.edges():
        assert serial_stl.graph.weight(u, v) == w
        assert sharded_stl.graph.weight(u, v) == w
    assert serial_stl.labels.equals(sharded_stl.labels)
