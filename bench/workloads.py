"""The three library workloads: ``query-static``, ``update-trickle``, ``update-rush``.

Each function runs one workload in this process and returns a ``Result``:
end-to-end metrics from a timed run (``ctx.tracer is None``) or per-layer
metrics from a traced run.  Answers are checked against Dijkstra outside the
timed regions; every disagreement counts as a failed operation.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator

import repro
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate

from bench import hostspeed, inputs, probes
from bench.trace import Tracer

pc = time.perf_counter

#: ``open_network`` runs this many times per timed run; ``setup_s`` is the median.
SETUP_BUILDS = 3
POINT_CHUNK = 1_000
BATCH_CHUNK = 10_000
#: Traced replays run fixed op counts so their exact counts repeat for a seed.
TRACED_POINT_CHUNKS = 20
TRACED_TRICKLE_EDGES = 100
#: ``update-trickle`` samples the host speed once per this many edges (~15 ms).
TRICKLE_EDGES_PER_SAMPLE = 5


@dataclass
class Context:
    scale: inputs.Scale
    seed: int
    seconds: float
    tracer: Tracer | None


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def check(self, checked_wrong: tuple[int, int]) -> None:
        self.attempted += checked_wrong[0]
        self.failed += checked_wrong[1]


def open_index(graph: Graph, builds: int) -> tuple[Any, float]:
    """Build the default index ``builds`` times; keep the last, report the median.

    Each build's seconds are divided by the host-speed factor sampled around
    and during it.
    """
    spans = []
    speed = hostspeed.Speed()
    stl = None
    for _ in range(builds):
        if stl is not None:
            stl.close()
        speed.sample(hostspeed.SMOOTH)
        with speed.during():
            start = pc()
            stl = repro.open_network(graph)
            spans.append((start, pc()))
    speed.sample(hostspeed.SMOOTH)
    return stl, statistics.median((end - start) / speed.factor(start, end) for start, end in spans)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def latency_metrics(result: Result, latencies: Any, tail: float, ops_per_s: float) -> None:
    """``op_us_p50``, ``op_us_tail`` (the ``tail`` quantile; 1.0 = maximum), ``ops_per_s``."""
    ordered = sorted(latencies)
    result.metrics["op_us_p50"] = statistics.median(ordered) * 1e6
    result.metrics["op_us_tail"] = inputs.percentile(ordered, tail) * 1e6
    result.metrics["ops_per_s"] = ops_per_s
    result.info["latency_samples"] = len(ordered)


@contextmanager
def index_for(ctx: Context, result: Result, graph: Graph, built: Any = None) -> Iterator[Any]:
    """The workload's default index, closed on exit.

    A timed run builds it ``SETUP_BUILDS`` times and, on the way out, reports
    the set-up, size and memory metrics every workload shares.
    """
    if built is not None:
        stl, setup_s = built, 0.0
    else:
        stl, setup_s = open_index(graph, SETUP_BUILDS if ctx.tracer is None else 1)
    try:
        yield stl
        index_mb = stl.stats().bytes_total / 1e6
    finally:
        stl.close()
    if ctx.tracer is None:
        result.metrics["setup_s"] = setup_s
        result.metrics["index_mb"] = index_mb
        result.metrics["peak_rss_mb"] = peak_rss_mb()


# --------------------------------------------------------------------------- #
# query-static
# --------------------------------------------------------------------------- #


def query_static(ctx: Context) -> Result:
    """Read-only: point queries through ``stl.query`` and bulk ``stl.batch_query``."""
    result = Result()
    tracer = ctx.tracer
    rng = random.Random(ctx.seed)
    if tracer is not None:
        graph, built = probes.construction(ctx, result)
    else:
        graph, built = inputs.dataset(ctx.scale), None
    with index_for(ctx, result, graph, built) as stl:
        far, near = inputs.query_pairs(graph, ctx.scale, rng)
        pairs = far + near
        rng.shuffle(pairs)

        point_s = array("d")
        chunk_s: list[float] = []
        cursor = 0
        batch_chunk = min(BATCH_CHUNK, len(pairs))

        def take(count: int) -> list[tuple[int, int]]:
            nonlocal cursor
            if cursor + count > len(pairs):
                cursor = 0
            cursor += count
            return pairs[cursor - count : cursor]

        def one_round(record: Tracer | None) -> None:
            query, append = stl.query, point_s.append
            op = record.new_op() if record else 0
            with record.span("chunk.point_queries", op) if record else nullcontext():
                for s, t in take(POINT_CHUNK):
                    start = pc()
                    query(s, t)
                    end = pc()
                    append(end - start)
                    if record:
                        record.add("stl.query", start, end, op)
            big = take(batch_chunk)
            start = pc()
            answers = stl.batch_query(big)
            end = pc()
            chunk_s.append((end - start) / len(big))
            if record:
                record.add("stl.batch_query", start, end, record.new_op())
            result.attempted += POINT_CHUNK + len(answers)

        if tracer is None:
            speed = hostspeed.Speed()
            rounds = []
            deadline = pc() + ctx.seconds
            while pc() < deadline:
                speed.sample()
                rounds.append(pc())
                one_round(None)
            # Every round's times are divided by the host-speed factor of its moment.
            factors = [speed.factor(at) for at in rounds]
            point = [x / factors[i // POINT_CHUNK] for i, x in enumerate(point_s)]
            chunks = [x / factor for x, factor in zip(chunk_s, factors)]
            # The first chunks warm the kernel's cached array views.
            steady = chunks[5:] or chunks
            latency_metrics(result, point, 0.99, 1.0 / statistics.median(steady))
            result.info["host_speed_factor"] = speed.median_factor()
        else:
            # Same op count three times: to warm up, untraced, traced.
            medians = []
            for record in (None, None, tracer):
                del point_s[:]
                for _ in range(TRACED_POINT_CHUNKS):
                    one_round(record)
                medians.append(statistics.median(point_s))
            result.metrics["trace.overhead_share"] = medians[2] / medians[1] - 1.0
            probes.query_layers(ctx, result, stl, far, near)

        # Correctness, outside the timed region: Dijkstra oracle on point
        # answers, and bulk answers against point answers on one chunk.
        result.check(inputs.oracle_failures(graph, stl.query, ctx.scale, rng, rounds=10))
        sample = take(batch_chunk)
        bulk = stl.batch_query(sample)
        wrong = sum(
            1 for (s, t), d in zip(sample, bulk) if not inputs.distances_agree(stl.query(s, t), d)
        )
        result.check((len(sample), wrong))
    return result


# --------------------------------------------------------------------------- #
# update-trickle
# --------------------------------------------------------------------------- #


def update_trickle(ctx: Context) -> Result:
    """Write-only, one update at a time: each sampled edge doubled, then restored."""
    result = Result()
    tracer = ctx.tracer
    rng = random.Random(ctx.seed)
    graph = inputs.dataset(ctx.scale)
    with index_for(ctx, result, graph) as stl:
        edges = inputs.trickle_edges(graph, ctx.seconds, rng)
        before = stl.labels.copy()
        latencies: list[float] = []
        kinds: list[bool] = []
        speed = hostspeed.Speed()
        starts: list[float] = []

        def run(sample: list[tuple[int, int, float]], record: Tracer | None) -> None:
            for number, (u, v, w) in enumerate(sample):
                if number % TRICKLE_EDGES_PER_SAMPLE == 0:
                    speed.sample()
                increase = EdgeUpdate(u, v, w, 2.0 * w)
                op = record.new_op() if record else 0
                for update in (increase, increase.reversed()):
                    start = pc()
                    stats = stl.apply_update(update)
                    end = pc()
                    latencies.append(end - start)
                    starts.append(start)
                    kinds.append(update is increase)
                    if record:
                        record.add("stl.apply_update", start, end, op)
                        for key in probes.MAINTENANCE_COUNTS:
                            record.count(f"maint.{key}", getattr(stats, key))
                result.attempted += 2
                if len(latencies) % 500 == 0:
                    result.check(inputs.oracle_failures(graph, stl.query, ctx.scale, rng, rounds=3))

        if tracer is None:
            run(edges, None)
            # Every update's time is divided by the host-speed factor of its moment.
            scaled = [x / speed.factor(at) for x, at in zip(latencies, starts)]
            latency_metrics(result, scaled, 0.99, len(scaled) / sum(scaled))
            result.info["host_speed_factor"] = speed.median_factor()
        else:
            # The same edges three times: to warm up, untraced, traced.
            sample = edges[:TRACED_TRICKLE_EDGES]
            medians = []
            for record in (None, None, tracer):
                del latencies[:], kinds[:], starts[:]
                run(sample, record)
                medians.append(statistics.median(latencies))
            result.metrics["trace.overhead_share"] = medians[2] / medians[1] - 1.0
            probes.trickle_layers(tracer, result, stl, sample, latencies, kinds)

        # Every edge was restored, so the labels must be back where they started.
        result.check(inputs.oracle_failures(graph, stl.query, ctx.scale, rng, rounds=3))
        result.check((1, 0 if stl.labels.equals(before) else 1))
    return result


# --------------------------------------------------------------------------- #
# update-rush
# --------------------------------------------------------------------------- #


def update_rush(ctx: Context) -> Result:
    """Write-only, coalesced rush-hour batches through ``stl.apply_batch``."""
    result = Result()
    tracer = ctx.tracer
    rng = random.Random(ctx.seed)
    graph = inputs.dataset(ctx.scale)
    with index_for(ctx, result, graph) as stl:
        cycles = {name: inputs.size_class(graph, ctx.scale, name) for name in ("M", "L")}
        result.info["batch_sizes"] = {name: len(cycle[0]) for name, cycle in cycles.items()}
        before = stl.labels.copy()
        spans: list[tuple[float, float]] = []  # start and end of every batch
        nets: list[int] = []
        speed = hostspeed.Speed()

        def apply(name: str, batch: Any, record: Tracer | None) -> float:
            speed.sample(hostspeed.SMOOTH)
            with speed.during():
                start = pc()
                stats = stl.apply_batch(batch)
                end = pc()
            spans.append((start, end))
            net = stats.extra["net_updates"]
            nets.append(net)
            result.attempted += net
            result.info.setdefault("chosen", {})[name] = probes.chosen_cell(stats)
            if record:
                record.add(f"stl.apply_batch.{name}", start, end, record.new_op())
            result.check(inputs.oracle_failures(graph, stl.query, ctx.scale, rng, rounds=1))
            return end - start

        if tracer is None:
            # Pool start-up is paid once per index lifetime, so it is warmed
            # here, outside the timed region, as a long-lived index has paid it.
            warm = cycles["L"][0]
            stl.apply_batch(warm)
            stl.apply_batch(warm.reversed())
            # Whole units only (one M cycle + one L cycle nets to zero):
            # another unit starts while one more is expected to fit.
            started = pc()
            units = 0
            while True:
                for name in ("M", "L"):
                    for batch in cycles[name]:
                        apply(name, batch, None)
                units += 1
                elapsed = pc() - started
                if elapsed + elapsed / units > ctx.seconds:
                    break
            # Every batch's time is divided by the host-speed factor sampled
            # around and during it.
            speed.sample(hostspeed.SMOOTH)
            scaled = [(end - start) / speed.factor(start, end) for start, end in spans]
            # Per-update latency of a dozen batches: the tail is the costliest one.
            latency_metrics(
                result, [x / net for x, net in zip(scaled, nets)], 1.0, sum(nets) / sum(scaled)
            )
            result.info["batch_s"] = [round(end - start, 3) for start, end in spans]
            result.info["host_speed_factor"] = speed.median_factor()
        else:
            # The M cycle three times: to warm up, untraced, traced.
            passes = [
                [apply("M", batch, record) for batch in cycles["M"]]
                for record in (None, None, tracer)
            ]
            result.metrics["trace.overhead_share"] = sum(passes[2]) / sum(passes[1]) - 1.0
            result.metrics["batch.auto.M_s"] = statistics.median(passes[2])
            probes.rush_layers(ctx, result, stl, cycles)

        result.check((1, 0 if stl.labels.equals(before) else 1))
    return result
