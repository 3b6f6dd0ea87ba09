"""Benchmark inputs: the fixed dataset and the seeded traffic over it.

The road network ``hw10k`` and its rush-hour congestion zones are the
*dataset*: like the paper's NY/FLA graphs they are the same on every run.
``--seed`` drives the *traffic* -- query pairs, the order of the trickle
workload's edges and every oracle sample.  The split is deliberate: the cost
of a congestion batch varies 2-5x with where its zones fall in the hierarchy
(measured while sizing the benchmark; see README "Why the dataset is fixed"),
which no run of a few seconds can average out, whereas query traffic drawn
over 100 000 pairs is steady across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro import generators
from repro.algorithms.dijkstra import dijkstra
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.workloads.updates import rush_hour_stream

#: Seed of the dataset's graph (topology and free-flow weights).
DATASET_SEED = 1
#: Seeds of the dataset's congestion zones, one per size class.  Chosen, with
#: ``DATASET_SEED``, so that one M cycle plus one L cycle under the default
#: config fits the measuring window on the 2-core sizing box (~13 s).
ZONE_SEEDS = {"S": 102, "M": 103, "L": 6}


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` only exercises the code."""

    vertices: int
    #: class name -> (target net updates of the first batch, hotspot radius)
    classes: dict[str, tuple[int, int]]
    distinct_pairs: int
    near_sources: int
    #: One oracle round = one Dijkstra source and this many checked targets.
    oracle_targets: int


#: S/M/L straddle ``BatchPolicy``'s thresholds (192 thread-sharding, 384
#: process backend + Pareto engine): S below both, M between, L above.
FULL = Scale(
    vertices=10_000,
    classes={"S": (70, 2), "M": (300, 3), "L": (600, 5)},
    distinct_pairs=100_000,
    near_sources=1_000,
    oracle_targets=50,
)
SMOKE = Scale(
    vertices=400,
    classes={"S": (6, 1), "M": (16, 1), "L": (40, 1)},
    distinct_pairs=2_000,
    near_sources=40,
    oracle_targets=10,
)

#: Hop radius of a ``near`` query pair.
NEAR_HOPS = 8
#: Size of the trickle workload's edge pool per second of run length: on the
#: sizing box a doubled-then-restored edge costs ~15 ms on average.
TRICKLE_EDGES_PER_SECOND = 60


def dataset(scale: Scale) -> Graph:
    """The road network every workload runs on."""
    return generators.highway_grid_network(scale.vertices, seed=DATASET_SEED)


def size_class(graph: Graph, scale: Scale, name: str) -> list[UpdateBatch]:
    """The non-empty batches of one rush-hour cycle of class ``name``.

    Hotspots are added (same zone seed, so earlier zones are kept) until the
    first batch reaches the class target.  The cycle nets to zero: applying
    all its batches in order returns every weight to its starting value.
    """
    target, radius = scale.classes[name]
    hotspots = 1
    while True:
        stream = rush_hour_stream(
            graph, num_steps=8, num_hotspots=hotspots, radius=radius,
            seed=ZONE_SEEDS[name],
        )
        cycle = [batch for batch in stream if len(batch)]
        if len(cycle[0]) >= target:
            return cycle
        hotspots += 1


Pairs = list[tuple[int, int]]


def query_pairs(graph: Graph, scale: Scale, rng: random.Random) -> tuple[Pairs, Pairs]:
    """Query pairs ``(far, near)``, half of ``distinct_pairs`` each.

    ``far`` pairs are uniform random and meet near the root of the hierarchy;
    ``near`` targets lie within ``NEAR_HOPS`` hops of their source, so their
    common label prefix is long (deep LCA) and a query scans more entries.
    """
    n = graph.num_vertices
    half = scale.distinct_pairs // 2
    far = [(rng.randrange(n), rng.randrange(n)) for _ in range(half)]
    near: Pairs = []
    per_source = max(1, half // scale.near_sources)
    for _ in range(scale.near_sources):
        source = rng.randrange(n)
        ball = hop_ball(graph, source, NEAR_HOPS)
        near.extend((source, rng.choice(ball)) for _ in range(per_source))
    return far, near


def hop_ball(graph: Graph, centre: int, radius: int) -> list[int]:
    """Vertices within ``radius`` hops of ``centre`` (sorted, centre included)."""
    seen = {centre}
    frontier = [centre]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for u, _ in graph.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


def trickle_edges(graph: Graph, seconds: float, rng: random.Random) -> list[tuple[int, int, float]]:
    """The trickle workload's edges: a fixed pool of the dataset, in seeded order.

    The cost of one update is heavy-tailed in the edge (p99 is ~90x p50), so
    the mean over any sample a run can afford follows the few costly edges it
    happened to draw.  The pool is therefore part of the dataset; the seed
    only orders it.
    """
    edges = list(graph.edges())
    count = min(len(edges), max(1, round(TRICKLE_EDGES_PER_SECOND * seconds)))
    pool = random.Random(DATASET_SEED).sample(edges, count)
    rng.shuffle(pool)
    return pool


def oracle_failures(
    graph: Graph, answer, scale: Scale, rng: random.Random, rounds: int
) -> tuple[int, int]:
    """Check ``answer(s, t)`` against Dijkstra on ``graph``; ``(checked, wrong)``.

    Each round runs one single-source search and checks ``oracle_targets``
    answers against it, so a round costs a few tens of milliseconds.
    """
    n = graph.num_vertices
    checked = wrong = 0
    for _ in range(rounds):
        source = rng.randrange(n)
        truth = dijkstra(graph, source)
        for _ in range(scale.oracle_targets):
            target = rng.randrange(n)
            checked += 1
            if not distances_agree(truth[target], answer(source, target)):
                wrong += 1
    return checked, wrong


def distances_agree(expected: float, got: float) -> bool:
    if math.isinf(expected) or math.isinf(got):
        return expected == got
    return abs(expected - got) <= 1e-6 * max(1.0, abs(expected))


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]
