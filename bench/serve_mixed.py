"""``serve-mixed``: the full stack under reads beside writes.

The server runs in a child process (``bench/serve_child.py``); this process is
the single-threaded load generator:

* ``QUERY_CONNECTIONS`` closed-loop query connections -- each sends its next
  ``{"op": "query"}`` only after the reply to the previous one, and
* one update connection on an open-loop schedule: one class-S rush-hour batch
  is *due* every ``UPDATE_PERIOD_S`` seconds whatever happened before; commit
  latency is timed from the due time and the generator's lateness is reported.

Every ``SAMPLE_EVERY``-th answer is recorded with the version that answered it
and verified afterwards against the graph state of that version.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from repro import QueryService
from repro.algorithms.dijkstra import dijkstra_with_target

from bench import hostspeed, hygiene, inputs, probes
from bench.trace import Tracer
from bench.workloads import SETUP_BUILDS, Context, Result, latency_metrics

pc = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent

QUERY_CONNECTIONS = 2
UPDATE_PERIOD_S = 2.0
SAMPLE_EVERY = 50
VERIFIED_PER_VERSION = 4
STOP_GRACE_S = 10.0
SLOW_S = 0.005
#: Under 1% of the requests meet a commit, so p99 sits in the transition
#: between the idle and the in-commit regime (it moved +-25% run to run);
#: p99.9 sits inside the in-commit regime and repeats within a few percent.
TAIL_QUANTILE = 0.999


class Connection:
    """One persistent JSON-lines connection; ``rpc`` returns ``None`` on a drop."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port, limit=1 << 24))

    async def rpc(self, payload: dict) -> dict | None:
        try:
            self.writer.write(json.dumps(payload).encode("ascii") + b"\n")
            await self.writer.drain()
            line = await self.reader.readline()
            return json.loads(line) if line else None
        except (OSError, json.JSONDecodeError):
            return None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Child:
    """The server process: spawned in its own session, stopped with SIGINT."""

    def __init__(self, process: asyncio.subprocess.Process, port: int):
        self.process, self.port = process, port
        self.index_mb = 0.0

    @classmethod
    async def spawn(cls, ctx: Context) -> tuple["Child", float]:
        """Start the server; returns it and the seconds from spawn to ready."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
        command = [sys.executable, "-m", "bench.serve_child"]
        if ctx.scale is inputs.SMOKE:
            command.append("--smoke")
        start = pc()
        process = await asyncio.create_subprocess_exec(
            *command, cwd=ROOT, env=env, stdout=asyncio.subprocess.PIPE, start_new_session=True
        )
        hygiene.SESSIONS.append(process.pid)
        child = cls(process, json.loads(await process.stdout.readline())["port"])
        ready = json.loads(await process.stdout.readline())
        seconds = pc() - start
        if not ready["ready"]:
            raise RuntimeError("server child never reached the fast path")
        child.index_mb = ready["index_mb"]
        return child, seconds

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server and of every process in its session."""
        total = 0.0
        for pid, (_, session) in hygiene.process_table().items():
            if session != self.process.pid:
                continue
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total

    async def stop(self) -> None:
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGINT)
            try:
                await asyncio.wait_for(self.process.wait(), STOP_GRACE_S)
            except asyncio.TimeoutError:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await self.process.wait()


class Load:
    """One phase of traffic against a running server."""

    def __init__(
        self, tracer: Tracer | None, result: Result, child: Child, pairs: list, batches: list,
        speed: hostspeed.Speed | None = None,
    ):
        self.tracer, self.result, self.child = tracer, result, child
        self.pairs, self.batches = pairs, batches
        self.speed = speed
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.samples: list[tuple[int, int, float, int]] = []
        self.commits: list[tuple[float, float, float, int]] = []  # due, sent, acked, version
        self.fallback = 0
        self.started = 0.0
        self._cursor = 0
        self._next_batch = 0

    async def queries(self, connection: Connection, stop_at: float) -> None:
        tracer, result = self.tracer, self.result
        while True:
            s, t = self.pairs[self._cursor % len(self.pairs)]
            self._cursor += 1
            start = pc()
            if start >= stop_at:
                return
            reply = await connection.rpc({"op": "query", "s": s, "t": t})
            end = pc()
            result.attempted += 1
            if reply is None or not reply.get("ok"):
                result.failed += 1
                if reply is None:
                    return
                continue
            self.latencies.append(end - start)
            self.starts.append(start)
            if tracer:
                tracer.add("serve.rpc.query", start, end, tracer.new_op())
            if reply["tier"] != "fast":
                self.fallback += 1
            if self._cursor % SAMPLE_EVERY == 0:
                distance = reply["distance"]
                self.samples.append(
                    (s, t, float("inf") if distance is None else distance, reply["version"])
                )

    async def updates(self, connection: Connection, started: float, stop_at: float) -> None:
        tracer, result = self.tracer, self.result
        # Short (smoke) phases still see a few commits (see qps).
        period = min(UPDATE_PERIOD_S, (stop_at - started) / 4)
        due = started + period / 2
        while due < stop_at:
            await asyncio.sleep(max(0.0, due - pc()))
            batch = self.batches[self._next_batch % len(self.batches)]
            self._next_batch += 1
            triples = [[u.u, u.v, u.new_weight] for u in batch]
            sent = pc()
            reply = await connection.rpc({"op": "update", "updates": triples})
            acked = pc()
            result.attempted += 1
            if reply is None or not reply.get("ok"):
                result.failed += 1
                return
            self.commits.append((due, sent, acked, reply["version"]))
            if tracer:
                tracer.add("serve.rpc.update", sent, acked, tracer.new_op())
            due += period

    async def host_speed(self, stop_at: float) -> None:
        """Sample the host's speed beside the traffic (one sample holds the
        loop for ~0.1 ms: a third of a percent of the requests wait for one)."""
        while pc() < stop_at:
            self.speed.sample()
            await asyncio.sleep(hostspeed.PERIOD_S)

    async def run(self, seconds: float, with_updates: bool) -> float:
        """Drive the phase for ``seconds``; returns ok replies per second."""
        connections = [await Connection.open(self.child.port) for _ in range(QUERY_CONNECTIONS)]
        updater = await Connection.open(self.child.port)
        # The load generator is not the system under test: its own collector
        # pauses would show up as server tail latency.
        gc.disable()
        try:
            started = self.started = pc()
            stop_at = started + seconds
            tasks = [self.queries(c, stop_at) for c in connections]
            if with_updates:
                tasks.append(self.updates(updater, started, stop_at))
            if self.speed is not None:
                tasks.append(self.host_speed(stop_at))
            await asyncio.gather(*tasks)
            return len(self.latencies) / (pc() - started)
        finally:
            gc.enable()
            for connection in connections + [updater]:
                await connection.close()

    def qps(self, seconds: float) -> float:
        """Ok replies per second over the whole update periods of the phase.

        Every period holds exactly one commit.  Each period's count is
        multiplied by the host-speed factor of that period before they are
        averaged (with that, the mean over the periods repeats better than
        their median: the periods differ, one batch of the cycle each).
        """
        period = min(UPDATE_PERIOD_S, seconds / 4)
        counts = [0] * int(seconds / period)
        for start, latency in zip(self.starts, self.latencies):
            index = int((start + latency - self.started) / period)
            if index < len(counts):
                counts[index] += 1
        self.result.info["period_replies"] = counts
        scaled = [
            count * self.speed.factor(self.started + index * period, self.started + (index + 1) * period)
            for index, count in enumerate(counts)
        ]
        return statistics.mean(scaled) / period

    def verify(self, graph: Any) -> None:
        """Check recorded answers against the graph state of their version."""
        by_version: dict[int, list] = {}
        for sample in self.samples:
            by_version.setdefault(sample[3], []).append(sample)
        state = graph.copy()
        applied = 0
        commit_versions = [version for _, _, _, version in self.commits]
        for version in sorted(by_version):
            # Bring the mirror to this version: one cycle batch per commit.
            while applied < len(commit_versions) and commit_versions[applied] <= version:
                for update in self.batches[applied % len(self.batches)]:
                    state.set_weight(update.u, update.v, update.new_weight)
                applied += 1
            for s, t, distance, _ in by_version[version][:VERIFIED_PER_VERSION]:
                expected = dijkstra_with_target(state, s, t)
                self.result.check((1, 0 if inputs.distances_agree(expected, distance) else 1))


async def wire_layers(ctx: Context, result: Result, child: Child, pairs: list, batches: list) -> None:
    """Traced run only: the server with nothing else to do, over the wire."""
    tracer, m = ctx.tracer, result.metrics
    await Load(None, result, child, pairs, batches).run(ctx.seconds / 15, with_updates=False)  # warm
    idle = Load(None, result, child, pairs, batches)
    m["server.idle_qps"] = await idle.run(ctx.seconds / 6, with_updates=False)
    m["server.idle_rpc_us_p50"] = probes.median_us(idle.latencies)
    traced = Load(tracer, result, child, pairs, batches)
    await traced.run(ctx.seconds / 6, with_updates=False)
    m["trace.overhead_share"] = (
        statistics.median(traced.latencies) / statistics.median(idle.latencies) - 1.0
    )

    connection = await Connection.open(child.port)
    try:
        stats = await connection.rpc({"op": "stats"})
        m["serve.build_s"] = stats["stats"]["build_seconds"]
        m["serve.build_label_s"] = stats["stats"]["build_label_seconds"]
        request = {"op": "batch_query", "pairs": [list(p) for p in pairs[:1000]]}
        answered, started = 0, pc()
        while pc() - started < ctx.seconds / 15:
            start = pc()
            reply = await connection.rpc(request)
            tracer.add("serve.rpc.batch_query", start, pc(), tracer.new_op())
            result.check((1, 0 if reply and reply.get("ok") else 1))
            answered += len(request["pairs"])
        m["server.batch1k_qps"] = answered / (pc() - started)
    finally:
        await connection.close()

    query = {"op": "query", "s": 17, "t": 912}
    reply = {"ok": True, "distance": 1234.5, "tier": "fast", "version": 3}
    samples = []
    for _ in range(2000):
        start = pc()
        json.loads(json.dumps(query).encode("ascii"))
        json.loads(json.dumps(reply).encode("ascii"))
        samples.append(pc() - start)
    m["server.codec_us"] = probes.median_us(samples)


def commit_layers(result: Result, load: Load, seconds: float) -> None:
    """Split the mixed phase by whether a commit was in flight."""
    m = result.metrics
    windows = [(sent, acked) for _, sent, acked, _ in load.commits]
    busy = sum(acked - sent for sent, acked in windows)
    inside = []
    outside = 0
    for start, latency in zip(load.starts, load.latencies):
        if any(sent <= start < acked for sent, acked in windows):
            inside.append(latency)
        else:
            outside += 1
    m["serve.commit_busy_share"] = busy / seconds
    m["serve.qps_in_commit"] = len(inside) / busy if busy else 0.0
    m["serve.qps_between_commits"] = outside / (seconds - busy)
    m["serve.query_us_p99_in_commit"] = (
        inputs.percentile(sorted(inside), 0.99) * 1e6 if inside else 0.0
    )
    m["serve.slow_share_5ms"] = sum(1 for x in load.latencies if x > SLOW_S) / len(load.latencies)
    m["serve.commit_s_p50"] = statistics.median(acked - due for due, _, acked, _ in load.commits)
    m["serve.updater_late_s_max"] = max(sent - due for due, sent, _, _ in load.commits)
    m["serve.fallback_queries"] = load.fallback


async def service_layers(ctx: Context, result: Result, graph: Any, far: list, near: list, batches: list) -> None:
    """Traced run only: peel the round trip with an in-process service (no TCP)."""
    tracer, m = ctx.tracer, result.metrics
    async with QueryService(graph.copy()) as service:
        await service.wait_ready()
        snapshot = service.active_snapshot
        probes.query_peel(tracer, m, snapshot.hierarchy, snapshot.labels, far, near)
        pairs = (far[: probes.PEEL_PAIRS // 2] + near[: probes.PEEL_PAIRS // 2])
        samples = []
        for s, t in pairs:
            start = pc()
            snapshot.acquire()
            snapshot.distance(s, t)
            snapshot.release()
            end = pc()
            samples.append(end - start)
            tracer.add("core.snapshot.distance", start, end)
        m["snapshot.distance_us"] = probes.median_us(samples)
        samples = []
        for s, t in pairs:
            start = pc()
            await service.distance(s, t)
            end = pc()
            samples.append(end - start)
            tracer.add("serve.service.distance", start, end)
        m["service.distance_us"] = probes.median_us(samples)
        start = pc()
        await service.submit([(u.u, u.v, u.new_weight) for u in batches[0]])
        end = pc()
        tracer.add("serve.service.submit", start, end)
        m["service.submit_s_idle"] = end - start
    m["server.self_us"] = m["server.idle_rpc_us_p50"] - m["service.distance_us"]


async def main(ctx: Context, result: Result) -> None:
    tracer = ctx.tracer
    rng = random.Random(ctx.seed)
    graph = inputs.dataset(ctx.scale)
    far, near = inputs.query_pairs(graph, ctx.scale, rng)
    pairs = far + near
    rng.shuffle(pairs)
    batches = inputs.size_class(graph, ctx.scale, "S")
    result.info["batch_sizes"] = {"S": len(batches[0])}

    # The timed run divides its times by the host-speed factor of their
    # moment, as the library workloads do (see hostspeed).
    speed = hostspeed.Speed()
    spawn_s = []
    child = None
    for _ in range(SETUP_BUILDS if tracer is None else 1):
        if child is not None:
            await child.stop()
        speed.sample(hostspeed.SMOOTH)
        start = pc()
        with speed.during():
            child, seconds = await Child.spawn(ctx)
        speed.sample(hostspeed.SMOOTH)
        spawn_s.append(seconds / speed.factor(start, start + seconds))
    assert child is not None
    try:
        if tracer is not None:
            await wire_layers(ctx, result, child, pairs, batches)
        load = Load(tracer, result, child, pairs, batches, None if tracer else speed)
        seconds = ctx.seconds if tracer is None else ctx.seconds * 2 / 3
        await load.run(seconds, with_updates=True)
        peak = child.peak_rss_mb()
    finally:
        await child.stop()
    load.verify(graph)
    result.info["commit_s"] = [round(acked - sent, 3) for _, sent, acked, _ in load.commits]
    if tracer is None:
        scaled = [x / speed.factor(at) for x, at in zip(load.latencies, load.starts)]
        latency_metrics(result, scaled, TAIL_QUANTILE, load.qps(seconds))
        # The tail is two 5 ms GIL switch intervals -- timers, which a slower
        # host does not stretch -- so it stays the wall time.
        result.metrics["op_us_tail"] = inputs.percentile(sorted(load.latencies), TAIL_QUANTILE) * 1e6
        result.info["host_speed_factor"] = speed.median_factor()
        result.metrics["setup_s"] = statistics.median(spawn_s)
        result.metrics["index_mb"] = child.index_mb
        result.metrics["peak_rss_mb"] = peak
    else:
        commit_layers(result, load, seconds)
        await service_layers(ctx, result, graph, far, near, batches)


def run(ctx: Context) -> Result:
    result = Result()
    asyncio.run(main(ctx, result))
    return result
