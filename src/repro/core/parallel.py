"""Process-pool shard backend: resident workers on shared label memory.

PR 2's :class:`repro.core.shard.ShardedBatchEngine` fans only the *read-only*
increase mark phases out to a thread pool; every label-writing phase stays
serial, so under the GIL the sharded path is bounded by single-core repair
speed.  This backend runs whole shard sub-batches -- decreases included -- in
true parallel on worker *processes*, without changing the planner or the
policy.

**Residency model.**  Label entries live in one flat CSR buffer
(:class:`repro.core.labelling.STLLabels`), which the coordinator moves into a
``multiprocessing.shared_memory`` segment when the pool starts
(:meth:`STLLabels.share_into`).  Each worker process maps the segment once,
at startup, and builds its own ``STLLabels`` facade over the mapping -- the
same bytes the coordinator sees.  From then on **no label data is ever
shipped in either direction**; per batch the coordinator ships only

* the worker's shard sub-batches (the update records themselves), and
* the adjacency rows of the worker's owned vertices at the master graph's
  current weights -- once before the mark round and once more, with the
  batch's weights landed, before the decrease round.  A worker keeps no
  adjacency state of its own between batches, so whatever wrote the master
  graph in between, the worker sees it.

**Ownership and race freedom.**  Each worker owns the
:class:`repro.core.shard.ShardPlanner` regions assigned to it (``region_id %
worker_count``).  Shared-memory writes are race-free *by phase discipline*,
not by locking:

* workers write label rows only during their two phases, and only rows of
  vertices they own -- ownership sets are disjoint by construction;
* the coordinator writes labels only *between* worker phases (escape
  settlement, the combined increase repair, the residual engine), while
  every worker is blocked on its pipe waiting for the next message.

The strict request/reply alternation over each worker's pipe is the
synchronisation point: a worker cannot observe a coordinator write while the
coordinator is mutating, and vice versa.

**Confinement and escapes.**  Searches a worker runs are confined to its
owned vertices.  By the planner's separator property no edge joins two
regions, so the only way a search frontier can leave the owned set is
through a separator vertex.  Such a crossing is not followed -- it is
captured as an *escape record* ``(distance, interval_min, target,
interval_max)``, the exact heap entry the unconfined search would have
pushed, and settled serially by the coordinator.

**Why owned-region decrease repairs are sound.**  The shared-frontier
decrease proof needs every relaxation chain of the serial execution to be
replayed from the same starting state with no chain silently dropped:

* every worker starts its decrease phase from the same post-increase label
  state the serial engine would see -- trivially so, because the combined
  increase repair wrote *through the shared mapping* before the decrease
  round began;
* chains that stay inside a region are replayed verbatim by its owner;
* chains that cross the separator are truncated at the crossing and the
  in-flight heap entry -- which carries the genuine path length, not a label
  value -- is handed to the coordinator, which settles all escapes in one
  serial unconfined shared-frontier pass over the (shared) labels.  A chain
  is only ever pruned when some label entry already beats it, and the write
  that beat it pushed its own continuations (worker-side or as escapes), so
  the inductive coverage argument of the serial proof carries over;
* label writes are always of the form ``path length + root label entry``
  with both terms upper bounds of their true post-decrease values, so no
  write can undershoot -- exactness follows from coverage plus soundness.

Separator-touching and region-crossing updates never reach a worker at all:
the planner routes them to the residual sub-batch, which runs through the
serial :class:`repro.core.batch.BatchedParetoEngine` last, against the shared
state -- serial composition of exact engines is exact.

**Phase structure per batch** (coordinator = the calling process):

====  =======================================================  ===========
 #    phase                                                    where
====  =======================================================  ===========
 1    plan batch into per-region sub-batches + residual        coordinator
 2    ship owned rows, confined increase mark searches         workers
 3    settle mark escapes, merge marks in batch order,         coordinator
      apply increase weights, one combined bump-and-repair
      (writes land in the shared mapping)
 4    ship owned rows with this batch's weights, confined      workers
      shared-frontier decrease writing owned rows in place
 5    settle decrease escapes                                  coordinator
 6    residual sub-batch through the serial engine             coordinator
====  =======================================================  ===========

Phases 2 and 4 are the parallel ones and carry the bulk of the search work;
3 and 5 are the serial separator-coupling passes the partition cannot avoid.
The same six phases run for either batch engine: with ``engine=
"label_search"`` the workers execute the confined per-label-index queue
drains of :mod:`repro.core.label_search` instead of the Pareto searches --
escape records become ``(index, distance, vertex)`` heap entries
(:data:`repro.core.label_search.LabelSearchEscape`), phase 3 unions the
workers' affected sets (no ordering discipline needed -- phase 1 marks
vertices, not value bumps) and repairs through the shared mapping, phase 5
drains the crossing entries unconfined.  Residency and shipping are
engine-independent.
The protocol is two request/reply messages per worker per batch over a
:func:`multiprocessing.Pipe`; payloads are plain tuples/dicts of ints and
floats, so they pickle under any start method.  Workers are persistent
daemon processes bound to their regions -- and to the one shared segment --
for the backend's lifetime; :meth:`ProcessShardBackend.close` detaches the
labels and unlinks the segment.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import traceback
from array import array
from multiprocessing import shared_memory
from typing import Any, Sequence

from repro.core.batch import (
    BatchedParetoEngine,
    shared_frontier_relax,
    validate_coalesced,
)
from repro.core.batch_label_search import BatchedLabelSearchEngine, merge_affected_sets
from repro.core.label_search import (
    LabelSearchEscape,
    MaintenanceStats,
    drain_affected_queues,
    drain_decrease_queues,
    queues_from_escapes,
    repair_affected_entries,
    seed_affected_queues,
    seed_decrease_queues,
)
from repro.core.labelling import ENTRY_BYTES, STLLabels
from repro.core.pareto_search import ParetoSearchIncrease, interval_mark_search
from repro.core.shard import ShardPlan, ShardPlanner, default_num_shards
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.hierarchy.tree import StableTreeHierarchy

#: Seconds the coordinator waits for a worker reply before declaring the
#: pool wedged.  Generous for real batches, small enough that a deadlocked
#: worker fails a CI job instead of eating its whole time budget.
DEFAULT_REPLY_TIMEOUT = 120.0

# Escape record: the heap entry an unconfined search would have pushed at a
# separator crossing -- (distance, interval_min, target_vertex, interval_max).
_Escape = tuple[float, int, int, int]


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #

def _oriented(tau: Sequence[int], u: int, v: int) -> tuple[int, int]:
    """``(a, b)`` with ``tau[a] < tau[b]`` (Lemma 5.3 guarantees inequality)."""
    return (u, v) if tau[u] < tau[v] else (v, u)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    The coordinator owns the segment and unlinks it at close; the worker
    must *not* let the resource tracker adopt it too (Python registers
    every attach until 3.13's ``track=False``).  Under the ``fork`` start
    method the tracker process is even *shared* with the coordinator, so a
    worker registration (or a compensating unregister) would corrupt the
    coordinator's own bookkeeping.  On older Pythons the registration is
    suppressed by masking ``resource_tracker.register`` for the duration of
    the attach -- safe here because the worker is single-threaded.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track flag
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _worker_init(payload: dict[str, Any]) -> dict[str, Any]:
    """Map the shared label segment."""
    segment = _attach_segment(payload["segment"])
    nbytes = payload["num_entries"] * ENTRY_BYTES
    entries = segment.buf[:nbytes].cast("d")
    offsets = array("q")
    offsets.frombytes(payload["offsets"])
    labels = STLLabels.from_flat(entries, offsets)
    return {
        "segment": segment,
        "labels": labels,
        "tau": payload["tau"],
        "owned_set": set(payload["owned"]),
    }


def _worker_teardown(state: dict[str, Any]) -> None:
    """Release every view over the mapping, then close it."""
    state["labels"].release_views()
    try:
        state["segment"].close()
    except BufferError:  # pragma: no cover - stray export; mapping dies with us
        pass


def _worker_mark_phase(state: dict[str, Any]) -> dict[str, Any]:
    """Confined mark searches for the worker's shard increases (read-only)."""
    owned = state["owned_set"]
    tau = state["tau"]
    adjacency = state["adjacency"]
    labels = state["labels"]
    counters = [0, 0, 0]
    marks: dict[tuple[int, int], dict[int, set[int]]] = {}
    escapes: list[tuple[tuple[int, int], int, float, int, int, int]] = []
    for u, v, old, _new in state["increases"]:
        a, b = _oriented(tau, u, v)
        rmin = min(tau[a], tau[b])
        key = (u, v) if u < v else (v, u)
        hits: dict[int, set[int]] = {}
        for root, start in ((a, b), (b, a)):
            out: list[_Escape] = []
            interval_mark_search(
                adjacency,
                tau,
                labels,
                labels[root],
                [(old, 0, start, rmin)],
                hits,
                counters,
                owned=owned,
                escapes=out,
            )
            escapes.extend((key, root, d, mn, v2, mx) for d, mn, v2, mx in out)
        marks[key] = hits
    return {"marks": marks, "escapes": escapes, "counters": counters}


def _worker_decrease_phase(state: dict[str, Any]) -> dict[str, Any]:
    """Confined shared-frontier pass over the worker's shard decreases.

    Label writes go straight into the shared mapping -- only rows of owned
    vertices, which no other process touches during this phase.  The
    starting state is the coordinator's post-increase repair, already
    visible through the mapping; the owned rows arrived with this batch's
    weights landed.
    """
    owned = state["owned_set"]
    tau = state["tau"]
    adjacency = state["adjacency"]
    labels = state["labels"]

    contexts: list[tuple[int, Any, list[_Escape]]] = []
    by_root: dict[int, int] = {}
    for u, v, _old, new in state["decreases"]:
        a, b = _oriented(tau, u, v)
        rmin = min(tau[a], tau[b])
        for root, start in ((a, b), (b, a)):
            ctx = by_root.get(root)
            if ctx is None:
                ctx = len(contexts)
                by_root[root] = ctx
                contexts.append((root, labels[root], []))
            contexts[ctx][2].append((new, 0, start, rmin))

    counters = [0, 0, 0]
    escapes: list[tuple[int, float, int, int, int]] = []
    shared_frontier_relax(adjacency, tau, labels, contexts, counters, owned=owned, escapes=escapes)
    return {"escapes": escapes, "counters": counters}


def _worker_ls_mark_phase(state: dict[str, Any]) -> dict[str, Any]:
    """Confined Label Search phase 1 for the worker's shard increases.

    Read-only on the labels (the whole shared mapping is safely readable --
    nobody writes during round 1), adjacency reads confined to the owned
    rows.  Escapes stay gated on the old-shortest-path predicate, exactly
    like the unconfined drain; affected sets ship back as sorted lists so
    the reply pickles deterministically.
    """
    tau = state["tau"]
    counters = [0, 0, 0]
    queues: dict[int, list[tuple[float, int]]] = {}
    increases = [EdgeUpdate(*record) for record in state["increases"]]
    seed_affected_queues(tau, state["labels"], increases, queues, counters)
    affected: dict[int, set[int]] = {}
    escapes: list[LabelSearchEscape] = []
    drain_affected_queues(
        state["adjacency"],
        tau,
        state["labels"],
        queues,
        affected,
        counters,
        owned=state["owned_set"],
        escapes=escapes,
    )
    return {
        "affected": {index: sorted(vertices) for index, vertices in affected.items()},
        "escapes": escapes,
        "counters": counters,
    }


def _worker_ls_decrease_phase(state: dict[str, Any]) -> dict[str, Any]:
    """Confined per-index decrease drains over the worker's shard decreases.

    Label writes go straight into the shared mapping -- only rows of owned
    vertices (seeds have both endpoints owned; confined pushes never leave
    the region).  A push toward an unowned vertex is escaped without the
    usual improvement read: the unowned row may be mid-rewrite by its owner,
    and the settle drain's pop gate re-applies the test on merged state.
    """
    tau = state["tau"]
    counters = [0, 0, 0]
    queues: dict[int, list[tuple[float, int]]] = {}
    decreases = [EdgeUpdate(*record) for record in state["decreases"]]
    seed_decrease_queues(tau, state["labels"], decreases, queues, counters)
    escapes: list[LabelSearchEscape] = []
    drain_decrease_queues(
        state["adjacency"],
        tau,
        state["labels"],
        queues,
        counters,
        owned=state["owned_set"],
        escapes=escapes,
    )
    return {"escapes": escapes, "counters": counters}


def _region_worker_main(conn: Any) -> None:
    """Worker process main loop: two request/reply rounds per batch.

    Messages: ``("init", payload)`` maps the shared label segment once, at
    pool startup; ``("batch", task)`` takes the owned rows and runs the mark
    phase of the task's engine (Pareto interval marks or Label Search phase
    1); ``("decreases", rows)`` takes the owned rows with this batch's
    weights landed and runs the same engine's decrease phase;
    ``("exit",)`` unmaps and terminates.  Any exception is reported back as
    ``("error", traceback)`` so the coordinator can raise instead of hanging.
    """
    state: dict[str, Any] | None = None
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        kind = message[0]
        if kind == "exit":
            if state is not None:
                _worker_teardown(state)
            break
        try:
            if kind == "init":
                state = _worker_init(message[1])
                conn.send(("ok", None))
            elif kind == "batch":
                if state is None:
                    raise RuntimeError("batch received before init")
                task = message[1]
                state["adjacency"] = task["adjacency"]
                state["increases"] = task["increases"]
                state["decreases"] = task["decreases"]
                state["engine"] = task.get("engine", "pareto")
                if state["engine"] == "label_search":
                    conn.send(("ok", _worker_ls_mark_phase(state)))
                else:
                    conn.send(("ok", _worker_mark_phase(state)))
            elif kind == "decreases":
                if state is None:
                    raise RuntimeError("decrease round received before init")
                state["adjacency"] = message[1]
                if state.get("engine") == "label_search":
                    conn.send(("ok", _worker_ls_decrease_phase(state)))
                else:
                    conn.send(("ok", _worker_decrease_phase(state)))
            else:
                raise RuntimeError(f"unknown worker message {kind!r}")
        except BaseException:
            conn.send(("error", traceback.format_exc()))
    conn.close()


# --------------------------------------------------------------------------- #
# Coordinator side
# --------------------------------------------------------------------------- #

class _RegionWorker:
    """A persistent worker process plus the coordinator's pipe end."""

    def __init__(self, context: Any, index: int):
        self.index = index
        parent_conn, child_conn = context.Pipe()
        self.conn = parent_conn
        self.process = context.Process(
            target=_region_worker_main,
            args=(child_conn,),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, message: tuple[Any, ...]) -> None:
        self.conn.send(message)

    def recv(self, timeout: float) -> Any:
        if not self.conn.poll(timeout):
            raise RuntimeError(
                f"shard worker {self.index} gave no reply within {timeout:.0f}s "
                "(deadlocked or killed); closing the pool"
            )
        try:
            status, payload = self.conn.recv()
        except EOFError as exc:
            raise RuntimeError(f"shard worker {self.index} died mid-batch") from exc
        if status != "ok":
            raise RuntimeError(f"shard worker {self.index} failed:\n{payload}")
        return payload

    def close(self) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout=2.0)


def _pick_start_method(requested: str | None) -> str:
    """``fork`` where available (cheap, Linux), else the platform default."""
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ValueError(f"start method {requested!r} not available; choose from {available}")
        return requested
    return "fork" if "fork" in available else available[0]


class ProcessShardBackend:
    """Worker-process batch maintenance on a shared label mapping.

    Implements the same backend surface as
    :class:`repro.core.shard.ShardedBatchEngine` (``apply`` /
    ``planner`` / ``close``) and the same guarantees: labels entry-wise
    equal to the serial :class:`BatchedParetoEngine`, degenerate plans
    (fewer than two populated shards) handed wholesale to the serial
    engine before any worker is spawned.

    Workers are created lazily on the first non-degenerate batch; pool
    startup moves the labels into one shared-memory segment
    (``segment_name``) that every worker maps.  After that, batches ship
    only update records and each worker's owned adjacency rows.  Workers
    stay bound to their planner regions until :meth:`close` (regions are
    topology-only, so the assignment never goes stale); ``close`` detaches
    the labels back onto private memory and unlinks the segment.
    ``max_workers`` caps the pool; with fewer workers than regions, a
    worker owns several regions -- sound, because regions only touch
    through the separator, so confinement over the union behaves exactly
    like per-region confinement.
    """

    name = "process"

    #: Distinguishes segments of multiple live backends in one process.
    _segment_counter = itertools.count()

    def __init__(
        self,
        graph: Graph,
        hierarchy: StableTreeHierarchy,
        labels: STLLabels,
        planner: ShardPlanner | None = None,
        max_workers: int | None = None,
        start_method: str | None = None,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    ):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels
        self.planner = planner or ShardPlanner(graph)
        self.max_workers = max_workers
        self.reply_timeout = reply_timeout
        self._context = multiprocessing.get_context(_pick_start_method(start_method))
        self._serial = BatchedParetoEngine(graph, hierarchy, labels)
        self._serial_ls = BatchedLabelSearchEngine(graph, hierarchy, labels)
        self._increase = ParetoSearchIncrease(graph, hierarchy, labels)
        self._workers: list[_RegionWorker] | None = None
        self._worker_of_region: list[int] = []
        self._owned_sets: list[set[int]] = []
        self._shm: shared_memory.SharedMemory | None = None
        self._segment_name: str | None = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #

    @property
    def segment_name(self) -> str | None:
        """Name of the live shared-memory segment (``None`` when closed)."""
        return self._segment_name if self._shm is not None else None

    def _ensure_workers(self, max_workers: int | None) -> list[_RegionWorker]:
        regions, _ = self.planner.regions()
        requested = max_workers or self.max_workers
        if requested is None:
            # Default sizing never oversubscribes the machine; an explicit
            # max_workers is honoured as given (tests use it to exercise
            # multi-worker ownership on small boxes).
            requested = min(default_num_shards(), os.cpu_count() or 1)
        count = max(1, min(len(regions), requested))
        if self._workers is not None and len(self._workers) != count:
            # A conflicting explicit request resizes the pool rather than
            # being silently ignored; region ownership and the shared
            # segment are rebuilt from scratch for the new count.
            self.close()
        if self._workers is None:
            self._start_pool(regions, count)
        assert self._workers is not None
        return self._workers

    def _start_pool(self, regions: Sequence[Sequence[int]], count: int) -> None:
        """Create the shared segment, spawn workers, ship residency state."""
        num_entries = self.labels.num_entries()
        name = f"repro-stl-{os.getpid()}-{next(self._segment_counter)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, num_entries * ENTRY_BYTES)
        )
        try:
            self.labels.share_into(shm.buf[: num_entries * ENTRY_BYTES].cast("d"))
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        self._shm = shm
        self._segment_name = name

        self._worker_of_region = [rid % count for rid in range(len(regions))]
        owned_lists: list[list[int]] = [[] for _ in range(count)]
        for rid, region in enumerate(regions):
            owned_lists[rid % count].extend(region)
        self._owned_sets = [set(owned) for owned in owned_lists]

        offsets_bytes = self.labels.offsets.tobytes()
        tau = list(self.hierarchy.tau)
        self._workers = [_RegionWorker(self._context, k) for k in range(count)]
        try:
            for k, worker in enumerate(self._workers):
                worker.send(
                    (
                        "init",
                        {
                            "segment": name,
                            "num_entries": num_entries,
                            "offsets": offsets_bytes,
                            "tau": tau,
                            "owned": owned_lists[k],
                        },
                    )
                )
            for worker in self._workers:
                worker.recv(self.reply_timeout)
        except BaseException:
            self.close()
            raise

    def rebind(self, labels: STLLabels) -> None:
        """Re-point the backend at a different label store (snapshot swap).

        The serving layer's shadow-copy step replaces the writer's store
        wholesale, and the resident workers' state maps the *old* store's
        shared segment -- so the pool is shut down and every serial engine
        is rebuilt over ``labels``; the next batch lazily respawns the pool
        over a fresh segment carved from the new store.  A swap therefore
        costs one pool restart, paid by the first batch after the swap, not
        by queries.  Unsharing the old store is value-preserving (entries
        move to a private buffer byte-for-byte and its ``buffer_epoch``
        advances, invalidating cached kernel views), so snapshot readers
        still pinning it keep reading correct data.
        """
        self.close()
        self.labels = labels
        self._serial = BatchedParetoEngine(self.graph, self.hierarchy, labels)
        self._serial_ls = BatchedLabelSearchEngine(self.graph, self.hierarchy, labels)
        self._increase = ParetoSearchIncrease(self.graph, self.hierarchy, labels)

    def close(self) -> None:
        """Shut the pool down and unlink the shared segment (idempotent)."""
        if self._workers is not None:
            for worker in self._workers:
                worker.close()
            self._workers = None
            self._worker_of_region = []
            self._owned_sets = []
        if self._shm is not None:
            self.labels.unshare()
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - foreign export still live
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._shm = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Adjacency shipping
    # ------------------------------------------------------------------ #

    def _owned_rows(self, widx: int) -> dict[int, list[tuple[int, float]]]:
        """One worker's owned adjacency rows at the graph's current weights."""
        adjacency = self.graph.adjacency()
        return {v: list(adjacency[v]) for v in self._owned_sets[widx]}

    # ------------------------------------------------------------------ #
    # Batch application
    # ------------------------------------------------------------------ #

    def apply(
        self,
        updates: Sequence[EdgeUpdate],
        max_workers: int | None = None,
        engine: str = "pareto",
    ) -> MaintenanceStats:
        """Apply one coalesced batch through the process-pool phases.

        ``engine`` selects the batch engine family the confined worker
        phases decompose: the Pareto mark/frontier searches, or Label
        Search's per-index queue drains (``"label_search"``) -- same
        residency, shipping and settle discipline either way, because the
        Label Search repairs also write through the shared mapping.
        """
        validate_coalesced(self.graph, updates)
        plan = self.planner.plan(updates)
        stats = MaintenanceStats(updates_processed=len(updates))
        stats.extra["shards"] = plan.populated_shards
        stats.extra["sharded_updates"] = plan.sharded_updates
        stats.extra["residual_updates"] = len(plan.residual)
        serial = self._serial_ls if engine == "label_search" else self._serial

        if plan.populated_shards < 2:
            serial_stats = serial.apply(updates)
            serial_stats.updates_processed = 0  # already counted above
            stats.merge(serial_stats)
            return stats

        workers = self._ensure_workers(max_workers)
        tasks = self._build_tasks(plan)
        for task in tasks.values():
            task["engine"] = engine
        stats.extra["process_workers"] = len(tasks)

        try:
            # Round 1 (parallel): owned rows at the pre-batch weights, then
            # confined increase marks.
            for widx, task in tasks.items():
                task["adjacency"] = self._owned_rows(widx)
                workers[widx].send(("batch", task))
            mark_replies = {widx: workers[widx].recv(self.reply_timeout) for widx in tasks}

            sharded_increases = [
                u
                for shard in plan.shards
                for u in shard
                if u.kind is UpdateKind.INCREASE
            ]
            if sharded_increases:
                if engine == "label_search":
                    stats.merge(self._finish_ls_increases(plan, mark_replies))
                else:
                    stats.merge(self._finish_increases(updates, plan, mark_replies))
            for widx, reply in mark_replies.items():
                self._merge_counters(stats, reply["counters"])
                stats.extra["mark_escapes"] = stats.extra.get("mark_escapes", 0) + len(
                    reply["escapes"]
                )

            # Round 2 (parallel): confined decrease frontiers writing owned
            # rows into the shared mapping, then escape settlement.
            decrease_tasks = {widx: task for widx, task in tasks.items() if task["decreases"]}
            if decrease_tasks:
                stats.merge(self._run_decreases(decrease_tasks, workers, engine))
        except BaseException:
            # A failed or timed-out round leaves replies of this batch
            # buffered in the pipes; a retry against the same pool would
            # consume them as the *next* batch's replies and silently
            # corrupt labels.  Tear the pool down so the next apply() starts
            # from freshly spawned workers (and a fresh segment).
            self.close()
            raise

        if len(plan.residual):
            residual_stats = serial.apply(plan.residual.updates)
            residual_stats.updates_processed = 0  # already counted above
            stats.merge(residual_stats)
        return stats

    # ------------------------------------------------------------------ #
    # Task construction
    # ------------------------------------------------------------------ #

    def _build_tasks(self, plan: ShardPlan) -> dict[int, dict[str, Any]]:
        """Per-worker update records; labels and adjacency are resident."""
        tasks: dict[int, dict[str, Any]] = {}
        for rid, shard in enumerate(plan.shards):
            if not len(shard):
                continue
            widx = self._worker_of_region[rid]
            task = tasks.get(widx)
            if task is None:
                task = tasks[widx] = {"increases": [], "decreases": []}
            for u in shard:
                record = (u.u, u.v, u.old_weight, u.new_weight)
                if u.kind is UpdateKind.INCREASE:
                    task["increases"].append(record)
                elif u.kind is UpdateKind.DECREASE:
                    task["decreases"].append(record)
        return tasks

    # ------------------------------------------------------------------ #
    # Increase half: settle mark escapes, merge in batch order, repair
    # ------------------------------------------------------------------ #

    def _finish_increases(
        self,
        updates: Sequence[EdgeUpdate],
        plan: ShardPlan,
        mark_replies: dict[int, Any],
    ) -> MaintenanceStats:
        stats = MaintenanceStats()
        adjacency = self.graph.adjacency()
        tau = self.hierarchy.tau
        counters = [0, 0, 0]

        # Collect worker marks and continue every escaped mark search
        # serially on the (still unmodified) global state.  Escapes are
        # grouped per (update, root) so each continuation relaxes against
        # the correct root label with a fresh pruning map; re-examining
        # vertices a worker already examined is harmless -- the tolerant
        # mark test is value-based and over-marking is repair-safe.
        marks_by_edge: dict[tuple[int, int], dict[int, set[int]]] = {}
        continuations: dict[tuple[tuple[int, int], int], list[_Escape]] = {}
        for widx in sorted(mark_replies):
            reply = mark_replies[widx]
            for key, hits in reply["marks"].items():
                merged = marks_by_edge.setdefault(key, {})
                for v, levels in hits.items():
                    merged.setdefault(v, set()).update(levels)
            for key, root, d, mn, v, mx in reply["escapes"]:
                continuations.setdefault((key, root), []).append((d, mn, v, mx))
        for (key, root), seeds in continuations.items():
            interval_mark_search(
                adjacency,
                tau,
                self.labels,
                self.labels[root],
                sorted(seeds),
                marks_by_edge.setdefault(key, {}),
                counters,
            )

        # Merge the per-update marks into one bump map in the original
        # coalesced batch order -- the same accumulation the serial engine
        # performs, so per-entry bump sums are added in the same order.
        sharded_edges = {
            (u.u, u.v) if u.u < u.v else (u.v, u.u)
            for shard in plan.shards
            for u in shard
        }
        increase_order = [
            u
            for u in updates
            if u.kind is UpdateKind.INCREASE
            and ((u.u, u.v) if u.u < u.v else (u.v, u.u)) in sharded_edges
        ]
        affected: dict[int, dict[int, float]] = {}
        for update in increase_order:
            key = (update.u, update.v) if update.u < update.v else (update.v, update.u)
            delta = update.new_weight - update.old_weight
            for v, levels in marks_by_edge.get(key, {}).items():
                row = affected.setdefault(v, {})
                for i in levels:
                    row[i] = row.get(i, 0.0) + delta
        stats.vertices_affected += len(affected)

        for update in increase_order:
            self.graph.set_weight(update.u, update.v, update.new_weight)
        if affected:
            # The repair writes through the shared mapping, so workers start
            # their decrease phase from the post-increase state without any
            # entries being shipped.
            stats.merge(self._increase.bump_and_repair(affected))

        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        return stats

    def _finish_ls_increases(
        self, plan: ShardPlan, mark_replies: dict[int, Any]
    ) -> MaintenanceStats:
        """Label Search increase half: merge affected sets, settle, repair.

        The workers' per-index affected sets union cleanly (phase 1 marks
        vertices, not value bumps, so no ordering discipline is needed --
        contrast :meth:`_finish_increases`); escaped chains are drained
        unconfined on the still-unmodified graph against the merged sets,
        then the new weights land and one combined per-index repair writes
        through the shared mapping, so workers start their decrease phase
        from the post-increase state without any entries being shipped.
        """
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        counters = [0, 0, 0]

        affected_by_index: dict[int, set[int]] = {}
        escapes: list[LabelSearchEscape] = []
        for widx in sorted(mark_replies):
            reply = mark_replies[widx]
            merge_affected_sets(affected_by_index, reply["affected"])
            escapes.extend(reply["escapes"])
        if escapes:
            drain_affected_queues(
                self.graph.adjacency(),
                tau,
                self.labels,
                queues_from_escapes(escapes),
                affected_by_index,
                counters,
            )
        stats.ancestors_touched += len(affected_by_index)
        for affected in affected_by_index.values():
            stats.vertices_affected += len(affected)

        for shard in plan.shards:
            for update in shard:
                if update.kind is UpdateKind.INCREASE:
                    self.graph.set_weight(update.u, update.v, update.new_weight)
        adjacency = self.graph.adjacency()
        for index in sorted(affected_by_index):
            affected = affected_by_index[index]
            if affected:
                repair_affected_entries(
                    adjacency, tau, self.labels, index, affected, counters
                )
        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        return stats

    # ------------------------------------------------------------------ #
    # Decrease half: parallel confined frontiers + serial settlement
    # ------------------------------------------------------------------ #

    def _run_decreases(
        self,
        decrease_tasks: dict[int, dict[str, Any]],
        workers: list[_RegionWorker],
        engine: str = "pareto",
    ) -> MaintenanceStats:
        stats = MaintenanceStats()
        # All sharded decrease weights go into the master graph first, so
        # the owned rows shipped below carry them to the workers that relax
        # them.
        for task in decrease_tasks.values():
            for u, v, _old, new in task["decreases"]:
                self.graph.set_weight(u, v, new)
        for widx in decrease_tasks:
            workers[widx].send(("decreases", self._owned_rows(widx)))

        if engine == "label_search":
            ls_escapes: list[LabelSearchEscape] = []
            for widx in sorted(decrease_tasks):
                reply = workers[widx].recv(self.reply_timeout)
                ls_escapes.extend(reply["escapes"])
                self._merge_counters(stats, reply["counters"])
            stats.extra["decrease_escapes"] = (
                stats.extra.get("decrease_escapes", 0) + len(ls_escapes)
            )
            if ls_escapes:
                # Settle: drain the crossing heap entries unconfined on the
                # merged shared state; the pop gate re-checks improvement, so
                # unconditionally-escaped candidates that lost their race are
                # simply dropped here.
                counters = [0, 0, 0]
                drain_decrease_queues(
                    self.graph.adjacency(),
                    self.hierarchy.tau,
                    self.labels,
                    queues_from_escapes(ls_escapes),
                    counters,
                )
                self._merge_counters(stats, counters)
            return stats

        escape_seeds: dict[int, list[_Escape]] = {}
        for widx in sorted(decrease_tasks):
            reply = workers[widx].recv(self.reply_timeout)
            for root, d, mn, v, mx in reply["escapes"]:
                escape_seeds.setdefault(root, []).append((d, mn, v, mx))
            self._merge_counters(stats, reply["counters"])
            stats.extra["decrease_escapes"] = stats.extra.get(
                "decrease_escapes", 0
            ) + len(reply["escapes"])

        if escape_seeds:
            contexts = [
                (root, self.labels[root], sorted(seeds))
                for root, seeds in sorted(escape_seeds.items())
            ]
            counters = [0, 0, 0]
            shared_frontier_relax(
                self.graph.adjacency(), self.hierarchy.tau, self.labels,
                contexts, counters,
            )
            self._merge_counters(stats, counters)
        return stats

    @staticmethod
    def _merge_counters(stats: MaintenanceStats, counters: list[int]) -> None:
        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        stats.vertices_affected += counters[2]
