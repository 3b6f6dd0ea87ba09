"""The always-on query service: RCU snapshots over a single-writer index.

:class:`QueryService` turns the batch-oriented
:class:`~repro.core.stl.StableTreeLabelling` into a long-lived server-side
object with the concurrency story a deployment needs:

* **Readers never lock.**  Queries run against the currently *published*
  :class:`~repro.core.snapshot.LabelSnapshot` -- an immutable generation
  acquired/released around each call.  The fast path (label lookup) runs
  inline on the event loop; the complete path (bounded Dijkstra over the
  snapshot's frozen graph) runs in a small thread pool so a cache-miss
  query cannot stall the loop.
* **One writer, off the loop.**  All mutation flows through a single
  maintenance coroutine that drains an update queue, coalesces everything
  currently pending into one batch, and applies it with
  :meth:`StableTreeLabelling.apply_batch` inside a dedicated single-thread
  executor -- queries keep being answered while a batch is maintained.
* **Commit is a pointer swap (RCU).**  The new generation is captured
  zero-copy off the writer, the service's ``_active`` pointer is swapped on
  the event-loop thread (atomic with respect to every reader coroutine),
  and the old generation is retired: its buffers are reclaimed when the
  last in-flight reader releases (epoch-based reclamation -- see
  :mod:`repro.core.snapshot`).  Before its *next* mutation the writer
  shadow-copies its store (:meth:`StableTreeLabelling.adopt_labels`), so a
  published buffer is never written again: copy-on-write, paid lazily and
  only when updates actually arrive.
* **Answers from the first moment.**  The service starts with a
  fallback-only snapshot and builds the labelling in the background;
  queries are answered by bounded Dijkstra until the first labelling lands,
  then tier fast/fallback per query.  Updates arriving during the build are
  applied to the live graph, recorded, and replayed onto the fresh index
  before it is published -- the published generation is never behind the
  committed stream.

Every answer is computed against exactly one published generation; a
response carries that generation's version, and a client comparing answers
to per-version oracles can never observe a torn mix of pre- and post-batch
state.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable

from repro.core.config import DEFAULT_CONFIG, STLConfig
from repro.core.serialization import load_snapshot, save_snapshot
from repro.core.snapshot import LabelSnapshot
from repro.core.stl import StableTreeLabelling, open_network
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.errors import ServiceError, SnapshotError
from repro.utils.validation import check_edge_weight

#: Sentinel draining the maintenance loop on :meth:`QueryService.stop`.
_STOP = object()

#: A raw update accepted by :meth:`QueryService.submit`: an
#: :class:`EdgeUpdate`, or a ``(u, v, new_weight)`` triple whose old weight
#: is resolved against the live graph *at commit time* (on the maintenance
#: thread, where graph access is serialised -- the wire protocol ships
#: triples precisely so clients never race the writer on weight reads).
RawUpdate = Any


class QueryService:
    """Serve distance queries over a dynamic road network, continuously.

    Life cycle::

        service = QueryService(graph, config=STLConfig(engine="label_search"))
        await service.start()          # answers immediately (fallback tier)
        d, tier, version = await service.distance(s, t)
        await service.submit([(u, v, new_weight)])   # returns committed version
        await service.stop()           # persists to snapshot_path, if set

    ``snapshot_path`` enables warm restarts: :meth:`stop` persists the
    active generation there, and a later :meth:`start` finding the file
    restores it -- the restarted service answers on the fast path from its
    first query, with no background build.

    The service object is bound to the event loop it was started on; all
    public coroutines must be awaited from that loop.  ``query_workers``
    sizes the fallback thread pool (default: ``min(8, cpu)``).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        config: STLConfig | None = None,
        options: HierarchyOptions | None = None,
        snapshot_path: str | os.PathLike | None = None,
        query_workers: int | None = None,
    ):
        self._graph = graph
        self.config = config or DEFAULT_CONFIG
        self._options = options
        self._snapshot_path = os.fspath(snapshot_path) if snapshot_path is not None else None
        self._query_workers = query_workers or min(8, os.cpu_count() or 1)

        self._active: LabelSnapshot | None = None
        self._version = 0
        self._writer: StableTreeLabelling | None = None
        self._writer_shared = False
        self._history: list[list[RawUpdate]] = []

        self._queue: asyncio.Queue[Any] | None = None
        self._maintenance_task: asyncio.Task[None] | None = None
        self._build_task: asyncio.Task[None] | None = None
        self._maint_exec: ThreadPoolExecutor | None = None
        self._query_exec: ThreadPoolExecutor | None = None
        self._started = False
        self._stopped = False

        self._fast_queries = 0
        self._fallback_queries = 0
        self._batches_committed = 0
        self._updates_committed = 0
        self._failed_commits = 0
        #: Wall-clock of the background build (the fallback-tier window) and
        #: its phase breakdown -- a parallel construction config shortens the
        #: window, measurably so through these counters.
        self._build_seconds = 0.0
        self._build_hierarchy_seconds = 0.0
        self._build_label_seconds = 0.0
        self._build_workers = 0

    # ------------------------------------------------------------------ #
    # Life cycle
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        """The live (writer-side) graph: the adopted index's once built."""
        return self._writer.graph if self._writer is not None else self._graph

    @property
    def started(self) -> bool:
        return self._started and not self._stopped

    @property
    def ready(self) -> bool:
        """Whether the published generation carries labels (fast path live)."""
        snap = self._active
        return snap is not None and snap.labels is not None

    @property
    def version(self) -> int:
        """Version of the currently published generation."""
        return self._version

    @property
    def active_snapshot(self) -> LabelSnapshot:
        """The published generation (acquire it before querying directly)."""
        if self._active is None:
            raise ServiceError("service has not been started")
        return self._active

    async def start(self) -> None:
        """Publish the first generation and spin up the maintenance loop.

        With no persisted snapshot the first generation is fallback-only
        and a background task builds the labelling; with one, the service
        restores it and is fast-path ready immediately.
        """
        if self._started:
            raise ServiceError("service already started")
        self._started = True
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._maint_exec = ThreadPoolExecutor(1, thread_name_prefix="stl-maint")
        self._query_exec = ThreadPoolExecutor(
            self._query_workers, thread_name_prefix="stl-query"
        )

        restored: LabelSnapshot | None = None
        if self._snapshot_path is not None and os.path.exists(self._snapshot_path):
            restored = await loop.run_in_executor(
                self._maint_exec, load_snapshot, self._snapshot_path
            )
        if restored is not None and restored.labels is not None:
            # Warm restart: the persisted generation is both the published
            # snapshot and -- zero-copy, under the copy-on-write discipline
            # -- the writer's starting state.
            self._writer = StableTreeLabelling(
                restored.graph.copy(),
                restored.hierarchy,
                restored.labels,
                self.config.maintenance,  # type: ignore[arg-type]
                config=self.config,
            )
            self._writer_shared = True
            self._version = restored.version
            self._active = restored
        else:
            if restored is not None:
                # A labelless persisted snapshot still carries the weights
                # at persist time; adopt them as the live graph.
                self._graph = restored.graph
            self._active = LabelSnapshot.fallback_only(self._graph, self._version)
            base = self._graph.copy()
            self._build_task = loop.create_task(self._build(base))
        self._maintenance_task = loop.create_task(self._maintenance_loop())

    async def _build(self, base: Graph) -> None:
        """Background construction; hands the index to the maintenance loop.

        The index is built over ``base`` -- a copy of the graph taken at
        start, before any batch could commit -- in its own short-lived
        thread.  Adoption goes *through the update queue*: every batch
        committed while the build ran sits ahead of the adopt request, so
        by the time the maintenance loop adopts, ``_history`` holds exactly
        the batches the fresh index must replay to catch up.
        """
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        with ThreadPoolExecutor(1, thread_name_prefix="stl-build") as pool:
            stl = await loop.run_in_executor(
                pool,
                lambda: open_network(base, config=self.config, options=self._options),
            )
        self._build_seconds = time.perf_counter() - started
        if stl.build_report is not None:
            self._build_hierarchy_seconds = stl.build_report.hierarchy_seconds
            self._build_label_seconds = stl.build_report.label_seconds
            self._build_workers = stl.build_report.workers
        future: asyncio.Future[int] = loop.create_future()
        assert self._queue is not None
        self._queue.put_nowait(("adopt", stl, future))
        await future

    async def stop(self, persist: bool | None = None) -> None:
        """Drain the maintenance loop, optionally persist, release everything.

        ``persist`` defaults to "yes iff ``snapshot_path`` was given".
        Pending :meth:`submit` futures that the loop did not reach fail
        with :class:`ServiceError`.  Idempotent.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        if self._build_task is not None and not self._build_task.done():
            self._build_task.cancel()
            try:
                await self._build_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        assert self._queue is not None and self._maintenance_task is not None
        self._queue.put_nowait(_STOP)
        await self._maintenance_task
        # Fail whatever was enqueued after the stop sentinel.
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _STOP and item[2] is not None and not item[2].done():
                item[2].set_exception(ServiceError("service stopped"))
        should_persist = persist if persist is not None else self._snapshot_path is not None
        if should_persist:
            if self._snapshot_path is None:
                raise ServiceError("cannot persist: no snapshot_path configured")
            snap = self._active
            assert snap is not None
            loop = asyncio.get_running_loop()
            with snap:
                await loop.run_in_executor(
                    self._maint_exec, save_snapshot, snap, self._snapshot_path
                )
        if self._active is not None:
            self._active.retire()
        if self._writer is not None:
            self._writer.close()
        assert self._maint_exec is not None and self._query_exec is not None
        self._maint_exec.shutdown(wait=True)
        self._query_exec.shutdown(wait=True)

    async def __aenter__(self) -> "QueryService":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    async def wait_ready(self) -> int:
        """Block until the fast path is live; returns the published version."""
        if self._build_task is not None:
            await asyncio.shield(self._build_task)
        return self._version

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def _acquire_active(self) -> LabelSnapshot:
        if not self.started:
            raise ServiceError("service is not running")
        while True:
            snap = self._active
            assert snap is not None
            try:
                return snap.acquire()
            except SnapshotError:
                # Lost a race with a swap (cannot happen from this loop's
                # thread, but callers may hold the object across awaits);
                # the pointer now names the successor -- re-read it.
                continue

    async def distance(self, s: int, t: int) -> tuple[float, str, int]:
        """Distance, answering tier and generation version for one query.

        Fast-path queries (label lookup, O(tree height)) run inline;
        fallback queries run in the query thread pool.
        """
        snap = self._acquire_active()
        try:
            if snap.covers(s, t):
                distance, tier = snap.distance(s, t)
                self._fast_queries += 1
            else:
                loop = asyncio.get_running_loop()
                distance, tier = await loop.run_in_executor(
                    self._query_exec, snap.distance, s, t
                )
                self._fallback_queries += 1
            return distance, tier, snap.version
        finally:
            snap.release()

    async def batch_distance(self, pairs: list[tuple[int, int]]) -> tuple[list[float], int]:
        """Distances for many pairs, all against one generation."""
        snap = self._acquire_active()
        try:
            loop = asyncio.get_running_loop()
            distances = await loop.run_in_executor(
                self._query_exec, snap.batch_distances, pairs, self.config.kernel
            )
            if snap.labels is not None:
                self._fast_queries += len(pairs)
            else:
                self._fallback_queries += len(pairs)
            return distances, snap.version
        finally:
            snap.release()

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #

    async def submit(self, updates: Iterable[RawUpdate]) -> int:
        """Enqueue updates; resolves once committed, with the new version.

        Accepts :class:`EdgeUpdate` objects or ``(u, v, new_weight)``
        triples.  Triples are resolved against the live graph on the
        maintenance thread at commit time, so concurrent submitters never
        race on weight reads.  Updates from multiple pending submissions
        may be *coalesced* into one commit; each submitter still learns
        the version its updates landed in.

        Each new weight is checked here, before queueing (non-negative or
        ``+inf``, never NaN; :class:`InvalidWeightError` otherwise), so one
        bad submission cannot fail the others coalesced into its commit.
        """
        if not self.started:
            raise ServiceError("service is not running")
        items = list(updates)
        for item in items:
            check_edge_weight(item.new_weight if isinstance(item, EdgeUpdate) else item[2])
        loop = asyncio.get_running_loop()
        future: asyncio.Future[int] = loop.create_future()
        assert self._queue is not None
        self._queue.put_nowait(("updates", items, future))
        return await future

    async def _maintenance_loop(self) -> None:
        assert self._queue is not None
        carry: Any = None
        while True:
            item = carry if carry is not None else await self._queue.get()
            carry = None
            if item is _STOP:
                return
            if item[0] == "adopt":
                await self._adopt(item[1], item[2])
                continue
            # Coalesce every consecutively queued update submission into one
            # commit; an adopt request or the stop sentinel ends the drain
            # (order through the queue is the commit order).
            raw: list[RawUpdate] = list(item[1])
            futures: list[asyncio.Future[int]] = [item[2]]
            while True:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP or nxt[0] == "adopt":
                    carry = nxt
                    break
                raw.extend(nxt[1])
                futures.append(nxt[2])
            try:
                version = await self._commit(raw)
            except Exception as exc:  # noqa: BLE001 - reported to submitters
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
            else:
                for future in futures:
                    if not future.done():
                        future.set_result(version)
            if carry is _STOP:
                return

    async def _adopt(self, stl: StableTreeLabelling, future: asyncio.Future[int]) -> None:
        """Catch the fresh index up on missed batches, then publish it."""
        loop = asyncio.get_running_loop()
        history = list(self._history)
        try:
            await loop.run_in_executor(
                self._maint_exec, self._catch_up_sync, stl, history
            )
        except Exception as exc:  # noqa: BLE001 - reported to the build task
            if not future.done():
                future.set_exception(exc)
            return
        self._writer = stl
        self._history.clear()
        self._publish(stl.snapshot(self._version + 1, copy=False))
        self._writer_shared = True
        if not future.done():
            future.set_result(self._version)

    def _catch_up_sync(self, stl: StableTreeLabelling, history: list[list[RawUpdate]]) -> None:
        for raw in history:
            stl.apply_batch(self._resolve(raw, stl.graph))

    async def _commit(self, raw: list[RawUpdate]) -> int:
        loop = asyncio.get_running_loop()
        if self._writer is None:
            snap = await loop.run_in_executor(self._maint_exec, self._apply_graph_only, raw)
            self._history.append(raw)
            self._publish(snap)
        else:
            snap = await loop.run_in_executor(self._maint_exec, self._apply_labelled, raw)
            self._publish(snap)
            self._writer_shared = True
        self._batches_committed += 1
        self._updates_committed += len(raw)
        return self._version

    def _publish(self, snap: LabelSnapshot) -> None:
        """The RCU commit point: swap the pointer, retire the predecessor.

        Runs on the event-loop thread, so it is atomic with respect to
        every reader coroutine; the snapshot itself was captured on the
        maintenance thread (graph copy is O(E) -- off the hot path).
        """
        self._version += 1
        old, self._active = self._active, snap
        if old is not None:
            old.retire()

    # -- maintenance-thread helpers (graph access serialised here) ------- #

    def _resolve(self, raw: list[RawUpdate], graph: Graph) -> UpdateBatch:
        updates = []
        for item in raw:
            if isinstance(item, EdgeUpdate):
                updates.append(item)
            else:
                u, v, w = item
                updates.append(EdgeUpdate.setting(graph, int(u), int(v), float(w)))
        return UpdateBatch(updates)

    def _apply_graph_only(self, raw: list[RawUpdate]) -> LabelSnapshot:
        for update in self._resolve(raw, self._graph):
            self._graph.set_weight(update.u, update.v, update.new_weight)
        return LabelSnapshot.fallback_only(self._graph, self._version + 1)

    def _apply_labelled(self, raw: list[RawUpdate]) -> LabelSnapshot:
        stl = self._writer
        assert stl is not None
        try:
            if self._writer_shared:
                # Copy-on-write: the store is shared with the published
                # generation; shadow it before mutating so in-flight readers
                # keep an untouched buffer.
                stl.adopt_labels(stl.labels.snapshot_store())
                self._writer_shared = False
            stl.apply_batch(self._resolve(raw, stl.graph))
        except Exception:
            self._restore_writer(stl)
            raise
        return stl.snapshot(self._version + 1, copy=False)

    def _restore_writer(self, stl: StableTreeLabelling) -> None:
        """Put the writer back on the published generation after a failed commit.

        A batch that raises may leave landed weights and a half-repaired
        store behind, which the next commit would publish.  The published
        generation holds neither: its snapshot froze a copy of the graph,
        and copy-on-write left its store untouched.  So the writer takes
        back that graph's weights and adopts a copy of that store.
        """
        published = self._active
        assert published is not None and published.labels is not None
        graph = stl.graph
        for u, v, w in published.graph.edges():
            if graph.weight(u, v) != w:
                graph.set_weight(u, v, w)
        stl.adopt_labels(published.labels.snapshot_store())
        self._writer_shared = False
        self._failed_commits += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        """Counters and state for the wire protocol's ``stats`` op."""
        snap = self._active
        return {
            "version": self._version,
            "ready": self.ready,
            "running": self.started,
            "config": self.config.describe(),
            "num_vertices": self.graph.num_vertices,
            "fast_queries": self._fast_queries,
            "fallback_queries": self._fallback_queries,
            "batches_committed": self._batches_committed,
            "updates_committed": self._updates_committed,
            "failed_commits": self._failed_commits,
            "active_readers": 0 if snap is None else snap.readers,
            "build_seconds": self._build_seconds,
            "build_hierarchy_seconds": self._build_hierarchy_seconds,
            "build_label_seconds": self._build_label_seconds,
            "build_workers": self._build_workers,
        }


def encode_distance(value: float) -> float | None:
    """JSON-safe distance: ``inf`` (unreachable) crosses the wire as null."""
    return None if math.isinf(value) else value
