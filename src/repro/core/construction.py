"""Index construction: the one build entry point and the opt-in process pool.

:func:`build_index` is the construction funnel.  Its default mode is
serial at every size: the hierarchy phase, then
:func:`repro.core.labelling.build_labels`, which with numpy computes every
label entry in one vectorised relax from all roots.  ``construction=
"parallel"`` opts into :class:`ParallelBuilder`, a shared-memory process
pool that splits both phases.  Its label workers still run one scalar
rank-restricted Dijkstra per root (:func:`run_label_roots`), so a parallel
build is also an independent scalar cross-check of the vector serial build:
the two must agree byte for byte.

The pool relies on both phases being embarrassingly parallel by structure:

* **Hierarchy.**  After a bisection, the left and right vertex sets induce
  *independent* subproblems: the recursion below either side never reads the
  other side's vertices (separators disconnect them) and the bisectors are
  deterministic functions of ``(graph, vertices)``.  So the coordinator runs
  only the top few bisections serially -- recorded as a *plan tree*, not yet
  as hierarchy nodes -- until enough independent pending subproblems exist
  to saturate the worker pool, ships each remaining subproblem to a worker
  (which runs :func:`repro.hierarchy.builder.build_subtree`, the same
  recursion the serial build uses, over local preorder node records), and
  finally *grafts* every piece serially in DFS order.  Because grafting
  replays ``add_node`` / ``assign_vertices`` in exactly the serial
  recursion's visit order, the resulting node ids, ``tau`` and every
  serialized payload are byte-identical to a serial build.

* **Labels.**  The pool's label phase runs one rank-restricted Dijkstra per
  vertex ``r``; the search from ``r`` writes only entries ``(x, tau[r])``
  for ``x`` in ``Desc(r)``, and ``r`` is the *unique* ancestor of ``x`` at
  label index ``tau[r]`` -- so the write sets of different roots are
  disjoint under **any** partition of the roots.  The coordinator pre-sizes
  the CSR entries buffer, maps it into one ``multiprocessing.shared_memory``
  segment, fills it with the UNREACHABLE sentinel
  (:func:`repro.core.kernels.fill_unreachable`), and hands each participant
  a load-balanced share of the roots; workers write distances straight into
  the shared buffer at settle time
  (:func:`repro.algorithms.dijkstra.dijkstra_rank_restricted_into`) -- **no
  label bytes are ever pickled**, mirroring the residency protocol of
  :mod:`repro.core.parallel`.  The coordinator computes one share itself
  while the workers run.

Load balance uses the subtree sizes the hierarchy already knows: the cost of
root ``r`` is proportional to ``|Desc(r)|``, computed for every vertex in one
reverse sweep over the preorder node list, and shares are formed greedily
largest-first (LPT).

**Shared-memory lifecycle.**  The segment exists only for the label phase:
workers attach with the same tracker-suppressing helper the shard backend
uses, release every exported view and close their mapping *before* replying,
and the coordinator copies the finished entries into a private
``array('d')`` and unlinks the segment in a ``finally`` -- success, worker
failure and mid-build exceptions all leave ``/dev/shm`` clean.  The builder
pool itself is torn down at the end of :meth:`ParallelBuilder.build`, before
any :class:`repro.core.parallel.ProcessShardBackend` is (lazily) created for
maintenance, so the two pools never coexist.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import traceback
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from multiprocessing import shared_memory
from typing import Any, Sequence

from repro.algorithms.dijkstra import dijkstra_rank_restricted_into
from repro.core.kernels import fill_unreachable
from repro.core.labelling import (
    ENTRY_BYTES,
    STLLabels,
    build_labels_with_counts,
    copy_entries,
    label_offsets,
)
from repro.core.parallel import _attach_segment, _pick_start_method
from repro.graph.graph import Graph
from repro.hierarchy.builder import (
    BuildReport,
    HierarchyOptions,
    build_hierarchy_with_report,
    build_subtree,
    graft_subtree,
    _order_vertices,
)
from repro.hierarchy.tree import StableTreeHierarchy
from repro.partition.bisection import Bisection, enforce_balance
from repro.utils.errors import ConfigError, HierarchyError, PartitionError

#: Construction modes accepted by ``STLConfig(construction=...)``.
CONSTRUCTION_NAMES = ("serial", "parallel")

#: Pending subproblems per pool participant before the serial plan phase
#: stops bisecting and starts shipping: a few subproblems per worker evens
#: out subtree-size variance without serialising too many top levels.
SATURATION_FACTOR = 4

#: Seconds the coordinator waits for one worker reply.  A worker's whole
#: label share at paper scale legitimately runs for minutes, so this is far
#: larger than the shard backend's per-batch timeout -- it only exists so a
#: dead worker fails the build instead of hanging it forever.
DEFAULT_BUILD_REPLY_TIMEOUT = 3600.0


def normalize_construction(construction: str | None) -> str | None:
    """Validate a ``construction=`` value (``None`` = the default, serial)."""
    if construction is None or construction in CONSTRUCTION_NAMES:
        return construction
    allowed = ", ".join(repr(name) for name in CONSTRUCTION_NAMES)
    raise ConfigError(
        f"unknown construction mode {construction!r}; allowed modes: {allowed} (or None)"
    )


def resolve_construction(
    construction: str | None, num_vertices: int, max_workers: int | None = None
) -> str:
    """Resolve a ``construction=`` value to a concrete mode.

    ``None`` is ``"serial"`` at every size and CPU count: with numpy the
    serial label phase is one vectorised relax from all roots, 1.3 s on the
    10k-vertex highway grid against 8.6 s for the per-root Dijkstra loop the
    pool splits (2-CPU x86 container, Python 3.11, numpy 2.4), so two
    workers cannot catch up.  Explicit modes are honoured as given (tests
    use ``"parallel"`` with ``max_workers=2`` to exercise the pool on any
    machine).  ``num_vertices`` and ``max_workers`` no longer change the
    answer; the signature stays for existing callers.
    """
    return normalize_construction(construction) or "serial"


def build_index(
    graph: Graph,
    options: HierarchyOptions | None = None,
    *,
    construction: str | None = None,
    max_workers: int | None = None,
    start_method: str | None = None,
    reply_timeout: float = DEFAULT_BUILD_REPLY_TIMEOUT,
) -> tuple[StableTreeHierarchy, STLLabels, BuildReport]:
    """Build hierarchy + labels under the resolved construction mode.

    The one construction entry point: :meth:`StableTreeLabelling.build`,
    :func:`repro.open_network` and the serving layer's background build all
    route through here.  Returns ``(hierarchy, labels, report)`` with the
    report's timing breakdown (:class:`repro.hierarchy.builder.BuildReport`)
    filled in; both modes produce entry-wise identical results.
    """
    mode = resolve_construction(construction, graph.num_vertices, max_workers)
    if mode == "parallel":
        builder = ParallelBuilder(
            graph,
            options,
            max_workers=max_workers,
            start_method=start_method,
            reply_timeout=reply_timeout,
        )
        return builder.build()
    start = time.perf_counter()
    hierarchy, report = build_hierarchy_with_report(graph, options)
    report.hierarchy_seconds = time.perf_counter() - start
    start = time.perf_counter()
    labels, report.label_rounds, report.label_enqueued = build_labels_with_counts(graph, hierarchy)
    report.label_seconds = time.perf_counter() - start
    return hierarchy, labels, report


# --------------------------------------------------------------------------- #
# Per-root label searches
# --------------------------------------------------------------------------- #


def run_label_roots(
    graph: Graph,
    roots: Sequence[int],
    tau: Sequence[int],
    entries: Any,
    offsets: Sequence[int],
) -> int:
    """Run the rank-restricted search for every root, writing into ``entries``.

    ``entries`` is either a private ``array('d')`` or a ``'d'`` memoryview
    over the shared segment -- the write target is the only difference
    between the serial and parallel label phases.  Returns the number of
    entries written.
    """
    adjacency = graph.adjacency()
    written = 0
    for r in roots:
        written += dijkstra_rank_restricted_into(adjacency, r, tau, entries, offsets, tau[r])
    return written


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #


def _report_payload(report: BuildReport) -> tuple[int, int, int, int]:
    """The counters a subtree build ships back (timings stay coordinator-side)."""
    return (
        report.num_nodes,
        report.num_leaves,
        report.max_separator,
        report.balance_violations,
    )


def _worker_subtrees(
    graph: Graph, options: HierarchyOptions, tasks: Sequence[tuple[int, list[int]]]
) -> list[tuple[int, Any, tuple[int, int, int, int]]]:
    """Build every assigned subproblem; one reply carries all of them."""
    results = []
    for plan_id, vertices in tasks:
        report = BuildReport()
        nodes = build_subtree(graph, vertices, options, report)
        results.append((plan_id, nodes, _report_payload(report)))
    return results


def _worker_labels(graph: Graph, payload: dict[str, Any]) -> int:
    """Run this worker's root share against the shared entries segment.

    Attaches the segment (without adopting its lifetime -- the coordinator
    owns the unlink), writes the assigned roots' distances straight through
    the mapping, and releases every view *before* replying, so by the time
    the coordinator sees the reply this process no longer maps the segment.
    """
    segment = _attach_segment(payload["segment"])
    try:
        entries = segment.buf[: payload["num_entries"] * ENTRY_BYTES].cast("d")
        try:
            offsets = array("q")
            offsets.frombytes(payload["offsets"])
            return run_label_roots(graph, payload["roots"], payload["tau"], entries, offsets)
        finally:
            entries.release()
    finally:
        segment.close()


def _build_worker_main(conn: Any, graph: Graph, options: HierarchyOptions) -> None:
    """Builder worker main loop (one request/reply in flight at a time).

    Messages: ``("subtrees", tasks)`` builds detached hierarchy subtrees,
    ``("labels", payload)`` attaches the shared segment and runs a root
    share, ``("exit",)`` terminates.  Failures are reported as ``("error",
    (exception_type_name, traceback))`` so the coordinator can re-raise the
    right error class instead of hanging.  ``graph`` and ``options`` arrive
    as process arguments -- free under the ``fork`` start method, pickled
    once under ``spawn``.
    """
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        kind = message[0]
        if kind == "exit":
            break
        try:
            if kind == "subtrees":
                conn.send(("ok", _worker_subtrees(graph, options, message[1])))
            elif kind == "labels":
                conn.send(("ok", _worker_labels(graph, message[1])))
            else:
                raise RuntimeError(f"unknown builder message {kind!r}")
        except BaseException as exc:
            conn.send(("error", (type(exc).__name__, traceback.format_exc())))
    conn.close()


class _BuildWorker:
    """A persistent builder worker process plus the coordinator's pipe end."""

    def __init__(self, context: Any, index: int, graph: Graph, options: HierarchyOptions):
        self.index = index
        parent_conn, child_conn = context.Pipe()
        self.conn = parent_conn
        self.process = context.Process(
            target=_build_worker_main,
            args=(child_conn, graph, options),
            name=f"repro-build-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, message: tuple[Any, ...]) -> None:
        self.conn.send(message)

    def recv(self, timeout: float) -> Any:
        if not self.conn.poll(timeout):
            raise RuntimeError(
                f"builder worker {self.index} gave no reply within {timeout:.0f}s "
                "(deadlocked or killed); closing the pool"
            )
        try:
            status, payload = self.conn.recv()
        except EOFError as exc:
            raise RuntimeError(f"builder worker {self.index} died mid-build") from exc
        if status != "ok":
            name, trace = payload
            if name == "HierarchyError":
                raise HierarchyError(f"builder worker {self.index} failed:\n{trace}")
            raise RuntimeError(f"builder worker {self.index} failed:\n{trace}")
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


# --------------------------------------------------------------------------- #
# Coordinator: plan tree + grafting
# --------------------------------------------------------------------------- #


@dataclass
class _PlanNode:
    """One node of the serial plan phase.

    ``kind`` is ``"inner"`` (bisected: ``vertices`` holds the ordered
    separator, ``left``/``right`` the child plan ids), ``"leaf"`` (ordered
    leaf vertices) or ``"pending"`` (an unexpanded subproblem: raw vertex
    list, destined for a worker or the coordinator's own share).
    """

    parent: int
    is_right: bool
    kind: str
    vertices: list[int] = field(default_factory=list)
    left: int = -1
    right: int = -1


def _lpt_shares(tasks: Sequence[tuple[Any, int]], participants: int) -> list[list[Any]]:
    """Greedy longest-processing-time assignment of ``(item, cost)`` tasks.

    Sorts by cost descending and always hands the next task to the least
    loaded participant -- the classic LPT 4/3-approximation, plenty for
    shares whose costs are themselves estimates.
    """
    shares: list[list[Any]] = [[] for _ in range(participants)]
    loads = [(0, k) for k in range(participants)]
    for item, cost in sorted(tasks, key=lambda t: -t[1]):
        load, k = heappop(loads)
        shares[k].append(item)
        heappush(loads, (load + cost, k))
    return shares


class ParallelBuilder:
    """Process-parallel construction of one STL index (see module docstring).

    The builder owns a pool of persistent worker processes for the duration
    of one :meth:`build` call; the pool is spawned lazily on first use and
    torn down in a ``finally`` before the method returns -- even on failure
    -- so it can never coexist with the maintenance-side
    :class:`repro.core.parallel.ProcessShardBackend` pool, and the shared
    label segment can never outlive the build.
    """

    #: Distinguishes segments of multiple live builders in one process.
    _segment_counter = itertools.count()

    def __init__(
        self,
        graph: Graph,
        options: HierarchyOptions | None = None,
        max_workers: int | None = None,
        start_method: str | None = None,
        reply_timeout: float = DEFAULT_BUILD_REPLY_TIMEOUT,
    ):
        self.graph = graph
        self.options = options or HierarchyOptions()
        requested = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.num_workers = max(1, requested)
        self.reply_timeout = reply_timeout
        self._context = multiprocessing.get_context(_pick_start_method(start_method))
        self._workers: list[_BuildWorker] | None = None

    # -------------------------------------------------------------- #
    # Pool lifecycle
    # -------------------------------------------------------------- #

    def _ensure_workers(self) -> list[_BuildWorker]:
        if self._workers is None:
            self._workers = [
                _BuildWorker(self._context, k, self.graph, self.options)
                for k in range(self.num_workers)
            ]
        return self._workers

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._workers is not None:
            for worker in self._workers:
                worker.close()
            self._workers = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -------------------------------------------------------------- #
    # Build
    # -------------------------------------------------------------- #

    def build(self) -> tuple[StableTreeHierarchy, STLLabels, BuildReport]:
        """Build hierarchy + labels; identical output to the serial build."""
        report = BuildReport(construction="parallel", workers=self.num_workers)
        try:
            start = time.perf_counter()
            hierarchy = self._build_hierarchy(report)
            report.hierarchy_seconds = time.perf_counter() - start
            start = time.perf_counter()
            labels = self._build_labels(hierarchy)
            report.label_seconds = time.perf_counter() - start
        finally:
            self.close()
        return hierarchy, labels, report

    # -------------------------------------------------------------- #
    # Phase a: hierarchy
    # -------------------------------------------------------------- #

    def _build_hierarchy(self, report: BuildReport) -> StableTreeHierarchy:
        graph = self.graph
        hierarchy = StableTreeHierarchy(graph.num_vertices)
        if graph.num_vertices == 0:
            return hierarchy

        plan = self._expand_plan(report)
        tasks = [
            ((pid, node.vertices), len(node.vertices))
            for pid, node in enumerate(plan)
            if node.kind == "pending"
        ]
        results: dict[int, Any] = {}
        if tasks:
            shares = _lpt_shares(tasks, self.num_workers + 1)
            workers = self._ensure_workers()
            for k, worker in enumerate(workers):
                worker.send(("subtrees", shares[k]))
            # The coordinator's own share overlaps the workers' computation.
            for pid, vertices in shares[self.num_workers]:
                local = BuildReport()
                results[pid] = build_subtree(graph, vertices, self.options, local)
                report.merge(local)
            for worker in workers:
                for pid, nodes, counters in worker.recv(self.reply_timeout):
                    results[pid] = nodes
                    report.merge(BuildReport(*counters))

        self._graft(hierarchy, plan, results, 0, -1, False)
        hierarchy.finalize()
        return hierarchy

    def _expand_plan(self, report: BuildReport) -> list[_PlanNode]:
        """Serially bisect top levels until the pool has enough subproblems.

        Pops the *largest* pending subproblem each round (a max-heap keyed
        on vertex count), applying exactly the decision sequence of the
        serial recursion -- same bisector, same balance enforcement, same
        leaf condition -- so the plan tree is a prefix of the serial tree.
        Stops once :data:`SATURATION_FACTOR` pending subproblems per pool
        participant exist (or everything expanded into leaves).
        """
        graph = self.graph
        options = self.options
        target = SATURATION_FACTOR * (self.num_workers + 1)
        plan = [_PlanNode(-1, False, "pending", list(graph.vertices()))]
        heap = [(-len(plan[0].vertices), 0)]
        while heap and len(heap) < target:
            _, pid = heappop(heap)
            node = plan[pid]
            vertices = node.vertices

            if len(vertices) <= options.leaf_size:
                node.kind = "leaf"
                node.vertices = _order_vertices(graph, vertices, options.order_within_node)
                report.record(Bisection([], vertices, []), is_leaf=True, balanced=True)
                continue

            try:
                bisection = options.bisector.bisect(graph, vertices)
            except PartitionError as exc:
                raise HierarchyError(
                    f"bisection failed on {len(vertices)} vertices: {exc}"
                ) from exc

            if not bisection.left or not bisection.right:
                node.kind = "leaf"
                node.vertices = _order_vertices(graph, vertices, options.order_within_node)
                report.record(bisection, is_leaf=True, balanced=True)
                continue

            balanced = enforce_balance(bisection, options.beta)
            if not balanced and options.strict_balance:
                raise HierarchyError(
                    f"bisection of {len(vertices)} vertices violates the "
                    f"beta={options.beta} balance bound: sides "
                    f"{len(bisection.left)}/{len(bisection.right)}"
                )
            report.record(bisection, is_leaf=False, balanced=balanced)

            node.kind = "inner"
            node.vertices = _order_vertices(graph, bisection.separator, options.order_within_node)
            for side, is_right in ((bisection.left, False), (bisection.right, True)):
                cid = len(plan)
                plan.append(_PlanNode(pid, is_right, "pending", side))
                heappush(heap, (-len(side), cid))
                if is_right:
                    node.right = cid
                else:
                    node.left = cid
        return plan

    def _graft(
        self,
        hierarchy: StableTreeHierarchy,
        plan: list[_PlanNode],
        results: dict[int, Any],
        pid: int,
        parent: int,
        is_right: bool,
    ) -> None:
        """Serial DFS over the plan tree, replaying the serial visit order."""
        node = plan[pid]
        if node.kind == "pending":
            graft_subtree(hierarchy, results[pid], parent, is_right)
            return
        real = hierarchy.add_node(parent, is_right)
        hierarchy.assign_vertices(real, node.vertices)
        if node.kind == "inner":
            self._graft(hierarchy, plan, results, node.left, real.index, False)
            self._graft(hierarchy, plan, results, node.right, real.index, True)

    # -------------------------------------------------------------- #
    # Phase b: labels into one shared segment
    # -------------------------------------------------------------- #

    def _build_labels(self, hierarchy: StableTreeHierarchy) -> STLLabels:
        graph = self.graph
        tau = hierarchy.tau
        offsets = label_offsets(tau)
        total = offsets[-1]
        if total == 0:
            return STLLabels.from_flat(array("d"), offsets)

        name = f"repro-stl-build-{os.getpid()}-{next(self._segment_counter)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=total * ENTRY_BYTES)
        view: Any = None
        try:
            view = shm.buf[: total * ENTRY_BYTES].cast("d")
            fill_unreachable(view)

            shares = _lpt_shares(self._root_shares(hierarchy), self.num_workers + 1)
            workers = self._ensure_workers()
            offsets_bytes = offsets.tobytes()
            tau_list = list(tau)
            for k, worker in enumerate(workers):
                worker.send(
                    (
                        "labels",
                        {
                            "segment": name,
                            "num_entries": total,
                            "offsets": offsets_bytes,
                            "tau": tau_list,
                            "roots": shares[k],
                        },
                    )
                )
            run_label_roots(graph, shares[self.num_workers], tau, view, offsets)
            for worker in workers:
                worker.recv(self.reply_timeout)

            return STLLabels.from_flat(copy_entries(view), offsets)
        finally:
            # Unlink unconditionally: the entries were copied out above on
            # success, and on any failure the segment must not leak.  Workers
            # closed their mappings before replying, so on Linux the segment
            # vanishes as soon as the coordinator's mapping closes.
            if view is not None:
                view.release()
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def _root_shares(self, hierarchy: StableTreeHierarchy) -> list[tuple[int, int]]:
        """Every vertex as a task ``(root, cost)`` for the LPT assignment.

        The cost of root ``r`` is ``|Desc(r)|`` -- the number of vertices
        its rank-restricted search can settle: the vertices at or after
        ``r`` inside its own node plus every vertex of descendant nodes.
        Subtree vertex counts come from one reverse sweep (children follow
        parents in the preorder node list, so a reversed pass sees children
        first).
        """
        counts = [0] * hierarchy.num_nodes
        for node in reversed(hierarchy.nodes):
            total = len(node.vertices)
            if node.left != -1:
                total += counts[node.left]
            if node.right != -1:
                total += counts[node.right]
            counts[node.index] = total
        tasks: list[tuple[int, int]] = []
        for node in hierarchy.nodes:
            for offset, r in enumerate(node.vertices):
                tasks.append((r, counts[node.index] - offset))
        return tasks
