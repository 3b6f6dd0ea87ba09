"""Stable Tree Labelling construction (Definition 4.6, Remark 1).

The label of a vertex ``v`` is a flat array ``L(v)`` of length ``tau(v) + 1``
whose entry ``L(v)[i]`` is the distance from ``v`` to its unique ancestor
``r`` with label index ``i``, measured **within the subgraph**
``G[Desc(r)]`` -- not within the whole graph.  Storing subgraph distances is
the paper's crucial design choice: an edge update can only affect ``L(v)[i]``
when the updated edge lies inside ``G[Desc(r)]``, which drastically limits
the number of labels any update touches.

Construction relaxes from every vertex at once: each vertex ``r`` starts
with ``L(r)[tau(r)] = 0`` and every other entry at ``inf``, and one
label-correcting relax (:meth:`repro.core.kernels.LabelSearchRounds.relax`)
carries index ``i`` over an arc ``v -> u`` only while ``tau(u) > i`` -- which,
by the separator property of the stable tree hierarchy, confines the search
for ancestor ``r`` to ``G[Desc(r)]``.  Its fixed point is the same
left-to-right float64 sum a rank-restricted Dijkstra from ``r`` computes, so
the buffer is byte-identical to one Dijkstra per vertex; that per-root loop
remains the build without numpy.

Storage layout
--------------
Entries live in **one flat buffer** laid out CSR-style: an ``array('d')`` of
C doubles (or a ``memoryview`` over a ``multiprocessing.shared_memory``
segment) plus an offsets array of ``n + 1`` positions, so row ``v`` is
``entries[offsets[v]:offsets[v + 1]]``.  ``labels[v]`` returns a cached
zero-copy ``memoryview`` over that range -- reads and writes through a row go
straight to the flat buffer, slicing any row is O(1) pointer arithmetic, and
the whole store is numpy-compatible via the buffer protocol
(``numpy.frombuffer(labels.view)`` gives a float64 array over the entries).
The row views are built on the first row access, not when a buffer is
adopted: the kernels and the serving layer read the flat buffer, so a store
that only they touch -- every copy a serve commit makes -- never pays for
``n`` views.  Copying a store (:meth:`STLLabels.snapshot_store`,
:meth:`~STLLabels.copy`, :meth:`~STLLabels.unshare`) is one ``memcpy`` into
the new buffer, with no intermediate ``bytes``.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Iterable, Iterator, Sequence

from repro.algorithms.dijkstra import (
    dijkstra_rank_restricted,
    dijkstra_rank_restricted_into,
)
from repro.core import kernels
from repro.core.kernels import on_old_shortest_path
from repro.graph.graph import Graph
from repro.hierarchy.tree import StableTreeHierarchy
from repro.utils.errors import LabellingError
from repro.utils.memory import MemoryEstimate

#: Sentinel for "ancestor unreachable inside its subgraph".
UNREACHABLE = math.inf

#: Bytes per entry in the flat store (C double).
ENTRY_BYTES = 8
#: Bytes per position in the offsets array (C signed 64-bit).
OFFSET_BYTES = 8

#: The mutable row view ``STLLabels.__getitem__`` returns.  At runtime it is
#: a ``memoryview`` over the flat entries buffer; the alias is ``Any`` because
#: typeshed models ``memoryview`` as a byte container, not a float one.
LabelRow = Any


class STLLabels:
    """The distance arrays of a Stable Tree Labelling (CSR layout).

    ``labels[v][i]`` is the subgraph distance from ``v`` to its ancestor with
    label index ``i`` (``math.inf`` when that ancestor cannot be reached
    inside its own subgraph -- possible only on disconnected inputs).

    The public surface is row-oriented and unchanged from the nested-list
    era: ``labels[v]`` / ``label_of(v)`` return the same mutable row object
    on every call (identity-stable, write-through), and ``labels.labels[v]``
    still works as the legacy accessor.  Internally all entries share one
    flat buffer indexed by a per-vertex offsets array -- see the module
    docstring for the layout, and :meth:`share_into` / :meth:`unshare` for
    moving the buffer into and out of shared memory.  The row views are
    built on the first row access (``labels[v]``, :meth:`label_of`,
    :attr:`labels`, :meth:`set_row`, :meth:`entry`, :meth:`iter_entries`,
    :meth:`differences`) and live until the buffer is replaced.
    """

    __slots__ = (
        "_entries",
        "_offsets",
        "_view",
        "_rows",
        "_np_cache",
        "_arc_cache",
        "_epoch",
        "_pins",
        "_drained_callbacks",
    )

    def __init__(self, labels: Iterable[Iterable[float]]):
        entries = array("d")
        offsets = array("q", [0])
        for row in labels:
            entries.extend(row)
            offsets.append(len(entries))
        self._adopt(entries, offsets)

    @classmethod
    def from_flat(cls, entries: Any, offsets: Any) -> "STLLabels":
        """Adopt a flat entries buffer and its offsets array directly.

        ``entries`` may be an ``array('d')`` or a ``'d'``-format
        ``memoryview`` (e.g. over a shared-memory segment); either is adopted
        without copying.  Any other iterable is materialised into a fresh
        ``array('d')``.  Raises :class:`LabellingError` when the offsets are
        not a valid CSR index over the entries.
        """
        if not isinstance(entries, (array, memoryview)):
            entries = array("d", entries)
        if not isinstance(offsets, array) or offsets.typecode != "q":
            offsets = array("q", offsets)
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(entries):
            raise LabellingError(
                f"offsets must run from 0 to len(entries)={len(entries)}, "
                f"got {offsets[:1]}..{offsets[-1:]}"
            )
        if any(offsets[i] > offsets[i + 1] for i in range(len(offsets) - 1)):
            raise LabellingError("offsets must be non-decreasing")
        self = object.__new__(cls)
        self._adopt(entries, offsets)
        return self

    def _adopt(self, entries: Any, offsets: Any) -> None:
        """Point the store at ``entries``/``offsets`` and drop the row views.

        Adopting a buffer invalidates the cached numpy views (see
        :func:`repro.core.kernels.label_arrays`) and bumps
        :attr:`buffer_epoch`: a cached ``frombuffer`` view shares memory
        with the *old* buffer, so it stays coherent under in-place entry
        writes but must never survive the buffer being replaced -- a
        resident worker reading a stale view would read an unmapped (or
        foreign) segment.
        """
        self._entries = entries
        self._offsets = offsets
        view = entries if isinstance(entries, memoryview) else memoryview(entries)
        if view.format != "d":
            raise LabellingError(f"entries buffer must hold C doubles, got format {view.format!r}")
        self._view = view
        # Built by ``_row_list`` on the first row access.
        self._rows: list[LabelRow] | None = None
        self._np_cache: Any = None
        self._arc_cache: Any = None
        self._epoch = getattr(self, "_epoch", -1) + 1
        self._pins: int = getattr(self, "_pins", 0)
        self._drained_callbacks: list[Any] = getattr(self, "_drained_callbacks", [])

    def _release_views(self) -> None:
        """Release every exported view over the current entries buffer."""
        # The numpy cache holds a buffer export over ``_view``; drop it
        # first or ``_view.release()`` raises BufferError.
        self._np_cache = None
        if self._rows is not None:
            for row in self._rows:
                row.release()
        # An empty list, not ``None``: a released store has no rows to build.
        self._rows = []
        self._view.release()

    def _row_list(self) -> list[LabelRow]:
        """The per-vertex row views, built on the first call."""
        rows = self._rows
        if rows is None:
            view, offsets = self._view, self._offsets
            rows = self._rows = [view[offsets[v] : offsets[v + 1]] for v in range(len(offsets) - 1)]
        return rows

    # ------------------------------------------------------------------ #
    # Row access (the surface every kernel and caller uses)
    # ------------------------------------------------------------------ #

    @property
    def labels(self) -> list[LabelRow]:
        """Per-vertex row views (legacy accessor: ``labels.labels[v][i]``)."""
        return self._row_list()

    def __getitem__(self, vertex: int) -> LabelRow:
        # The Pareto searches index rows in their inner loops: keep the hit
        # path to one attribute read and one ``None`` test.
        rows = self._rows
        if rows is None:
            rows = self._row_list()
        return rows[vertex]

    def __len__(self) -> int:
        rows = self._rows
        return len(self._offsets) - 1 if rows is None else len(rows)

    def label_of(self, vertex: int) -> LabelRow:
        """The distance array of ``vertex`` (alias of ``self[vertex]``)."""
        return self[vertex]

    def entry(self, vertex: int, label_index: int) -> float:
        """``L(v)[i]`` with bounds checking (used by tests and tools)."""
        label = self[vertex]
        if not 0 <= label_index < len(label):
            raise LabellingError(f"vertex {vertex} has no label entry for index {label_index}")
        return label[label_index]

    def set_row(self, vertex: int, values: Sequence[float]) -> None:
        """Overwrite row ``vertex`` in place; length must match exactly."""
        row = self[vertex]
        if len(values) != len(row):
            raise LabellingError(
                f"row {vertex} holds {len(row)} entries, cannot assign {len(values)}"
            )
        row[:] = array("d", values)

    # ------------------------------------------------------------------ #
    # Flat-buffer access
    # ------------------------------------------------------------------ #

    @property
    def view(self) -> memoryview:
        """``'d'``-format view over the flat entries buffer (all rows)."""
        return self._view

    @property
    def offsets(self) -> Any:
        """CSR offsets: row ``v`` is ``view[offsets[v]:offsets[v + 1]]``."""
        return self._offsets

    @property
    def is_shared(self) -> bool:
        """Whether the entries live in an adopted external buffer (e.g. shm)."""
        return isinstance(self._entries, memoryview)

    @property
    def buffer_epoch(self) -> int:
        """Generation counter of the underlying entries buffer.

        Bumped every time the store adopts a new buffer (construction,
        :meth:`share_into`, :meth:`unshare`) -- in-place entry writes do
        *not* bump it, because views over the buffer stay coherent through
        them.  :func:`repro.core.kernels.label_arrays` keys its cached
        ndarray views on this: any adoption drops the cache, so a stale view
        over a replaced (possibly unmapped shared-memory) buffer can never
        be served.
        """
        return self._epoch

    def num_entries(self) -> int:
        """Total number of stored distance entries (Table 4, '# Label Entries')."""
        return self._offsets[-1]

    def memory_estimate(self) -> MemoryEstimate:
        """Size estimate in the compact layout used for Table 4."""
        return MemoryEstimate(distance_entries=self.num_entries())

    def store_bytes(self) -> int:
        """Actual bytes held by the flat store (entries plus offsets)."""
        return self.num_entries() * ENTRY_BYTES + len(self._offsets) * OFFSET_BYTES

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(vertex, label_index, distance)`` over every entry."""
        for v, label in enumerate(self._row_list()):
            for i, d in enumerate(label):
                yield v, i, d

    def copy(self) -> "STLLabels":
        """Deep copy (used by tests that compare maintained vs rebuilt labels)."""
        return STLLabels.from_flat(copy_entries(self._view), array("q", self._offsets))

    def snapshot_store(self) -> "STLLabels":
        """An independent copy of the entries sharing this store's offsets.

        The serving layer's shadow-copy step: one ``memcpy`` of the flat
        entries buffer into the new store's ``array('d')``, with the offsets
        array *shared* between the two stores -- offsets are fixed by the
        hierarchy and treated as immutable everywhere, so the snapshot
        saves ``n + 1`` positions of allocation, skips :meth:`from_flat`'s
        O(n) offsets check (this store passed it), and the shape comparison
        in :meth:`load_from` stays an O(1) identity hit.  The copy allocates
        exactly one store and builds no row views.  True copy-on-*write*
        (sharing entries until the first mutation) is not possible here:
        engines write through raw ``memoryview`` rows with no hook to
        intercept, so the copy happens eagerly at the swap boundary instead
        (see :class:`repro.core.snapshot.LabelSnapshot`).

        >>> labels = STLLabels([[0.0], [1.5, 0.0]])
        >>> snap = labels.snapshot_store()
        >>> bytes(snap.view) == bytes(labels.view), snap.offsets is labels.offsets
        (True, True)
        >>> snap[1][0] = 9.0
        >>> labels[1][0], snap[1][0]
        (1.5, 9.0)
        """
        snap = object.__new__(STLLabels)
        snap._adopt(copy_entries(self._view), self._offsets)
        return snap

    # ------------------------------------------------------------------ #
    # Reader pinning (epoch-based reclamation support)
    # ------------------------------------------------------------------ #

    @property
    def pinned(self) -> bool:
        """Whether any reader currently holds a pin on this store."""
        return self._pins > 0

    @property
    def pin_count(self) -> int:
        """Number of outstanding reader pins."""
        return self._pins

    def pin(self) -> None:
        """Register an in-flight reader of this store.

        Used by :class:`repro.core.snapshot.LabelSnapshot` readers so that
        teardown paths (:meth:`release_views`-style buffer releases,
        :meth:`repro.core.stl.StableTreeLabelling.close`) can defer until
        every reader finished -- the epoch-reclamation handshake of the
        serving layer.  Pin bookkeeping is not thread-safe by itself; the
        service confines it to the event-loop thread.
        """
        self._pins += 1

    def unpin(self) -> None:
        """Release one reader pin; fires deferred callbacks on the last one."""
        if self._pins <= 0:
            raise LabellingError("unpin() without a matching pin()")
        self._pins -= 1
        if self._pins == 0 and self._drained_callbacks:
            callbacks, self._drained_callbacks = self._drained_callbacks, []
            for callback in callbacks:
                callback()

    def defer_until_drained(self, callback: Any) -> None:
        """Run ``callback`` once no reader pins remain (immediately if none).

        Callbacks fire at most once, in registration order, from within the
        :meth:`unpin` call that drops the last pin.
        """
        if self._pins == 0:
            callback()
        else:
            self._drained_callbacks.append(callback)

    def load_from(self, other: "STLLabels") -> None:
        """Copy every entry from ``other`` through the live buffer.

        Engines -- and, when shared, resident worker processes -- hold
        references to this object and its memory, so an in-place rebuild must
        overwrite the buffer rather than replace it.  Shapes must match.
        """
        if self._offsets != other._offsets:
            raise LabellingError("label shapes differ; cannot load in place")
        self._view[:] = other._view

    # ------------------------------------------------------------------ #
    # Shared-memory residency
    # ------------------------------------------------------------------ #

    def share_into(self, target: memoryview) -> None:
        """Move the entries into ``target`` (a shared-memory mapping).

        Copies the current values into ``target`` and repoints every row view
        at it; afterwards writes through this object are visible to every
        process mapping the same segment.  ``target`` must be a writable
        ``'d'``-format view with exactly ``num_entries()`` items (slice a
        page-rounded segment down first: ``shm.buf[:nbytes].cast('d')``).
        """
        if target.format != "d" or target.readonly or len(target) != self.num_entries():
            raise LabellingError(
                f"target must be a writable 'd' view of {self.num_entries()} items"
            )
        target[:] = self._view
        self._release_views()
        self._adopt(target, self._offsets)

    def unshare(self) -> None:
        """Detach from a shared buffer back onto a private ``array('d')``.

        Copies the current values out, then releases every exported view over
        the shared buffer so the caller can close the mapping.  No-op when the
        store is already private.
        """
        if not self.is_shared:
            return
        entries = copy_entries(self._view)
        self._release_views()
        self._adopt(entries, self._offsets)

    def release_views(self) -> None:
        """Release every exported view, leaving the object unusable.

        Worker processes call this on a shared-buffer store before closing
        their mapping (an exported ``memoryview`` would make ``shm.close()``
        raise ``BufferError``).
        """
        self._release_views()

    # ------------------------------------------------------------------ #
    # Comparison
    # ------------------------------------------------------------------ #

    def equals(self, other: "STLLabels") -> bool:
        """Entry-wise equality up to the package's one float tolerance.

        Finite entries are compared with
        :func:`~repro.core.kernels.on_old_shortest_path`; ``inf`` entries
        must match exactly.

        Stores with different vertex counts or row lengths are unequal --
        every entry one side is missing counts as a mismatch, mirroring
        :meth:`differences`.
        """
        if self._offsets != other._offsets:
            return False
        for a, b in zip(self._view, other._view):
            if math.isinf(a) or math.isinf(b):
                if a != b:
                    return False
            elif not on_old_shortest_path(a, b):
                return False
        return True

    def differences(self, other: "STLLabels") -> list[tuple[int, int, float, float]]:
        """List of ``(vertex, index, mine, theirs)`` entries that differ.

        Entries are compared as in :meth:`equals`.  Rows are compared out to
        ``max(len)`` (and vertex sets out to the larger store): an entry
        present on one side only is reported with ``math.nan`` standing in
        for the missing value and always counts as a difference.  A
        ``zip``-based scan would silently truncate exactly the rows whose
        length changed -- the diffs most worth reporting.
        """
        diffs = []
        mine_rows = self._row_list()
        their_rows = other._row_list()
        for v in range(max(len(mine_rows), len(their_rows))):
            mine = mine_rows[v] if v < len(mine_rows) else ()
            theirs = their_rows[v] if v < len(their_rows) else ()
            for i in range(max(len(mine), len(theirs))):
                a = mine[i] if i < len(mine) else math.nan
                b = theirs[i] if i < len(theirs) else math.nan
                if math.isnan(a) or math.isnan(b):
                    different = True
                elif math.isinf(a) or math.isinf(b):
                    different = a != b
                else:
                    different = not on_old_shortest_path(a, b)
                if different:
                    diffs.append((v, i, a, b))
        return diffs


def copy_entries(view: memoryview) -> array:
    """A private ``array('d')`` holding the entries of the ``'d'`` view ``view``.

    One ``memcpy`` straight into the new array's buffer: ``frombytes`` reads
    a byte cast of ``view`` instead of a ``tobytes()`` temporary, so the
    copy allocates one store, not two.  The cast is released before this
    returns, so callers may release ``view`` (and close the mapping under
    it) right after.
    """
    entries = array("d")
    with view.cast("B") as raw:
        entries.frombytes(raw)
    return entries


def build_labels(graph: Graph, hierarchy: StableTreeHierarchy) -> STLLabels:
    """Construct STL labels for ``graph`` over ``hierarchy``.

    With numpy, one relax from all ``n`` roots (see
    :func:`build_labels_with_counts`); without it, one rank-restricted
    Dijkstra per root in label order.  Both produce the same bytes.
    """
    return build_labels_with_counts(graph, hierarchy)[0]


def build_labels_with_counts(
    graph: Graph, hierarchy: StableTreeHierarchy
) -> tuple[STLLabels, int, int]:
    """:func:`build_labels` plus the work it did: ``(labels, rounds, enqueued)``.

    With numpy the store starts at ``inf`` and
    :meth:`~repro.core.kernels.LabelSearchRounds.relax_from_roots` computes
    every entry; ``rounds`` and ``enqueued`` are the frontiers it processed
    and the entries it placed on them, so ``enqueued / num_entries`` is its
    re-relaxation factor.  Without numpy each root runs
    :func:`~repro.algorithms.dijkstra.dijkstra_rank_restricted_into`, which
    writes entries at settle time, and both counts are 0.
    """
    if hierarchy.num_vertices != graph.num_vertices:
        raise LabellingError(
            f"hierarchy covers {hierarchy.num_vertices} vertices, "
            f"graph has {graph.num_vertices}"
        )
    tau = hierarchy.tau
    offsets = label_offsets(tau)
    entries = array("d", [UNREACHABLE]) * offsets[-1]
    labels = STLLabels.from_flat(entries, offsets)
    if kernels.HAS_NUMPY:
        rounds = kernels.LabelSearchRounds(graph, labels, hierarchy)
        rounds.relax_from_roots()
        return labels, rounds.rounds, rounds.enqueued
    adjacency = graph.adjacency()
    for r in hierarchy.vertices_in_label_order():
        dijkstra_rank_restricted_into(adjacency, r, tau, entries, offsets, tau[r])
    return labels, 0, 0


def label_offsets(tau: Sequence[int]) -> array:
    """The CSR offsets array implied by ``tau``: row ``v`` holds ``tau[v] + 1`` entries.

    Shared by the serial build above and the parallel builder
    (:mod:`repro.core.construction`), which pre-sizes its shared-memory
    segment from ``offsets[-1]`` before any worker starts.
    """
    offsets = array("q", [0])
    total = 0
    for t in tau:
        total += t + 1
        offsets.append(total)
    return offsets


def verify_labels(graph: Graph, hierarchy: StableTreeHierarchy, labels: STLLabels) -> list[str]:
    """Exhaustively verify labels against rank-restricted Dijkstra.

    Returns a list of human-readable problems (empty when the labelling is
    correct).  O(n * h * search) -- strictly a test/debug utility.
    """
    problems: list[str] = []
    tau = hierarchy.tau
    for r in hierarchy.vertices_in_label_order():
        index = tau[r]
        expected = dijkstra_rank_restricted(graph, r, tau)
        for x in hierarchy.descendants(r):
            want = expected.get(x, UNREACHABLE)
            got = labels[x][index]
            matches = (
                (want == got)
                if (math.isinf(want) or math.isinf(got))
                else on_old_shortest_path(got, want)
            )
            if not matches:
                problems.append(f"L({x})[{index}] = {got}, expected {want} (ancestor {r})")
    return problems
