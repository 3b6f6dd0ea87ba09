"""Vectorised query and maintenance kernels over the CSR label store.

The PR 6 refactor flattened every label into one contiguous ``array('d')``
entries buffer plus an offsets array precisely so that bulk operations could
run as a handful of C-level array sweeps instead of per-pair Python loops.
This module is that payoff:

* :func:`batch_query` answers a whole batch of distance queries with one
  fused gather + segment-min over the flat buffer -- per-pair common-prefix
  lengths are computed in bulk from the hierarchy's partition bitstrings
  (:func:`common_prefix_lengths`), the two prefix runs of every pair are
  gathered with two fancy-indexing passes, and ``np.minimum.reduceat``
  reduces each pair's segment.  Python overhead is O(1) per *batch* instead
  of O(prefix) per *pair*.
* :func:`seed_affected_rows` and :func:`interval_hit_levels` lift the
  increase mark phases' ``on_old_shortest_path`` predicate to a tolerance
  compare over whole label rows at once; both the Pareto interval mark
  search and Label Search's affected-seed pass call them (falling back to
  their scalar loops on short rows, where the numpy call overhead loses).
* :class:`LabelSearchRounds` runs the batched Label Search engine's two
  passes for *all label indexes of a coalesced batch at once*, as
  level-synchronous rounds over flat entry positions of the label store and
  the graph's own CSR arrays (:meth:`repro.graph.graph.Graph.csr`).  The
  label build is the same relax, started from every root at once.

numpy is an *optional* dependency (install the ``repro[fast]`` extra): every
entry point has a pure-Python fallback selected at import time, and the
scalar and vectorised paths are bit-for-bit identical -- both do the same
float64 additions and comparisons, just batched -- which the property tests
assert entry-wise.

Cached array views
------------------
``np.frombuffer`` over the store's flat buffer shares memory with it, so a
cached view stays coherent under in-place entry writes; what invalidates it
is the buffer being *replaced* (``share_into`` / ``unshare`` moving the
entries into or out of a shared-memory segment).  :func:`label_arrays`
therefore caches the ``(entries, offsets)`` ndarray pair on the
:class:`repro.core.labelling.STLLabels` object itself, and the store drops
the cache whenever it adopts a new buffer (observable as a
``buffer_epoch`` bump) -- resident workers can never read a view over a
segment that has been unmapped.
"""

from __future__ import annotations

import math
import struct
from array import array
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Sequence

from repro.utils.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.labelling import STLLabels
    from repro.graph.graph import Graph
    from repro.hierarchy.tree import StableTreeHierarchy

try:  # pragma: no cover - exercised via both CI legs, not branch coverage
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

#: Whether the vectorised kernels are available in this interpreter.
HAS_NUMPY = _np is not None

#: Kernel names accepted by ``batch_query(kernel=...)``.
KERNEL_NAMES = ("scalar", "vector")

#: The kernel ``kernel=None`` resolves to (import-time selection).
DEFAULT_KERNEL = "vector" if HAS_NUMPY else "scalar"

#: Relative slack for the mark phases' "does this old shortest path run
#: through the updated edge" test (Algorithm 2 line 5 / Algorithm 4 line
#: 17).  Exact float equality only survives while every label entry is
#: bitwise-identical to the left-to-right relaxation sum that built it;
#: decrease repairs write entries as differently-associated sums of the same
#: reals, so after the first decrease an exact test silently misses affected
#: entries.  Over-marking is repair-safe, so the slack trades a sliver of
#: extra repair work for robustness on any label state.  (Moved here from
#: ``label_search`` so the row-level kernels and the scalar predicate share
#: one constant; ``label_search`` re-exports both.)
MARK_SLACK = 1e-9

#: Minimum row span before the row-level mark kernels beat their scalar
#: loops: a numpy call costs a few microseconds of fixed overhead (buffer
#: wrap, slicing, ufunc dispatch) while the scalar loop runs ~0.15us per
#: level, so short intervals stay scalar.  Tests monkeypatch this to 1 to
#: force the vector path when asserting scalar/vector mark parity.
VECTOR_MIN_SPAN = 32

#: Pairs per chunk of the fused batch-query gather.  The gather's working
#: set is roughly ``3 * 8 bytes * chunk * avg_prefix`` (two index arrays
#: plus the summed entries); chunking keeps it inside the cache hierarchy,
#: which measures ~3x faster than one monolithic pass at paper scale
#: (20k pairs x ~300-entry prefixes = a 45MB temporary otherwise).
_QUERY_CHUNK_PAIRS = 1024

#: Maximum hierarchy node depth the int64 bitstring kernels support.  The
#: builder's balanced bisection keeps depth around log2(n / leaf_size), so
#: this is never hit on real road networks; a pathological hierarchy falls
#: back to the scalar prefix computation rather than overflowing.
_MAX_BITS_DEPTH = 62


def on_old_shortest_path(candidate: float, entry: float) -> bool:
    """Whether ``candidate`` realises the finite ``entry`` up to float re-association.

    The package's one float tolerance, relative: ``MARK_SLACK * max(1.0,
    entry)``.  The mark phases ask it whether an old shortest path runs
    through an updated edge, and
    :meth:`repro.core.labelling.STLLabels.equals` / ``differences`` and
    :func:`repro.core.labelling.verify_labels` ask it whether two entries
    agree -- engines that associate the same sum differently land one ulp
    apart, which at ``1e15`` is more than any absolute tolerance would allow.
    """
    return abs(candidate - entry) <= MARK_SLACK * max(1.0, entry)


def normalize_kernel(kernel: str | None) -> str:
    """Map a ``batch_query(kernel=...)`` argument to a kernel name.

    ``None`` resolves to :data:`DEFAULT_KERNEL` (``"vector"`` when numpy
    imported at module load, ``"scalar"`` otherwise).  An explicit
    ``"vector"`` without numpy raises -- silently degrading an explicit
    request would make benchmark labels lie.  Bad names raise
    :class:`repro.utils.errors.ConfigError` (a :class:`ValueError`
    subclass).
    """
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel in KERNEL_NAMES:
        if kernel == "vector" and not HAS_NUMPY:
            raise ConfigError(
                "kernel='vector' requires numpy, which is not installed; "
                "install the repro[fast] extra or use kernel='scalar'"
            )
        return kernel
    allowed = ", ".join(repr(name) for name in KERNEL_NAMES)
    raise ConfigError(
        f"unknown query kernel {kernel!r}; allowed kernels: {allowed} (or None)"
    )


# --------------------------------------------------------------------------- #
# Cached numpy views
# --------------------------------------------------------------------------- #


def label_arrays(labels: "STLLabels") -> tuple[Any, Any]:
    """The ``(entries, offsets)`` float64/int64 ndarray pair of ``labels``.

    Cached on the store itself (one ``np.frombuffer`` per buffer adoption,
    not per query batch); the arrays *share memory* with the flat buffer, so
    in-place entry writes are immediately visible through them.  The store
    clears the cache whenever it adopts a new buffer (``share_into`` /
    ``unshare`` / deserialisation) -- see ``STLLabels.buffer_epoch``.
    """
    cached = labels._np_cache
    if cached is not None:
        return cached
    entries = _np.frombuffer(labels.view, dtype=_np.float64)
    offsets = _np.frombuffer(labels.offsets, dtype=_np.int64)
    labels._np_cache = (entries, offsets)
    return labels._np_cache


def _as_row_array(row: Any) -> Any:
    """Wrap one label row (a ``'d'`` memoryview or ``array('d')``) as float64."""
    return _np.frombuffer(row, dtype=_np.float64)


# --------------------------------------------------------------------------- #
# Bulk common-prefix lengths from the hierarchy bitstrings
# --------------------------------------------------------------------------- #


def hierarchy_arrays(hierarchy: "StableTreeHierarchy") -> dict[str, Any] | None:
    """Flat ndarray mirrors of the hierarchy's LCA machinery (cached).

    Returns ``None`` (and caches the refusal) when numpy is unavailable or a
    node sits deeper than :data:`_MAX_BITS_DEPTH` -- the int64 bitstring
    arithmetic below would overflow, so such hierarchies stay on the scalar
    path.  The hierarchy is immutable after construction, so the cache never
    invalidates.
    """
    cached = getattr(hierarchy, "_kernel_arrays", "missing")
    if cached != "missing":
        return cached
    arrays: dict[str, Any] | None = None
    if HAS_NUMPY and hierarchy.nodes:
        max_depth = max(node.depth for node in hierarchy.nodes)
        if max_depth <= _MAX_BITS_DEPTH:
            num_nodes = len(hierarchy.nodes)
            depth = _np.empty(num_nodes, dtype=_np.int64)
            bits = _np.empty(num_nodes, dtype=_np.int64)
            cum_count = _np.empty(num_nodes, dtype=_np.int64)
            path_table = _np.zeros((num_nodes, max_depth + 1), dtype=_np.int64)
            for node in hierarchy.nodes:
                depth[node.index] = node.depth
                bits[node.index] = node.bits
                cum_count[node.index] = node.cumulative_count
                path_table[node.index, : node.depth + 1] = node.path
            arrays = {
                "tau": _np.asarray(hierarchy.tau, dtype=_np.int64),
                "node_of": _np.asarray(hierarchy.node_of, dtype=_np.int64),
                "depth": depth,
                "bits": bits,
                "cum_count": cum_count,
                "path_table": path_table,
            }
    hierarchy._kernel_arrays = arrays
    return arrays


def _bit_length(x: Any) -> Any:
    """Vectorised ``int.bit_length`` for non-negative int64 arrays."""
    x = x.astype(_np.uint64)
    for shift in (1, 2, 4, 8, 16, 32):
        x |= x >> _np.uint64(shift)
    if hasattr(_np, "bitwise_count"):  # numpy >= 2.0
        return _np.bitwise_count(x).astype(_np.int64)
    # Fallback: after the fold x+1 is a power of two <= 2**63, exactly
    # representable in float64, so log2 is exact.
    return _np.rint(_np.log2(x.astype(_np.float64) + 1.0)).astype(_np.int64)


def common_prefix_lengths(
    hierarchy: "StableTreeHierarchy", s: Any, t: Any, arrays: dict[str, Any] | None = None
) -> Any:
    """``num_common_ancestors`` for whole index arrays at once.

    ``s``/``t`` are int64 ndarrays of vertex ids (already bounds-checked);
    the result is an int64 ndarray of per-pair label-prefix lengths,
    entry-wise equal to :meth:`StableTreeHierarchy.num_common_ancestors`.
    """
    h = arrays if arrays is not None else hierarchy_arrays(hierarchy)
    assert h is not None, "caller must check hierarchy_arrays() first"
    ns = h["node_of"][s]
    nt = h["node_of"][t]
    ds = h["depth"][ns]
    dt = h["depth"][nt]
    d = _np.minimum(ds, dt)
    bs = h["bits"][ns] >> (ds - d)
    bt = h["bits"][nt] >> (dt - d)
    lca_depth = d - _bit_length(bs ^ bt)
    lca_node = h["path_table"][ns, lca_depth]
    chain = _np.minimum(h["tau"][s], h["tau"][t]) + 1
    return _np.minimum(chain, h["cum_count"][lca_node])


# --------------------------------------------------------------------------- #
# batch_query: scalar and vector kernels + dispatch
# --------------------------------------------------------------------------- #


def _check_pair_bounds(s: Any, t: Any, num_vertices: int) -> None:
    """Replicate the scalar path's ``IndexError`` contract for id arrays."""
    for ids in (s, t):
        bad = _np.nonzero((ids < 0) | (ids >= num_vertices))[0]
        if bad.size:
            i = int(bad[0])
            if s[i] < 0 or t[i] < 0:
                raise IndexError(
                    f"vertex ids must be non-negative, got ({int(s[i])}, {int(t[i])})"
                )
            raise IndexError(
                f"vertex id out of range for {num_vertices} vertices: "
                f"({int(s[i])}, {int(t[i])})"
            )


def batch_query_vector(
    hierarchy: "StableTreeHierarchy",
    labels: "STLLabels",
    pairs: Sequence[tuple[int, int]],
    arrays: dict[str, Any] | None = None,
) -> list[float]:
    """The fused numpy batch query (see the module docstring for the scheme).

    Entry-wise equal to mapping :func:`repro.core.query.query_distance` over
    ``pairs``: ``0.0`` for ``s == t``, ``inf`` for disconnected pairs, the
    segment-min of ``L(s)[i] + L(t)[i]`` over the common prefix otherwise.
    """
    if not len(pairs):
        return []
    pair_array = _np.asarray(pairs, dtype=_np.int64).reshape(len(pairs), 2)
    s = pair_array[:, 0]
    t = pair_array[:, 1]
    _check_pair_bounds(s, t, len(labels))
    entries, offsets = label_arrays(labels)
    prefix = common_prefix_lengths(hierarchy, s, t, arrays)

    result = _np.full(len(pairs), math.inf)
    same = s == t
    result[same] = 0.0
    active = ~same & (prefix > 0)
    if active.any():
        p = prefix[active]
        off_s = offsets[s[active]]
        off_t = offsets[t[active]]
        out = _np.empty(len(p))
        for lo in range(0, len(p), _QUERY_CHUNK_PAIRS):
            hi = min(lo + _QUERY_CHUNK_PAIRS, len(p))
            cp = p[lo:hi]
            starts = _np.zeros(hi - lo, dtype=_np.int64)
            _np.cumsum(cp[:-1], out=starts[1:])
            # One flat position index per scanned entry; np.repeat turns
            # the per-pair row bases into per-entry gather indexes.
            pos = _np.arange(int(starts[-1] + cp[-1]), dtype=_np.int64)
            pos -= _np.repeat(starts, cp)
            idx = _np.repeat(off_s[lo:hi], cp)
            idx += pos
            sums = entries[idx]
            idx = _np.repeat(off_t[lo:hi], cp)
            idx += pos
            sums += entries[idx]
            out[lo:hi] = _np.minimum.reduceat(sums, starts)
        result[active] = out
    return result.tolist()


def batch_query_scalar(
    hierarchy: "StableTreeHierarchy",
    labels: "STLLabels",
    pairs: Sequence[tuple[int, int]],
) -> list[float]:
    """The pure-Python fallback: one :func:`query_distance` per pair."""
    from repro.core.query import query_distance

    return [query_distance(hierarchy, labels, s, t) for s, t in pairs]


def batch_query(
    hierarchy: "StableTreeHierarchy",
    labels: "STLLabels",
    pairs: Sequence[tuple[int, int]],
    kernel: str | None = None,
) -> list[float]:
    """Answer a batch of distance queries with the chosen kernel.

    ``kernel`` is ``"scalar"``, ``"vector"`` or ``None`` (import-time
    default: vector when numpy is installed).  A hierarchy too deep for the
    int64 bitstring arithmetic silently degrades to scalar -- the answers
    are identical either way.
    """
    chosen = normalize_kernel(kernel)
    if chosen == "vector":
        arrays = hierarchy_arrays(hierarchy)
        if arrays is not None:
            return batch_query_vector(hierarchy, labels, pairs, arrays)
    return batch_query_scalar(hierarchy, labels, pairs)


# --------------------------------------------------------------------------- #
# Row-level mark kernels (the increase phases of both engines)
# --------------------------------------------------------------------------- #

_ROW_TYPES = (memoryview, array)


def seed_affected_rows(
    label_a: Any, label_b: Any, w_old: float, prefix: int
) -> tuple[Any, Any] | None:
    """Vectorised Algorithm 2 seed test over the whole common prefix.

    Returns ``(push_b, push_a)`` -- the label indexes where the old shortest
    path of ``b`` (resp. ``a``) runs through the updated edge, exactly the
    indexes the scalar loop in ``seed_affected_queues`` seeds (including its
    ``elif``: an index never seeds both sides).  Returns ``None`` when the
    vector path does not apply (no numpy, short prefix, or rows that are not
    flat buffers) so the caller falls back to the scalar loop.
    """
    if (
        not HAS_NUMPY
        or prefix < VECTOR_MIN_SPAN
        or not isinstance(label_a, _ROW_TYPES)
        or not isinstance(label_b, _ROW_TYPES)
    ):
        return None
    push_b, push_a = _through_edge(
        _as_row_array(label_a)[:prefix], _as_row_array(label_b)[:prefix], w_old
    )
    return _np.nonzero(push_b)[0], _np.nonzero(push_a)[0]


def _through_edge(da: Any, db: Any, w_old: Any) -> tuple[Any, Any]:
    """The Algorithm 2 seed test on aligned entry arrays of both endpoints.

    ``push_b[k]`` says the old shortest path behind ``db[k]`` runs through
    the updated edge (``da[k] + w_old`` realises it up to
    :data:`MARK_SLACK`), ``push_a[k]`` the converse; an entry never seeds
    both sides and ``inf`` entries seed nothing.
    """
    with _np.errstate(invalid="ignore"):
        finite = _np.isfinite(da) & _np.isfinite(db)
        push_b = finite & _realises(da + w_old, db)
        push_a = finite & ~push_b & _realises(db + w_old, da)
    return push_b, push_a


def _realises(candidate: Any, entry: Any) -> Any:
    """:func:`on_old_shortest_path` over arrays (callers mask ``inf`` entries)."""
    return _np.abs(candidate - entry) <= MARK_SLACK * _np.maximum(1.0, entry)


def interval_hit_levels(
    d: float, root_row: Any, label_row: Any, lo: int, hi: int
) -> list[int] | None:
    """Vectorised Algorithm 4 line-17 test over an active interval.

    Returns the levels ``i`` in ``[lo, hi]`` where ``d + L(root)[i]``
    realises ``L(v)[i]`` (the scalar loop's exact hit set, skipping ``inf``
    entries on either side), or ``None`` when the vector path does not apply.
    """
    if (
        not HAS_NUMPY
        or hi - lo + 1 < VECTOR_MIN_SPAN
        or not isinstance(root_row, _ROW_TYPES)
        or not isinstance(label_row, _ROW_TYPES)
    ):
        return None
    root = _as_row_array(root_row)[lo : hi + 1]
    row = _as_row_array(label_row)[lo : hi + 1]
    with _np.errstate(invalid="ignore"):
        mask = _np.isfinite(root) & _np.isfinite(row) & _realises(d + root, row)
    return [int(i) + lo for i in _np.nonzero(mask)[0]]


# --------------------------------------------------------------------------- #
# Construction kernels (the parallel builder of repro.core.construction)
# --------------------------------------------------------------------------- #

#: ``struct.pack('d', inf)``, repeated to fill buffers without numpy.  4096
#: doubles per memcpy keeps the pure-Python loop at ~n/4096 iterations.
_INF_CHUNK = struct.pack("=d", math.inf) * 4096


def fill_unreachable(view: memoryview) -> None:
    """Fill a ``'d'``-format buffer with ``inf`` (the UNREACHABLE sentinel).

    The parallel builder pre-sizes one shared-memory segment for the whole
    CSR entries buffer and must initialise every slot before workers start
    writing their disjoint label indexes into it.  With numpy this is one
    C-level ``fill`` over a zero-copy view; without it, repeated slabs of
    pre-packed ``inf`` bytes -- both fill tens of millions of entries in
    milliseconds, where a per-entry Python loop would take longer than the
    Dijkstras it prepares for.
    """
    if HAS_NUMPY:
        _np.frombuffer(view, dtype=_np.float64).fill(math.inf)
        return
    raw = view.cast("B")
    nbytes = len(raw)
    chunk = len(_INF_CHUNK)
    for lo in range(0, nbytes - nbytes % chunk, chunk):
        raw[lo : lo + chunk] = _INF_CHUNK
    rest = nbytes % chunk
    if rest:
        raw[nbytes - rest :] = _INF_CHUNK[:rest]


# --------------------------------------------------------------------------- #
# Frontier-synchronous Label Search (the batched engine's vector kernels)
# --------------------------------------------------------------------------- #

#: Frontier entries per chunk of a Label Search round.  A chunk's
#: temporaries are about a dozen arrays of ``chunk * degree`` items, so 4096
#: entries on a road network keep them within a few MB whatever the batch
#: affects -- which is what holds a long-lived server's peak RSS in place
#: (16384 measured +16% on the 10k serving workload, 4096 under +3%).
_FRONTIER_CHUNK_ENTRIES = 4096

#: Frontier width below which :class:`LabelSearchRounds` drains a frontier
#: on a scalar heap (or stack) instead of running a round; the drain hands
#: back to the rounds once its heap grows past the same width.  Measured one
#: update at a time (2-CPU x86 container, Python 3.11, numpy 2.4; each edge
#: doubled, then restored; per update the faster of two passes):
#:
#: =========  ===========================  ============================
#: width      10k highway grid, 600        4,000-vertex path, 80
#:            updates: total / p50         updates: total
#: =========  ===========================  ============================
#: 0 (none)   1.57 s / 1.26 ms             5.01 s
#: 8          1.53 s / 1.12 ms             0.43 s
#: 16         1.47 s / 1.00 ms             0.41 s
#: 32         1.71 s / 1.18 ms             0.69 s
#: 64         1.73 s / 1.28 ms             0.47 s
#: 256        3.62 s / 2.04 ms             0.47 s
#: =========  ===========================  ============================
#:
#: The scalar Label Search classes take 0.33 s on the path.
_DRAIN_WIDTH = 16

#: Width of the near window of a nearest-first relax, in mean finite arc
#: weights (see :meth:`LabelSearchRounds.relax`).  Narrower windows enqueue
#: fewer entries but run more rounds; wider ones drift back to FIFO order.
#: Measured on the 10k highway grid (2-CPU x86 container, Python 3.11,
#: numpy 2.4; times divided by ``bench/hostspeed.py``'s host-speed factor,
#: two runs each): the M and L rush-hour cycles of ``update-rush`` (per
#: batch the median of 4 passes), and 300 edges doubled and restored one
#: update at a time:
#:
#: ===========  ===================  ==============================
#: width        M + L cycles         single updates: total / p99
#: ===========  ===================  ==============================
#: 1            0.96 / 0.94 s        1.06 / 0.93 s, 25 / 26 ms
#: 2            0.89 / 0.90 s        0.89 / 0.99 s, 25 / 23 ms
#: 4            0.82 / 0.86 s        0.94 / 0.95 s, 25 / 25 ms
#: 8            0.79 / 0.80 s        0.97 / 0.93 s, 27 / 23 ms
#: 16           0.93 / 0.93 s        0.89 / 0.91 s, 23 / 24 ms
#: 1e12 (FIFO)  0.97 / 0.96 s        0.98 / 0.90 s, 35 / 36 ms
#: ===========  ===================  ==============================
#:
#: The same cycles took 1.30-1.40 s with the FIFO rounds that landed
#: candidates with an argsort and ``minimum.reduceat``.
_NEAR_WIDTH = 8.0


def empty_mask(size: int) -> Any:
    """An all-``False`` boolean mask over ``size`` entry positions."""
    return _np.zeros(size, dtype=bool)


def _runs(first: Any, lengths: Any) -> tuple[Any, Any]:
    """Concatenated index runs ``first[k] .. first[k] + lengths[k] - 1``.

    Returns the flat int64 index array and the position at which each run
    begins inside it (the ``reduceat`` boundaries of the runs).
    """
    begins = _np.cumsum(lengths) - lengths
    flat = _np.arange(int(lengths.sum()), dtype=_np.int64)
    flat += _np.repeat(first - begins, lengths)
    return flat, begins


def _one_per_position(vertices: Any, positions: Any, num_vertices: int) -> tuple[Any, Any]:
    """The distinct ``(vertex, position)`` pairs, sorted by position.

    A position lies in exactly one vertex's row, so ``position * n +
    vertex`` is one int64 key per position: one sort of the keys dedupes
    the pairs and keeps each vertex with its position.  (The keys fit while
    ``num_entries * n < 2**63``: a 24M-vertex network with 1,000-entry
    labels needs 6e17 of the 9.2e18.)
    """
    keys = positions * num_vertices
    keys += vertices
    keys.sort()
    if len(keys) > 1:
        head = _np.empty(len(keys), dtype=bool)
        head[0] = True
        _np.not_equal(keys[1:], keys[:-1], out=head[1:])
        keys = _np.compress(head, keys)
    positions = keys // num_vertices
    return keys - positions * num_vertices, positions


def _land(entries: Any, num_vertices: int, vertices: Any, positions: Any, candidates: Any) -> Any:
    """Write the minimum candidate per position; returns the distinct targets.

    Every candidate must already improve on its entry.  Returns one
    ``(vertices, positions)`` pair of arrays with one item per position
    written, sorted by position:

    >>> import numpy as np
    >>> entries = np.full(4, np.inf)
    >>> vertices, positions = _land(
    ...     entries, 2, np.array([1, 0, 1, 1]), np.array([3, 0, 3, 3]),
    ...     np.array([5.0, 2.0, 4.0, 6.0]))
    >>> entries.tolist()
    [2.0, inf, inf, 4.0]
    >>> vertices.tolist(), positions.tolist()
    ([0, 1], [0, 3])
    """
    _np.minimum.at(entries, positions, candidates)
    return _one_per_position(vertices, positions, num_vertices)


def arc_tables(labels: "STLLabels", neighbors: Any, tau: Any) -> tuple[Any, Any]:
    """The ``tau`` and row offset of every arc's target, as int64 ndarrays.

    ``neighbors`` is the graph's CSR neighbour array and ``tau`` the
    hierarchy's int64 ``tau``.  Cached on the store, like
    :func:`label_arrays`, and keyed on both objects by identity (holding
    them keeps their ids from being reused): a graph writes weights in
    place and rebuilds its CSR arrays only for a new edge, so every batch
    on a store -- a one-update batch included -- reuses the tables, and a
    store snapshot computes them once.
    """
    cached = labels._arc_cache
    if cached is not None and cached[0] is neighbors and cached[1] is tau:
        return cached[2], cached[3]
    targets = _np.frombuffer(neighbors, dtype=_np.int64)
    arc_tau = tau[targets]
    arc_offsets = label_arrays(labels)[1][targets]
    labels._arc_cache = (neighbors, tau, arc_tau, arc_offsets)
    return arc_tau, arc_offsets


class LabelSearchRounds:
    """Algorithms 1-2 for a whole coalesced batch, one frontier at a time.

    A label entry ``L(v)[i]`` is addressed by its flat position
    ``p = offsets[v] + i`` in the CSR label store, which makes every label
    index of a batch one search: searches under different ancestors never
    share a position, so a frontier is just an array of ``(vertex,
    position)`` pairs and a round is a dozen array operations over the arcs
    leaving it (gathered from the graph's CSR arrays), in chunks of
    :data:`_FRONTIER_CHUNK_ENTRIES`.  An arc ``v -> u`` carries index ``i``
    only while ``tau(u) > i`` -- ``u`` is then a proper descendant of the
    ancestor and ``offsets[u] + i`` exists -- exactly the restriction of the
    scalar kernels in :mod:`repro.core.label_search`.  The ``tau`` and row
    offset of every arc's target are tables cached across passes
    (:func:`arc_tables`).  A round lands each chunk's improving candidates
    with ``np.minimum.at`` and dedupes its frontier with one int64 sort
    (:func:`_land`, :func:`_one_per_position`).

    A frontier narrower than :data:`_DRAIN_WIDTH` entries is not worth a
    round: its numpy calls cost more than the arcs they relax.  It goes to a
    scalar drain over the same flat positions instead -- a heap for the
    relax, a stack for the mark search -- which reads the store's
    ``'d'`` view, its offsets, the graph's CSR arrays and ``tau`` as plain
    Python values, and hands what it holds back to the rounds once that
    grows past the width again.  A maintenance relax that starts from at
    least one chunk of entries runs nearest-first instead (:meth:`relax`).

    **Order independence.**  The scalar kernels settle entries in distance
    order on a heap; the rounds are label-correcting, in FIFO or
    nearest-first order, and all of them write the build's bytes.  Write
    ``F`` for the operator that maps a store to ``F(L)(v, i) = 0`` at the
    root of index ``i`` (``tau(v) == i``) and to ``min_u fl(L(u)[i] + w(u,
    v))`` over the arcs carrying ``i`` elsewhere.  Adding a non-negative
    weight is monotone in floating point, so ``F`` is monotone, and the
    build -- the descent from all ``inf`` -- is its *greatest* fixed point
    ``G``.  A relax that starts at or above ``G``, writes only
    ``fl(L(u)[i] + w) < L(v)[i]``, and expands every entry after its last
    write stops at ``G`` whatever the order: each write is an entry of
    ``F(L) >= F(G) = G``, and when nothing improves, induction along the
    path that realises ``G(v)`` gives ``L(v) <= G(v)``.  A decrease starts
    from the old labels, which are at or above the new ``G``; an increase
    first resets every marked entry to a bound from unmarked neighbours,
    and the unmarked ones already equal the new ``G``.  With non-negative
    weights every write lowers an entry to one of finitely many simple-path
    sums, so the relax terminates.  ``G`` is the *only* fixed point when
    ``fl(d + w) > d`` for every finite entry ``d`` and arc weight ``w``.
    Zero-weight cycles (or weights too small to change a sum, such as
    ``0.01`` beside ``1e15``) break that: such a cycle is a fixed point at
    any common value below ``G``.  The relax still stops at ``G``, because it
    never starts or writes below it.  The mark search's result is a closure
    (every entry reachable from the seeds under a fixed predicate on the old
    labels and weights), so it does not depend on the order either.

    ``rounds`` counts the frontiers processed (a drain counts as one) and
    ``enqueued`` the entries placed on a frontier or on a drain's heap.
    """

    def __init__(self, graph: "Graph", labels: "STLLabels", hierarchy: "StableTreeHierarchy"):
        self.entries, self.offsets = label_arrays(labels)
        self.num_vertices = len(self.offsets) - 1
        arrays = hierarchy_arrays(hierarchy)
        self.tau = (
            arrays["tau"] if arrays is not None else _np.asarray(hierarchy.tau, dtype=_np.int64)
        )
        # Live views: the graph writes every weight change into ``weights``
        # in place, so the rounds always read the current weights.
        self.csr = graph.csr()
        indptr, neighbors, weights = self.csr
        self.indptr = _np.frombuffer(indptr, dtype=_np.int64)
        self.degree = _np.diff(self.indptr)
        self.neighbors = _np.frombuffer(neighbors, dtype=_np.int64)
        self.weights = _np.frombuffer(weights, dtype=_np.float64)
        self.arc_tau, self.arc_offsets = arc_tables(labels, neighbors, self.tau)
        # The scalar drains read the same memory through Python containers.
        self.view: Any = labels.view
        self.flat_offsets = labels.offsets
        self.flat_tau = hierarchy.tau
        self.rounds = 0
        self.enqueued = 0

    # -- shared pieces ------------------------------------------------------ #

    def _edge_rows(self, a: Sequence[int], b: Sequence[int], w: Sequence[float]) -> Any:
        """Both endpoint rows of each edge, aligned over their common prefix.

        ``tau(a) < tau(b)``, so the prefix is ``a``'s whole row.  Yields, for
        slices of the edges whose prefixes total about one chunk,
        ``(vertices_a, positions_a, vertices_b, positions_b, weights)``
        with one item per prefix entry.
        """
        a = _np.asarray(a, dtype=_np.int64)
        b = _np.asarray(b, dtype=_np.int64)
        w = _np.asarray(w, dtype=_np.float64)
        lengths = self.tau[a] + 1
        step = max(1, _FRONTIER_CHUNK_ENTRIES // int(lengths.max()))
        for lo in range(0, len(a), step):
            part = slice(lo, lo + step)
            n = lengths[part]
            pa, _ = _runs(self.offsets[a[part]], n)
            pb = pa + _np.repeat(self.offsets[b[part]] - self.offsets[a[part]], n)
            yield _np.repeat(a[part], n), pa, _np.repeat(b[part], n), pb, _np.repeat(w[part], n)

    def _candidates(self, vertices: Any, positions: Any) -> tuple[Any, Any, Any]:
        """Relax every arc leaving a chunk of frontier entries.

        Returns, per arc that carries its entry's label index, the arc (its
        target is ``neighbors[arc]``), the target entry's position and the
        candidate distance ``L(v)[i] + w(v, u)``.
        """
        index = positions - self.offsets[vertices]
        degree = self.degree[vertices]
        arcs, _ = _runs(self.indptr[vertices], degree)
        index = _np.repeat(index, degree)
        carries = self.arc_tau[arcs] > index
        arcs = arcs[carries]
        candidates = _np.repeat(self.entries[positions], degree)[carries] + self.weights[arcs]
        return arcs, self.arc_offsets[arcs] + index[carries], candidates

    def _round(self, vertices: Any, positions: Any) -> tuple[Any, Any]:
        """One relax round: the entries it improved, one per position."""
        found_v: list[Any] = []
        found_p: list[Any] = []
        for part in self._chunks(len(positions)):
            arcs, reached, candidates = self._candidates(vertices[part], positions[part])
            # Index arrays: a sparse boolean mask indexes ~4x slower.
            better = _np.flatnonzero(candidates < self.entries[reached])
            reached = reached[better]
            _np.minimum.at(self.entries, reached, candidates[better])
            found_v.append(self.neighbors[arcs[better]])
            found_p.append(reached)
        # Two chunks may both have improved one entry.
        return _one_per_position(
            _np.concatenate(found_v), _np.concatenate(found_p), self.num_vertices
        )

    @staticmethod
    def _chunks(size: int) -> list[slice]:
        """Slices cutting a frontier of ``size`` entries into chunks."""
        step = _FRONTIER_CHUNK_ENTRIES
        return [slice(lo, lo + step) for lo in range(0, size, step)]

    def _arcs(self, v: int) -> Any:
        """``(neighbour, weight)`` pairs of ``v`` from the CSR arrays."""
        indptr, neighbors, weights = self.csr
        lo, hi = indptr[v], indptr[v + 1]
        return zip(neighbors[lo:hi], weights[lo:hi])

    # -- increases (Algorithm 2) -------------------------------------------- #

    def mark_increases(
        self, a: Sequence[int], b: Sequence[int], w_old: Sequence[float], marked: Any
    ) -> tuple[Any, Any, int]:
        """Mark every entry whose old shortest path uses an increased edge.

        Runs on the **old** weights and only reads the labels.  ``(a, b)``
        are the edges oriented ``tau(a) < tau(b)``.  Seeds with the whole-row
        through-the-edge test of :func:`seed_affected_rows`, then grows the
        marked set breadth-first under the same tolerance predicate: an
        unmarked finite entry is marked when ``L(u)[i] + w(u, v)`` of an
        already-marked neighbour realises it.  A true affected entry has a
        marked predecessor on its old shortest path whose entry plus the arc
        weight equals it up to re-association, so nothing affected is missed;
        over-marking only costs repair work.

        ``marked`` is an all-``False`` boolean mask over entry positions,
        owned by the caller; on return it is set at exactly the marked
        positions, and :meth:`repair_marked` clears them again.  Returns the
        marked positions, their vertices and the number of distinct label
        indexes seeded.  Up to :data:`_FRONTIER_CHUNK_ENTRIES` marks, the
        positions are the frontiers' own arrays, so a small search costs
        nothing proportional to the store.
        """
        found_v: list[Any] = []
        found_p: list[Any] = []
        for va, pa, vb, pb, w in self._edge_rows(a, b, w_old):
            push_b, push_a = _through_edge(self.entries[pa], self.entries[pb], w)
            found_v += [vb[push_b], va[push_a]]
            found_p += [pb[push_b], pa[push_a]]
        vertices, positions = _one_per_position(
            _np.concatenate(found_v), _np.concatenate(found_p), self.num_vertices
        )
        marked[positions] = True
        seeded_indexes = _distinct(positions - self.offsets[vertices])
        self.enqueued += len(positions)
        # Every marked entry is placed on a frontier exactly once, so the
        # new entries of all frontiers together are the marked set.  Past
        # one chunk's worth they are read back from the mask instead: one
        # scan of the store, paid only by a call that marked that much.
        # (Holding every round's arrays to the end of a large search left
        # the serving workload's heap fragmented: +19% peak RSS.)
        marks: list[tuple[Any, Any]] | None = [(vertices, positions)]
        count = len(positions)
        while len(positions):
            self.rounds += 1
            if len(positions) < _DRAIN_WIDTH:
                new_v, new_p, vertices, positions = self._drain_marks(vertices, positions, marked)
            else:
                found_v, found_p = [], []
                for part in self._chunks(len(positions)):
                    arcs, reached, candidates = self._candidates(vertices[part], positions[part])
                    current = self.entries[reached]
                    with _np.errstate(invalid="ignore"):
                        hit = _np.flatnonzero(
                            ~marked[reached]
                            & _np.isfinite(current)
                            & _realises(candidates, current)
                        )
                    reached = reached[hit]
                    # Marking per chunk keeps later chunks (and rounds) from
                    # finding the same entry again.
                    marked[reached] = True
                    found_v.append(self.neighbors[arcs[hit]])
                    found_p.append(reached)
                # One chunk may have found an entry over two arcs.
                new_v, new_p = vertices, positions = _one_per_position(
                    _np.concatenate(found_v), _np.concatenate(found_p), self.num_vertices
                )
            self.enqueued += len(new_p)
            count += len(new_p)
            if marks is not None:
                marks.append((new_v, new_p))
                if count > _FRONTIER_CHUNK_ENTRIES:
                    marks = None
        if marks is None:
            positions = _np.flatnonzero(marked)
            vertices = _np.searchsorted(self.offsets, positions, side="right") - 1
            return positions, vertices, seeded_indexes
        return (
            _np.concatenate([p for _, p in marks]),
            _np.concatenate([v for v, _ in marks]),
            seeded_indexes,
        )

    def _drain_marks(self, vertices: Any, positions: Any, marked: Any) -> tuple[Any, ...]:
        """Grow the marked set from a narrow frontier on a stack, in Python.

        The predicate is the round's, written out on plain floats.  Returns
        the vertices and positions it marked, then those of the marked
        entries it did not expand: none once the search is exhausted, or
        the whole stack -- the next round's frontier -- once the stack
        outgrows :data:`_DRAIN_WIDTH`.
        """
        view, offsets, tau = self.view, self.flat_offsets, self.flat_tau
        flags = memoryview(marked)
        stack = list(zip(vertices.tolist(), positions.tolist()))
        new: list[tuple[int, int]] = []
        while stack and len(stack) <= _DRAIN_WIDTH:
            v, p = stack.pop()
            d = view[p]
            i = p - offsets[v]
            for u, w in self._arcs(v):
                if tau[u] <= i:
                    continue
                q = offsets[u] + i
                entry = view[q]
                if flags[q] or entry == math.inf:
                    continue
                # on_old_shortest_path, on a finite entry.
                if abs(d + w - entry) <= MARK_SLACK * max(1.0, entry):
                    flags[q] = True
                    stack.append((u, q))
                    new.append((u, q))
        return (*_frontier(new), *_frontier(stack))

    def repair_marked(self, positions: Any, vertices: Any, marked: Any) -> int:
        """Recompute every marked entry (Function Repair; Lemma 5.5).

        Requires the **new** weights in the graph, and the marks of
        :meth:`mark_increases`: ``positions`` and their ``vertices``, set in
        the mask ``marked``, which is all ``False`` again on return.  First
        bounds each marked entry from its unmarked neighbours -- one gather
        and a segment minimum per chunk; a neighbour with ``tau == i`` is the
        ancestor itself, whose entry is 0 -- then relaxes outward from the
        marked entries to the fixed point.  Returns the number of marked
        entries, all of which were rewritten.
        """
        for part in self._chunks(len(positions)):
            chunk = positions[part]
            owners = vertices[part]
            degree = self.degree[owners]
            # A marked vertex was reached over an edge, so no run is empty.
            arcs, begins = _runs(self.indptr[owners], degree)
            index = _np.repeat(chunk - self.offsets[owners], degree)
            usable = self.arc_tau[arcs] >= index
            read = _np.where(usable, self.arc_offsets[arcs] + index, 0)
            usable &= ~marked[read]
            bounds = _np.where(usable, self.entries[read] + self.weights[arcs], math.inf)
            self.entries[chunk] = _np.minimum.reduceat(bounds, begins)
        marked[positions] = False
        reachable = _np.isfinite(self.entries[positions])
        self.relax(vertices[reachable], positions[reachable])
        return len(positions)

    # -- decreases (Algorithm 1) -------------------------------------------- #

    def decrease(
        self, a: Sequence[int], b: Sequence[int], w_new: Sequence[float], changed: Any
    ) -> tuple[int, int]:
        """Repair the labels after a group of weight decreases.

        ``(a, b)`` are the edges oriented ``tau(a) < tau(b)`` and the new
        weights must already be in the graph.  Writes the entries a decreased
        edge improves directly -- the first frontier -- and relaxes outward
        from them.  ``changed`` is an all-``False`` boolean mask over entry
        positions, as :meth:`mark_increases` takes, and all ``False`` again
        on return.  Returns the number of distinct label indexes seeded and
        of distinct entries rewritten.
        """
        found_v: list[Any] = []
        found_p: list[Any] = []
        found_d: list[Any] = []
        for va, pa, vb, pb, w in self._edge_rows(a, b, w_new):
            via_a = self.entries[pa] + w
            via_b = self.entries[pb] + w
            push_b = via_a < self.entries[pb]
            push_a = via_b < self.entries[pa]
            found_v += [vb[push_b], va[push_a]]
            found_p += [pb[push_b], pa[push_a]]
            found_d += [via_a[push_b], via_b[push_a]]
        vertices, positions = _land(
            self.entries,
            self.num_vertices,
            _np.concatenate(found_v),
            _np.concatenate(found_p),
            _np.concatenate(found_d),
        )
        seeded_indexes = _distinct(positions - self.offsets[vertices])
        rewritten = 0
        for new in self.relax(vertices, positions, changed):
            changed[new] = False
            rewritten += len(new)
        return seeded_indexes, rewritten

    # -- construction ------------------------------------------------------ #

    def relax_from_roots(self) -> None:
        """Compute every entry of an all-``inf`` store (the label build).

        Each vertex ``r`` roots the search for its own label index: its
        entry ``offsets[r] + tau[r]`` -- the last of its row -- becomes
        ``0.0``, and one FIFO relax runs from all ``n`` roots at once.  The
        arc restriction ``tau(u) > i`` keeps root ``r``'s search inside
        ``G[Desc(r)]``, so the fixed point is byte-identical to one
        rank-restricted Dijkstra per root.  It stays FIFO although it starts
        from ``n`` entries: each entry is re-relaxed only about 1.09 times on
        a highway grid, so the order has little to save.
        """
        roots = self.offsets[1:] - 1
        self.entries[roots] = 0.0
        self._relax_fifo(_np.arange(len(roots), dtype=_np.int64), roots, None)

    # -- the relax ---------------------------------------------------------- #

    def relax(self, vertices: Any, positions: Any, changed: Any = None) -> list[Any]:
        """Relax outward from a frontier until no entry improves.

        Per round: gather the candidates of the frontier's arcs, keep those
        that improve their target entry, write the minimum per target; the
        improved targets are the next frontier.

        The order depends on how many entries the relax starts from.  Below
        one chunk (:data:`_FRONTIER_CHUNK_ENTRIES`) the rounds run FIFO --
        each round's improved targets are the next frontier, and a frontier
        narrower than :data:`_DRAIN_WIDTH` goes to :meth:`_drain_relax`.
        From one chunk on -- a multi-seed decrease, an increase's repair --
        a FIFO relax re-relaxes many entries (the 601-update decrease of the
        benchmark's class L enqueued 2.9 entries per entry it changed), so
        it runs nearest-first (:meth:`_relax_nearest_first`).  Both orders
        reach the same bytes (see the class docstring).

        ``changed``, an all-``False`` boolean mask over entry positions,
        collects every entry written, the first frontier's included.  The
        return value lists the positions as they were first set -- each
        written entry exactly once -- so the caller can count the entries
        and clear the mask again.
        """
        if len(positions) >= _FRONTIER_CHUNK_ENTRIES:
            return self._relax_nearest_first(vertices, positions, changed)
        return self._relax_fifo(vertices, positions, changed)

    def _begin_round(self, positions: Any, changed: Any, fresh: list[Any]) -> None:
        """Count a frontier about to be processed, and record its new writes."""
        self.rounds += 1
        if changed is not None:
            new = positions[~changed[positions]]
            changed[new] = True
            fresh.append(new)

    def _relax_fifo(self, vertices: Any, positions: Any, changed: Any) -> list[Any]:
        """:meth:`relax` in FIFO rounds, narrow frontiers on the drain."""
        self.enqueued += len(positions)
        fresh: list[Any] = []
        flags = None if changed is None else memoryview(changed)
        while len(positions):
            self._begin_round(positions, changed, fresh)
            if len(positions) < _DRAIN_WIDTH:
                vertices, positions = self._drain_relax(vertices, positions, flags, fresh)
                continue
            vertices, positions = self._round(vertices, positions)
            self.enqueued += len(positions)
        return fresh

    def _relax_nearest_first(self, vertices: Any, positions: Any, changed: Any) -> list[Any]:
        """:meth:`relax` one distance window at a time (Delta-stepping).

        The near window is ``[m, m + _NEAR_WIDTH * mean finite arc
        weight]`` above the smallest pending distance ``m``; it always holds
        ``m``, also at width 0.  Its entries run in FIFO rounds, and an
        entry a round improves beyond the window goes on the far pile with
        its distance.  When the window runs dry, pile entries whose entry
        has since been improved further are dropped as stale (the improving
        write put a fresher copy on the pile or on a frontier), and the
        window advances to the smallest distance left.
        """
        finite = self.weights[_np.isfinite(self.weights)]
        width = _NEAR_WIDTH * float(finite.mean()) if len(finite) else 0.0
        fresh: list[Any] = []
        pile = [(vertices, positions, self.entries[positions])]
        while pile:
            vertices, positions, limit, pile = self._advance(pile, width)
            while len(positions):
                self._begin_round(positions, changed, fresh)
                self.enqueued += len(positions)
                vertices, positions = self._round(vertices, positions)
                distances = self.entries[positions]
                near = distances <= limit
                if not near.all():
                    far = _np.flatnonzero(~near)
                    pile.append((vertices[far], positions[far], distances[far]))
                    near = _np.flatnonzero(near)
                    vertices, positions = vertices[near], positions[near]
        return fresh

    def _advance(self, pile: list[tuple[Any, Any, Any]], width: float) -> tuple[Any, ...]:
        """Open the next near window over the far pile.

        Drops the stale pile entries -- those whose entry was improved after
        they were piled -- and returns ``(vertices, positions, limit,
        pile)``: the live entries within ``width`` of the smallest live
        distance, the window's upper end (inclusive, so the window holds the
        minimum even at width 0), and the rest of the pile.  Both come back
        empty once nothing on the pile is live.
        """
        vertices, positions, distances = (_np.concatenate(part) for part in zip(*pile))
        live = distances == self.entries[positions]
        if not live.any():
            return vertices[:0], positions[:0], math.inf, []
        limit = float(_np.min(distances, where=live, initial=math.inf)) + width
        near = distances <= limit
        far = _np.flatnonzero(live & ~near)
        near = _np.flatnonzero(live & near)
        rest = [(vertices[far], positions[far], distances[far])] if len(far) else []
        return vertices[near], positions[near], limit, rest

    def _drain_relax(
        self, vertices: Any, positions: Any, flags: Any, fresh: list[Any]
    ) -> tuple[Any, Any]:
        """Relax from a narrow frontier on a heap, in Python (Dijkstra order).

        Writes each improvement at once, as the rounds do, and records it in
        ``flags`` (a view of :meth:`relax`'s ``changed`` mask, or ``None``)
        and ``fresh``.  Returns the entries still waiting on the heap --
        none once it is empty, or every live one as the next round's
        frontier once the heap outgrows :data:`_DRAIN_WIDTH`.
        """
        view, offsets, tau = self.view, self.flat_offsets, self.flat_tau
        heap = [(view[p], p, v) for v, p in zip(vertices.tolist(), positions.tolist())]
        heapify(heap)
        pushes = 0
        new: list[int] = []
        while heap and len(heap) <= _DRAIN_WIDTH:
            d, p, v = heappop(heap)
            if d > view[p]:
                continue  # superseded by a later, smaller write
            i = p - offsets[v]
            for u, w in self._arcs(v):
                if tau[u] > i:
                    q = offsets[u] + i
                    candidate = d + w
                    if candidate < view[q]:
                        view[q] = candidate
                        heappush(heap, (candidate, q, u))
                        pushes += 1
                        if flags is not None and not flags[q]:
                            flags[q] = True
                            new.append(q)
        self.enqueued += pushes
        if new:
            fresh.append(_np.array(new, dtype=_np.int64))
        return _frontier([(v, p) for d, p, v in heap if d == view[p]])


def _distinct(values: Any) -> int:
    """The number of distinct values in an int array.

    Sorts instead of calling ``np.unique``, whose hash-based path costs
    about a microsecond per item on large arrays.
    """
    if not len(values):
        return 0
    ordered = _np.sort(values)
    return 1 + int(_np.count_nonzero(ordered[1:] != ordered[:-1]))


def _frontier(pairs: list[tuple[int, int]]) -> tuple[Any, Any]:
    """``(vertex, position)`` pairs as a frontier's two int64 arrays."""
    frontier = _np.array(pairs, dtype=_np.int64).reshape(-1, 2)
    return frontier[:, 0], frontier[:, 1]
