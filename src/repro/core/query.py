"""Distance queries over a Stable Tree Labelling (Equation 3 of the paper).

A query ``Q(s, t)`` scans the common-ancestor prefix of the two labels and
returns the minimum of ``L(s)[i] + L(t)[i]``.  The number of entries to scan
is obtained in O(1) from the partition bitstrings (the level of the lowest
common ancestor), exactly as in Section 4 of the paper; the entries scanned
are consecutive in both arrays, which is what makes the query cache-friendly.

With the CSR label store the two prefixes are located by pure offset
arithmetic on the flat entries buffer -- ``view[offsets[v] : offsets[v] +
prefix]`` -- so a query touches two contiguous runs of C doubles and never
materialises a row object.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core import kernels
from repro.core.labelling import STLLabels
from repro.hierarchy.tree import StableTreeHierarchy

UNREACHABLE = math.inf


def _check_ids(num_vertices: int, s: int, t: int) -> None:
    """Raise the batch kernel's ``IndexError`` for an id outside ``[0, n)``.

    Without it Python's negative indexing would silently answer for vertex
    ``n + s``, and ``s == t`` would answer ``0.0`` for any id at all.
    """
    if s < 0 or t < 0:
        raise IndexError(f"vertex ids must be non-negative, got ({s}, {t})")
    if s >= num_vertices or t >= num_vertices:
        raise IndexError(f"vertex id out of range for {num_vertices} vertices: ({s}, {t})")


def _prefix_bases(
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    s: int,
    t: int,
) -> tuple[int, int, int]:
    """The shared offset/prefix scan prologue of every scalar query.

    Validates the ids, then returns ``(prefix, base_s, base_t)``: the number
    of common-ancestor entries to scan and the two rows' base offsets into
    the flat entries buffer.  One implementation behind
    :func:`query_distance`, :func:`query_with_hub` and the scalar kernel --
    the block used to be copy-pasted into each.
    """
    offsets = labels.offsets
    n = len(offsets) - 1
    if not (0 <= s < n and 0 <= t < n):
        _check_ids(n, s, t)
    prefix = hierarchy.num_common_ancestors(s, t)
    return prefix, offsets[s], offsets[t]


def query_distance(
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    s: int,
    t: int,
) -> float:
    """Shortest-path distance between ``s`` and ``t`` (``inf`` if disconnected).

    The usual entry point is :meth:`repro.core.stl.StableTreeLabelling.query`,
    which delegates here:

    >>> from repro import StableTreeLabelling, generators
    >>> graph = generators.grid_road_network(4, 4, seed=7)
    >>> stl = StableTreeLabelling.build(graph)
    >>> stl.query(0, 0)
    0.0
    >>> stl.query(0, 5) == stl.query(5, 0)  # symmetric
    True
    >>> stl.query(-1, 5)
    Traceback (most recent call last):
        ...
    IndexError: vertex ids must be non-negative, got (-1, 5)
    >>> stl.query(99, 99)
    Traceback (most recent call last):
        ...
    IndexError: vertex id out of range for 16 vertices: (99, 99)
    """
    if s == t:
        _check_ids(len(labels), s, t)
        return 0.0
    prefix, base_s, base_t = _prefix_bases(hierarchy, labels, s, t)
    if prefix <= 0:
        return UNREACHABLE
    entries = labels.view
    # The common-ancestor entries are a consecutive prefix of both rows, so
    # the scan is a single pass over two zero-copy slices of the flat buffer
    # (the paper's cache-friendly query layout); min over a generator keeps
    # the loop in C.
    return min(
        a + b
        for a, b in zip(entries[base_s : base_s + prefix], entries[base_t : base_t + prefix])
    )


def query_with_hub(
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    s: int,
    t: int,
) -> tuple[float, int]:
    """Like :func:`query_distance` but also returns the label index of the hub.

    The hub is the common ancestor realising the minimum (``-1`` when the
    vertices are identical or disconnected).  Used by the examples to explain
    which separator level answered a query.
    """
    if s == t:
        _check_ids(len(labels), s, t)
        return 0.0, -1
    prefix, base_s, base_t = _prefix_bases(hierarchy, labels, s, t)
    entries = labels.view
    best = UNREACHABLE
    hub = -1
    for i in range(prefix):
        candidate = entries[base_s + i] + entries[base_t + i]
        if candidate < best:
            best = candidate
            hub = i
    return best, hub


def batch_query(
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    pairs: Sequence[tuple[int, int]],
    kernel: str | None = None,
) -> list[float]:
    """Answer a batch of queries (used by the serving and benchmark paths).

    Dispatches to :mod:`repro.core.kernels`: with numpy installed (the
    ``repro[fast]`` extra) the whole batch runs as one fused gather +
    segment-min over the CSR store; without it, one scalar
    :func:`query_distance` per pair.  ``kernel`` pins ``"scalar"`` or
    ``"vector"`` explicitly -- the answers are entry-wise identical.

    >>> from repro import StableTreeLabelling, generators
    >>> graph = generators.grid_road_network(4, 4, seed=7)
    >>> stl = StableTreeLabelling.build(graph)
    >>> batch_query(stl.hierarchy, stl.labels, [(0, 0), (3, 3)])
    [0.0, 0.0]
    >>> batch_query(stl.hierarchy, stl.labels, [], kernel="scalar")
    []
    """
    return kernels.batch_query(hierarchy, labels, pairs, kernel)
