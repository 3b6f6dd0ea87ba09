"""Argument validation helpers shared across the library."""

from __future__ import annotations

import math

from repro.utils.errors import InvalidWeightError, VertexNotFoundError


def check_non_negative_weight(weight: float) -> float:
    """Validate an edge weight and return it as ``float``.

    Road-network edge weights (travel times / lengths) must be finite and
    non-negative; Dijkstra-family searches rely on this.
    """
    value = float(weight)
    if math.isnan(value) or math.isinf(value):
        raise InvalidWeightError(f"edge weight must be finite, got {weight!r}")
    if value < 0:
        raise InvalidWeightError(f"edge weight must be non-negative, got {weight!r}")
    return value


def check_edge_weight(weight: float) -> float:
    """Validate a weight to *set* on an existing edge and return it as ``float``.

    As :func:`check_non_negative_weight`, except that ``+inf`` is allowed: it
    models a closed (logically deleted) edge.  NaN is always rejected.
    """
    value = float(weight)
    if math.isinf(value) and value > 0:
        return value
    return check_non_negative_weight(value)


def check_vertex(vertex: int, num_vertices: int) -> int:
    """Validate that ``vertex`` is an integer id inside ``[0, num_vertices)``."""
    if isinstance(vertex, bool) or not isinstance(vertex, int):
        raise VertexNotFoundError(f"vertex id must be an int, got {vertex!r}")
    if not 0 <= vertex < num_vertices:
        raise VertexNotFoundError(
            f"vertex {vertex} out of range for graph with {num_vertices} vertices"
        )
    return vertex


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies in ``[0, 1]``."""
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_positive_int(value: int, name: str = "value") -> int:
    """Validate that ``value`` is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value
