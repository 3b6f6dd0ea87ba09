"""Saving and loading a Stable Tree Labelling.

The on-disk format is a compact JSON document: the hierarchy's node
structure, the per-vertex node assignment and the label arrays.  It is meant
for checkpointing experiment state, not for exchanging indexes between
machines with different graphs -- the graph itself is *not* stored (labels
without their road network are not useful), so ``load_labelling`` takes the
graph as an argument and validates vertex counts.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from typing import TYPE_CHECKING, TextIO

from repro.core.labelling import STLLabels
from repro.core.stl import StableTreeLabelling
from repro.graph.graph import Graph
from repro.hierarchy.tree import StableTreeHierarchy
from repro.utils.errors import LabellingError, SerializationError

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from repro.core.snapshot import LabelSnapshot

#: Version 3 stores the labels as one flat entries buffer plus a CSR offsets
#: array (``labels_flat`` / ``label_offsets``).  Payloads of the earlier
#: nested-list versions 1 and 2 are refused: rebuild and re-save them.
FORMAT_VERSION = 3
_INF_SENTINEL = -1.0


def _encode_distance(value: float) -> float:
    return _INF_SENTINEL if math.isinf(value) else value


def _decode_distance(value: float) -> float:
    return math.inf if value == _INF_SENTINEL else value


def _labelling_payload(
    hierarchy: StableTreeHierarchy,
    labels: STLLabels,
    maintenance: str,
    construction_seconds: float,
) -> dict:
    """The JSON shape of a hierarchy plus its label store."""
    return {
        "format_version": FORMAT_VERSION,
        "num_vertices": hierarchy.num_vertices,
        "maintenance": maintenance,
        "construction_seconds": construction_seconds,
        "nodes": [
            {
                "parent": node.parent,
                "is_right": (
                    node.parent != -1
                    and hierarchy.nodes[node.parent].right == node.index
                ),
                "vertices": node.vertices,
            }
            for node in hierarchy.nodes
        ],
        "label_offsets": list(labels.offsets),
        "labels_flat": [_encode_distance(d) for d in labels.view],
        "pareto_written": labels.pareto_written,
    }


def _dump(payload: dict, path_or_handle: str | TextIO) -> None:
    if isinstance(path_or_handle, (str, os.PathLike)):
        with open(path_or_handle, "w", encoding="ascii") as handle:
            json.dump(payload, handle)
    else:
        json.dump(payload, path_or_handle)


def _load(path_or_handle: str | TextIO) -> dict:
    if isinstance(path_or_handle, (str, os.PathLike)):
        with open(path_or_handle, "r", encoding="ascii") as handle:
            return json.load(handle)
    return json.load(path_or_handle)


def serialize_labelling(stl: StableTreeLabelling) -> dict:
    """Turn an index into a JSON-serialisable dict."""
    return _labelling_payload(
        stl.hierarchy, stl.labels, stl.maintenance_mode, stl.construction_seconds
    )


def deserialize_labelling(payload: dict, graph: Graph) -> StableTreeLabelling:
    """Rebuild an index from :func:`serialize_labelling` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version!r}; this build reads version {FORMAT_VERSION}"
        )
    num_vertices = payload["num_vertices"]
    if num_vertices != graph.num_vertices:
        raise SerializationError(
            f"payload covers {num_vertices} vertices, graph has {graph.num_vertices}"
        )
    hierarchy = StableTreeHierarchy(num_vertices)
    for entry in payload["nodes"]:
        node = hierarchy.add_node(entry["parent"], entry["is_right"])
        hierarchy.assign_vertices(node, entry["vertices"])
    hierarchy.finalize()
    try:
        labels = STLLabels.from_flat(
            array("d", (_decode_distance(d) for d in payload["labels_flat"])),
            array("q", payload["label_offsets"]),
        )
    except (LabellingError, OverflowError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed flat label store: {exc}") from exc
    if len(labels) != num_vertices:
        raise SerializationError(
            f"payload stores labels for {len(labels)} vertices, expected {num_vertices}"
        )
    for v in range(num_vertices):
        if len(labels[v]) != hierarchy.tau[v] + 1:
            raise SerializationError(
                f"label of vertex {v} has {len(labels[v])} entries, "
                f"expected {hierarchy.tau[v] + 1}"
            )
    # A payload saved before the key existed counts as Pareto-written when
    # its maintenance family is Pareto.
    maintenance = payload.get("maintenance", "label_search")
    labels._pareto_written = bool(payload.get("pareto_written", maintenance == "pareto"))
    return StableTreeLabelling(
        graph,
        hierarchy,
        labels,
        maintenance,
        construction_seconds=float(payload.get("construction_seconds", 0.0)),
    )


def save_labelling(stl: StableTreeLabelling, path_or_handle: str | TextIO) -> None:
    """Write an index to a JSON file (or open handle)."""
    _dump(serialize_labelling(stl), path_or_handle)


def load_labelling(path_or_handle: str | TextIO, graph: Graph) -> StableTreeLabelling:
    """Read an index written by :func:`save_labelling`."""
    return deserialize_labelling(_load(path_or_handle), graph)


# --------------------------------------------------------------------------- #
# Snapshot persistence (warm service restarts)
# --------------------------------------------------------------------------- #

#: Snapshot payloads wrap a labelling payload (re-using the format above)
#: plus the frozen graph's edge list -- unlike a bare labelling checkpoint, a
#: snapshot must be self-contained: a restarted service has no other record
#: of the weights its persisted labels were computed against, and the
#: fallback tier runs bounded Dijkstra on exactly those weights.
SNAPSHOT_FORMAT_VERSION = 1


def serialize_snapshot(snapshot: "LabelSnapshot") -> dict:
    """Turn a live :class:`~repro.core.snapshot.LabelSnapshot` into a dict.

    The caller should hold the snapshot acquired while serialising (the
    serving layer does) so the generation cannot be reclaimed mid-encode; a
    snapshot that has already been reclaimed is refused.
    """
    if snapshot.disposed:
        raise SerializationError("cannot persist a reclaimed snapshot")
    payload: dict = {
        "snapshot_format": SNAPSHOT_FORMAT_VERSION,
        "snapshot_version": snapshot.version,
        "num_vertices": snapshot.graph.num_vertices,
        "edges": [
            [u, v, _encode_distance(w)] for u, v, w in snapshot.graph.edges()
        ],
    }
    if snapshot.labels is not None:
        payload["labelling"] = _labelling_payload(
            snapshot.hierarchy, snapshot.labels, "label_search", 0.0
        )
    return payload


def deserialize_snapshot(payload: dict) -> "LabelSnapshot":
    """Rebuild a snapshot from :func:`serialize_snapshot` output.

    A payload without a ``labelling`` section (persisted before the first
    labelling landed) round-trips to a fallback-only snapshot.
    """
    from repro.core.snapshot import LabelSnapshot

    if payload.get("snapshot_format") != SNAPSHOT_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported snapshot format {payload.get('snapshot_format')!r}"
        )
    graph = Graph(int(payload["num_vertices"]))
    try:
        for u, v, w in payload["edges"]:
            graph.add_edge(int(u), int(v), _decode_distance(float(w)))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed snapshot edge list: {exc}") from exc
    version = int(payload.get("snapshot_version", 0))
    if "labelling" in payload:
        stl = deserialize_labelling(payload["labelling"], graph)
        return LabelSnapshot(stl.hierarchy, stl.labels, graph, version)
    return LabelSnapshot(None, None, graph, version)


def save_snapshot(snapshot: "LabelSnapshot", path_or_handle: str | TextIO) -> None:
    """Write a snapshot to a JSON file (or open handle)."""
    _dump(serialize_snapshot(snapshot), path_or_handle)


def load_snapshot(path_or_handle: str | TextIO) -> "LabelSnapshot":
    """Read a snapshot written by :func:`save_snapshot`."""
    return deserialize_snapshot(_load(path_or_handle))
