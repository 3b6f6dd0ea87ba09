"""Index statistics backing Table 4 of the paper.

Every index implementation (STL and the baselines) exposes an
:class:`IndexStats` so the experiment drivers can print the labelling size,
construction time, number of label entries and tree height side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.memory import MemoryEstimate, format_bytes, format_count


@dataclass(frozen=True)
class IndexStats:
    """Size and shape statistics of a distance index."""

    method: str
    num_vertices: int
    num_label_entries: int
    memory: MemoryEstimate
    tree_height: int
    construction_seconds: float
    #: Construction-time breakdown (PR 10): wall-clock of the hierarchy and
    #: label phases and the number of builder worker processes (0 = serial
    #: build).  Defaulted so the baseline indexes -- which have no two-phase
    #: build -- keep constructing stats positionally.
    hierarchy_seconds: float = 0.0
    label_seconds: float = 0.0
    construction_workers: int = 0
    #: The label phase's work (see ``BuildReport``): relax rounds and
    #: frontier entries, 0 on the per-root Dijkstra paths.
    label_rounds: int = 0
    label_enqueued: int = 0

    @property
    def bytes_total(self) -> int:
        """Estimated index size in bytes (compact layout)."""
        return self.memory.total_bytes

    @property
    def average_label_length(self) -> float:
        """Average number of distance entries per vertex."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_label_entries / self.num_vertices

    def as_row(self) -> dict[str, str]:
        """Human-readable row for the Table 4 report."""
        return {
            "method": self.method,
            "labelling size": format_bytes(self.bytes_total),
            "construction time [s]": f"{self.construction_seconds:.2f}",
            "# label entries": format_count(self.num_label_entries),
            "tree height": str(self.tree_height),
        }
