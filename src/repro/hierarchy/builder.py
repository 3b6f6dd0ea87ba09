"""Construction of stable tree hierarchies (Definition 4.1, Remark 1).

The construction is the recursive bi-partitioning of HC2L *without* shortcut
insertion: each recursion step finds a balanced vertex separator of the
current subgraph, stores it in a tree node, and recurses into the two sides.
Because no shortcuts are added, the subgraphs stay sparse and the cuts at
lower levels stay small -- the paper's Remark 1 credits this for both the
smaller labelling and the cheaper maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graph.graph import Graph
from repro.hierarchy.tree import StableTreeHierarchy
from repro.partition.bisection import Bisection, Bisector, HybridBisector, enforce_balance
from repro.utils.errors import HierarchyError, PartitionError


@dataclass
class HierarchyOptions:
    """Tuning knobs for stable tree hierarchy construction.

    Attributes
    ----------
    beta:
        Balance parameter of Definition 4.1 (the paper uses 0.2: neither
        child subtree may exceed 80% of its parent's subtree).
    leaf_size:
        Vertex sets of at most this size stop recursing and become leaf
        nodes.  Smaller leaves give shorter labels for nearby pairs at the
        cost of a deeper tree.
    bisector:
        Partitioning strategy; defaults to :class:`HybridBisector`.
    order_within_node:
        How vertices are ordered inside a node: ``"degree"`` (descending
        degree, so well-connected separator vertices get small label indexes)
        or ``"id"`` (ascending vertex id, deterministic and order-independent).
    strict_balance:
        If True, a bisection violating the balance bound raises
        :class:`HierarchyError`; if False (default) it is accepted with a
        recorded violation count (real-world instances occasionally produce a
        slightly unbalanced cut at tiny subproblems, which is harmless).
    """

    beta: float = 0.2
    leaf_size: int = 16
    bisector: Bisector = field(default_factory=HybridBisector)
    order_within_node: str = "degree"
    strict_balance: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.beta <= 0.5:
            raise ValueError(f"beta must lie in (0, 0.5], got {self.beta}")
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {self.leaf_size}")
        if self.order_within_node not in ("degree", "id"):
            raise ValueError(
                f"order_within_node must be 'degree' or 'id', got {self.order_within_node!r}"
            )


@dataclass
class BuildReport:
    """Diagnostics collected while building a hierarchy.

    The timing fields cover the whole index construction, not only the
    hierarchy phase: :func:`repro.core.construction.build_index` fills
    ``hierarchy_seconds`` / ``label_seconds`` with the measured wall-clock
    of the two phases, ``construction`` with the resolved mode
    (``"serial"`` or ``"parallel"``) and ``workers`` with the number of
    worker processes the parallel builder used (0 for serial builds).
    ``label_rounds`` / ``label_enqueued`` count the frontiers and frontier
    entries of the serial build's relax (0 on the per-root Dijkstra paths:
    the parallel builder and the build without numpy).
    """

    num_nodes: int = 0
    num_leaves: int = 0
    max_separator: int = 0
    balance_violations: int = 0
    hierarchy_seconds: float = 0.0
    label_seconds: float = 0.0
    workers: int = 0
    construction: str = "serial"
    label_rounds: int = 0
    label_enqueued: int = 0

    def record(self, bisection: Bisection, is_leaf: bool, balanced: bool) -> None:
        self.num_nodes += 1
        if is_leaf:
            self.num_leaves += 1
        self.max_separator = max(self.max_separator, len(bisection.separator))
        if not balanced:
            self.balance_violations += 1

    def merge(self, other: "BuildReport") -> None:
        """Fold a subtree build's counters into this report (timings untouched)."""
        self.num_nodes += other.num_nodes
        self.num_leaves += other.num_leaves
        self.max_separator = max(self.max_separator, other.max_separator)
        self.balance_violations += other.balance_violations


def build_hierarchy(
    graph: Graph,
    options: HierarchyOptions | None = None,
) -> StableTreeHierarchy:
    """Build a stable tree hierarchy over every vertex of ``graph``."""
    hierarchy, _ = build_hierarchy_with_report(graph, options)
    return hierarchy


def build_hierarchy_with_report(
    graph: Graph,
    options: HierarchyOptions | None = None,
) -> tuple[StableTreeHierarchy, BuildReport]:
    """Build a hierarchy and return the :class:`BuildReport` diagnostics."""
    options = options or HierarchyOptions()
    hierarchy = StableTreeHierarchy(graph.num_vertices)
    report = BuildReport()
    if graph.num_vertices == 0:
        return hierarchy, report

    nodes = build_subtree(graph, list(graph.vertices()), options, report)
    graft_subtree(hierarchy, nodes)
    hierarchy.finalize()
    return hierarchy, report


def _order_vertices(graph: Graph, vertices: Sequence[int], mode: str) -> list[int]:
    """Total order applied to the vertices stored inside one tree node."""
    if mode == "degree":
        return sorted(vertices, key=lambda v: (-graph.degree(v), v))
    return sorted(vertices)


#: One node of a detached subtree build: ``(parent_local, is_right,
#: ordered_vertices)`` where ``parent_local`` indexes the subtree's own node
#: list (-1 for the subtree root).  Nodes are listed in DFS preorder (node
#: before its children, left child's subtree before the right's) -- exactly
#: the order :meth:`StableTreeHierarchy.add_node` numbers nodes in, which is
#: what lets :func:`graft_subtree` replay a detached build with the same node
#: ids the attached recursion would have produced.
SubtreeNode = tuple[int, bool, list[int]]


def build_subtree(
    graph: Graph,
    vertices: list[int],
    options: HierarchyOptions,
    report: BuildReport | None = None,
) -> list[SubtreeNode]:
    """Build one hierarchy subtree over ``vertices``, detached from any tree.

    This is the whole recursive construction, expressed over local node
    records instead of a live :class:`StableTreeHierarchy`: the serial build
    runs it once over every vertex and grafts the result at the root, and
    the parallel builder (:mod:`repro.core.construction`) fans independent
    post-bisection vertex sets out to worker processes, each running this
    same function -- one code path, so the parallel build cannot drift from
    the serial numbering.  ``report`` collects the usual build diagnostics
    (workers pass a fresh one and ship it back for merging).
    """
    if report is None:
        report = BuildReport()
    nodes: list[SubtreeNode] = []
    _build_local(graph, vertices, -1, False, nodes, options, report)
    return nodes


def _build_local(
    graph: Graph,
    vertices: list[int],
    parent_local: int,
    is_right: bool,
    nodes: list[SubtreeNode],
    options: HierarchyOptions,
    report: BuildReport,
) -> None:
    local = len(nodes)

    if len(vertices) <= options.leaf_size:
        nodes.append(
            (parent_local, is_right, _order_vertices(graph, vertices, options.order_within_node))
        )
        report.record(Bisection([], list(vertices), []), is_leaf=True, balanced=True)
        return

    try:
        bisection = options.bisector.bisect(graph, vertices)
    except PartitionError as exc:
        raise HierarchyError(f"bisection failed on {len(vertices)} vertices: {exc}") from exc

    if not bisection.left or not bisection.right:
        # The partitioner could not split the set (e.g. a dense blob smaller
        # than any balanced cut); store everything in a single leaf node.
        nodes.append(
            (parent_local, is_right, _order_vertices(graph, vertices, options.order_within_node))
        )
        report.record(bisection, is_leaf=True, balanced=True)
        return

    balanced = enforce_balance(bisection, options.beta)
    if not balanced and options.strict_balance:
        raise HierarchyError(
            f"bisection of {len(vertices)} vertices violates the beta={options.beta} "
            f"balance bound: sides {len(bisection.left)}/{len(bisection.right)}"
        )
    report.record(bisection, is_leaf=False, balanced=balanced)

    separator = _order_vertices(graph, bisection.separator, options.order_within_node)
    nodes.append((parent_local, is_right, separator))
    _build_local(graph, bisection.left, local, False, nodes, options, report)
    _build_local(graph, bisection.right, local, True, nodes, options, report)


def graft_subtree(
    hierarchy: StableTreeHierarchy,
    nodes: Sequence[SubtreeNode],
    parent: int = -1,
    is_right: bool = False,
) -> None:
    """Graft a detached subtree build under ``parent`` of ``hierarchy``.

    Replays the subtree's preorder node list through
    :meth:`StableTreeHierarchy.add_node` / ``assign_vertices``; because the
    list is in preorder, every local parent has already been grafted (and
    assigned its vertices, so prefix counts cascade correctly) by the time
    its children arrive.  Called in serial DFS order over the subproblems,
    this reproduces the attached recursion's node ids and ``tau`` exactly.
    """
    real = [0] * len(nodes)
    for local, (parent_local, right, ordered) in enumerate(nodes):
        if parent_local < 0:
            node = hierarchy.add_node(parent, is_right)
        else:
            node = hierarchy.add_node(real[parent_local], right)
        real[local] = node.index
        hierarchy.assign_vertices(node, ordered)
