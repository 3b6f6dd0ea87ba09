"""Stable Tree Labelling (STL) for dynamic road networks.

This package is a full reproduction of

    Koehler, Farhan & Wang.
    "Stable Tree Labelling for Accelerating Distance Queries on Dynamic Road
    Networks", EDBT 2025.

It provides:

* ``repro.graph`` -- weighted dynamic graphs, synthetic road-network
  generators and DIMACS I/O,
* ``repro.algorithms`` -- Dijkstra-family searches used as ground truth,
* ``repro.partition`` / ``repro.hierarchy`` -- balanced vertex-separator
  partitioning and the stable tree hierarchy,
* ``repro.core`` -- the paper's contribution: STL construction, queries and
  the Label Search / Pareto Search maintenance algorithms,
* ``repro.baselines`` -- CH, H2H, IncH2H, DTDHL and HC2L competitors,
* ``repro.workloads`` / ``repro.experiments`` -- workload generators and the
  drivers that regenerate every table and figure of the paper's evaluation,
* ``repro.serve`` -- an always-on asyncio query service answering lock-free
  from immutable label snapshots while maintenance commits by pointer swap.

Quickstart::

    import repro
    from repro import STLConfig, generators

    graph = generators.grid_road_network(32, 32, seed=7)
    stl = repro.open_network(graph, config=STLConfig(engine="label_search"))
    print(stl.query(0, graph.num_vertices - 1))
    stl.decrease_edge(0, 1, new_weight=1.0)

All tunables (shard backend, batch engine, query kernel, batch policy) live
on the frozen :class:`STLConfig`.  Every error raised by the package derives
from :class:`repro.utils.errors.STLError`.
"""

from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.graph import generators
from repro.core.batch import BatchPolicy
from repro.core.config import STLConfig
from repro.core.shard import ShardPlanner
from repro.core.snapshot import LabelSnapshot
from repro.core.stl import StableTreeLabelling, open_network
from repro.hierarchy.builder import HierarchyOptions
from repro.serve import QueryServer, QueryService
from repro.utils.errors import STLError

__all__ = [
    "Graph",
    "EdgeUpdate",
    "UpdateBatch",
    "generators",
    "open_network",
    "StableTreeLabelling",
    "STLConfig",
    "STLError",
    "LabelSnapshot",
    "QueryService",
    "QueryServer",
    "BatchPolicy",
    "ShardPlanner",
    "HierarchyOptions",
    "__version__",
]

__version__ = "1.1.0"
