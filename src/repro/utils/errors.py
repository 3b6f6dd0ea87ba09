"""Exception hierarchy for the repro package.

Every error raised by the library derives from one root, :class:`STLError`,
so callers can catch library failures without also swallowing programming
errors.  The hierarchy (see docs/api.md for the full mapping of public entry
points to error classes)::

    STLError
    +-- GraphError
    |   +-- VertexNotFoundError
    |   +-- EdgeNotFoundError
    |   +-- InvalidWeightError
    +-- PartitionError
    +-- HierarchyError
    +-- LabellingError
    +-- UpdateError
    +-- ConfigError          (also a ValueError)
    +-- SnapshotError
    +-- ServiceError
    +-- SerializationError
    +-- WorkloadError
    +-- ExperimentError

:class:`ConfigError` doubles as a :class:`ValueError`: the option validators
(``normalize_backend`` / ``normalize_engine`` / ``normalize_kernel`` and the
:class:`repro.core.config.STLConfig` constructor) historically raised bare
``ValueError``\\ s, so existing ``except ValueError`` call sites keep working
while new code can catch the library root instead.

``ReproError`` is the historical name of the root and is kept as an alias --
the two names are the *same class*, so ``except ReproError`` and
``except STLError`` are interchangeable.
"""


class STLError(Exception):
    """Base class for all errors raised by the repro package."""


#: Historical alias of :class:`STLError` (the pre-serving-layer root name).
ReproError = STLError


class GraphError(ReproError):
    """Raised for invalid graph operations (unknown vertices, bad weights)."""


class VertexNotFoundError(GraphError):
    """Raised when a vertex id is outside the graph's vertex range."""


class EdgeNotFoundError(GraphError):
    """Raised when an operation refers to an edge that does not exist."""


class InvalidWeightError(GraphError):
    """Raised when an edge weight is negative, NaN or otherwise invalid."""


class PartitionError(ReproError):
    """Raised when a partitioner cannot produce a valid balanced separator."""


class HierarchyError(ReproError):
    """Raised when a tree hierarchy violates its structural invariants."""


class LabellingError(ReproError):
    """Raised when a distance labelling is inconsistent or incomplete."""


class UpdateError(ReproError):
    """Raised when a dynamic update cannot be applied to an index."""


class ConfigError(STLError, ValueError):
    """Raised for invalid configuration: bad backend/engine/kernel names,
    inconsistent :class:`repro.core.config.STLConfig` fields, unknown
    maintenance modes.  Subclasses :class:`ValueError` because the option
    validators raised bare ``ValueError`` before the config redesign and
    existing ``except ValueError`` handlers must keep catching it."""


class SnapshotError(STLError):
    """Raised when a label snapshot is used after disposal, fails
    validation, or cannot be produced from the index's current state."""


class ServiceError(STLError):
    """Raised by the query service for lifecycle misuse (querying a stopped
    service, submitting to a full queue with ``wait=False``) and by the wire
    front for malformed requests."""


class SerializationError(ReproError):
    """Raised when an index cannot be saved to or loaded from disk."""


class WorkloadError(ReproError):
    """Raised when a workload generator receives unsatisfiable parameters."""


class ExperimentError(ReproError):
    """Raised when an experiment driver is misconfigured."""
