"""The one configuration object of the public API.

:class:`STLConfig` holds every per-index choice in one frozen dataclass with
one shared validator:

========== =========================================== ====================
field      selects                                     values
========== =========================================== ====================
backend    shard backend for batch maintenance         ``None`` / ``"serial"``
                                                       / ``"thread"`` /
                                                       ``"process"``
engine     maintenance family (batches and single      ``None`` / ``"pareto"``
           updates)                                    / ``"label_search"``
kernel     kernel of ``batch_query``                   ``None`` / ``"scalar"``
                                                       / ``"vector"``
policy     crossover thresholds                        a :class:`BatchPolicy`
                                                       or ``None``
construction  index build pipeline                     ``None`` / ``"serial"``
                                                       / ``"parallel"``
========== =========================================== ====================

``None`` always means "let the measured crossovers decide".  The batched
Label Search engine's own kernel is not an option: it runs the vector
rounds when numpy is installed and the scalar heaps otherwise.  Validation
happens **at construction**: a typo'd backend name fails where the config is
written, not batches later inside ``apply_batch``, and every validation
failure is a :class:`repro.utils.errors.ConfigError` (a ``ValueError``
subclass).

Instances are immutable and hashable; derive variants with
:meth:`STLConfig.replace`::

    base = STLConfig(engine="label_search")
    forced = base.replace(backend="process")

The facade :func:`repro.open_network` attaches a config to a new index, and
the per-call ``config=`` parameters of ``apply_batch`` / ``batch_query``
override it batch by batch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.batch import BatchPolicy, normalize_engine
from repro.core.construction import normalize_construction
from repro.core.kernels import normalize_kernel
from repro.core.shard import normalize_backend
from repro.utils.errors import ConfigError


@dataclass(frozen=True)
class STLConfig:
    """Frozen configuration for an STL index (see the module docstring).

    All fields default to ``None`` -- "decide by measured crossover" -- so
    ``STLConfig()`` is the default behaviour.
    """

    backend: str | None = None
    engine: str | None = None
    kernel: str | None = None
    policy: BatchPolicy | None = None
    construction: str | None = None

    def __post_init__(self) -> None:
        # One shared validator, run once at construction.
        normalize_backend(self.backend)
        normalize_engine(self.engine)
        # ``kernel`` is validated for *name* here but availability
        # (numpy present) is checked too: a config that names the vector
        # kernel on an interpreter that cannot run it is a configuration
        # error at the config site, not at the first query.
        if self.kernel is not None:
            normalize_kernel(self.kernel)
        if self.policy is not None and not isinstance(self.policy, BatchPolicy):
            raise ConfigError(
                f"policy must be a BatchPolicy or None, got {type(self.policy).__name__}"
            )
        # ``construction`` picks the index build pipeline (serial build vs
        # the opt-in process-parallel shared-memory builder); ``None`` is
        # serial.
        normalize_construction(self.construction)

    @property
    def maintenance(self) -> str:
        """The per-update maintenance mode this config implies.

        The ``engine`` field names the batch engine family, and single
        updates follow it: ``"pareto"`` when the engine is Pareto Search
        (the per-update Pareto classes, STL-P), the default
        ``"label_search"`` otherwise (each update a one-update batch of the
        batched Label Search engine).
        """
        return "pareto" if self.engine == "pareto" else "label_search"

    def replace(self, **changes: Any) -> "STLConfig":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """Compact human-readable summary (used by service stats/logs)."""
        parts = [
            f"{name}={getattr(self, name)!r}"
            for name in ("backend", "engine", "kernel", "construction")
            if getattr(self, name) is not None
        ]
        if self.policy is not None:
            parts.append("policy=custom")
        return "STLConfig(" + ", ".join(parts) + ")" if parts else "STLConfig(auto)"


#: The config every index without an explicit one runs under.
DEFAULT_CONFIG = STLConfig()
