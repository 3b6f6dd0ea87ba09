"""STLConfig: the one configuration object and its validator.

Every per-index choice lives on one frozen dataclass validated at
construction.  These tests pin the contract: construction-time validation
through :class:`ConfigError` (a ``ValueError`` subclass), the
:func:`repro.open_network` facade, and the removal of the pre-STLConfig
per-call kwargs and boolean backend spellings.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.core.batch import BatchPolicy, normalize_engine
from repro.core.config import DEFAULT_CONFIG, STLConfig
from repro.core.kernels import HAS_NUMPY, normalize_kernel
from repro.core.shard import normalize_backend
from repro.core.stl import StableTreeLabelling, open_network
from repro.graph.updates import EdgeUpdate
from repro.utils.errors import (
    ConfigError,
    LabellingError,
    ReproError,
    SerializationError,
    ServiceError,
    SnapshotError,
    STLError,
    UpdateError,
)


class TestSTLConfigValidation:
    def test_default_is_all_auto(self):
        config = STLConfig()
        assert config.backend is None
        assert config.engine is None
        assert config.kernel is None
        assert config.policy is None
        assert config == DEFAULT_CONFIG

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(ConfigError, match="allowed backends"):
            STLConfig(backend="proces")

    def test_unknown_engine_fails_at_construction(self):
        with pytest.raises(ConfigError, match="allowed engines"):
            STLConfig(engine="paretto")

    def test_unknown_kernel_fails_at_construction(self):
        with pytest.raises(ConfigError):
            STLConfig(kernel="vectorised")

    def test_policy_type_checked(self):
        with pytest.raises(ConfigError, match="BatchPolicy"):
            STLConfig(policy={"rebuild_fraction": 0.5})  # type: ignore[arg-type]

    def test_config_error_is_value_error(self):
        """Pre-redesign ``except ValueError`` handlers keep catching."""
        with pytest.raises(ValueError):
            STLConfig(backend="bogus")
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, STLError)

    def test_replace_revalidates(self):
        base = STLConfig(engine="label_search")
        assert base.replace(backend="process").engine == "label_search"
        with pytest.raises(ConfigError):
            base.replace(backend="nope")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            STLConfig().backend = "thread"  # type: ignore[misc]

    def test_maintenance_follows_engine(self):
        assert STLConfig().maintenance == "label_search"
        assert STLConfig(engine="pareto").maintenance == "pareto"
        assert STLConfig(engine="label_search").maintenance == "label_search"

    def test_describe(self):
        assert STLConfig().describe() == "STLConfig(auto)"
        text = STLConfig(engine="pareto", policy=BatchPolicy()).describe()
        assert "engine='pareto'" in text and "policy=custom" in text


class TestNormalizerErrors:
    """The shared validators raise the unified hierarchy's ConfigError."""

    def test_normalize_backend(self):
        with pytest.raises(ConfigError):
            normalize_backend("premium")

    def test_normalize_engine(self):
        with pytest.raises(ConfigError):
            normalize_engine("fast")

    def test_normalize_kernel(self):
        with pytest.raises(ConfigError):
            normalize_kernel("gpu")

    @pytest.mark.skipif(HAS_NUMPY, reason="needs the no-numpy interpreter")
    def test_vector_without_numpy_is_config_error(self):
        with pytest.raises(ConfigError):
            STLConfig(kernel="vector")


class TestErrorHierarchy:
    """One root, documented subclasses, and the historical alias."""

    def test_single_root(self):
        for exc in (ConfigError, SnapshotError, ServiceError, SerializationError,
                    UpdateError, LabellingError):
            assert issubclass(exc, STLError)

    def test_repro_error_alias(self):
        assert ReproError is STLError


class TestOpenNetwork:
    def test_facade_builds_configured_index(self, small_grid):
        config = STLConfig(engine="label_search", kernel="scalar")
        stl = open_network(small_grid, config=config)
        assert stl.config is config
        assert stl.maintenance_mode == "label_search"
        assert repro.open_network is open_network

    def test_default_config(self, small_grid):
        stl = open_network(small_grid)
        assert stl.config == DEFAULT_CONFIG
        assert stl.maintenance_mode == "label_search"

    def test_config_drives_batches_without_kwargs(self, small_grid):
        stl = open_network(small_grid, config=STLConfig(engine="label_search"))
        stats = stl.apply_batch(
            [EdgeUpdate(u, v, w, w * 2) for u, v, w in list(stl.graph.edges())[:8]]
        )
        assert stats.extra.get("label_search_engine") == 1

    def test_rebuild_inherits_config(self, small_grid):
        config = STLConfig(kernel="scalar")
        stl = open_network(small_grid, config=config)
        assert stl.rebuild().config is config

    def test_explicit_all_export_surface(self):
        for name in ("open_network", "STLConfig", "STLError", "LabelSnapshot",
                     "QueryService", "QueryServer", "StableTreeLabelling"):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestRemovedSurface:
    """The pre-STLConfig spellings fail loudly instead of warning."""

    @pytest.fixture
    def stl(self, small_grid):
        return StableTreeLabelling.build(small_grid)

    @pytest.mark.parametrize("legacy", [True, False])
    def test_boolean_backend_is_config_error(self, legacy):
        with pytest.raises(ConfigError, match="allowed backends"):
            STLConfig(backend=legacy)

    @pytest.mark.parametrize(
        "kwarg",
        [
            {"parallel": "serial"},
            {"engine": "label_search"},
            {"policy": BatchPolicy(rebuild_fraction=None)},
        ],
    )
    def test_apply_batch_takes_only_config(self, stl, kwarg):
        u, v, w = next(iter(stl.graph.edges()))
        with pytest.raises(TypeError):
            stl.apply_batch([EdgeUpdate(u, v, w, w * 2)], **kwarg)
        assert stl.graph.weight(u, v) == w

    def test_batch_query_takes_only_config(self, stl):
        with pytest.raises(TypeError):
            stl.batch_query([(0, 1)], kernel="scalar")

    def test_policy_has_only_its_three_knobs(self):
        assert [f.name for f in dataclasses.fields(BatchPolicy)] == [
            "rebuild_min_updates",
            "rebuild_fraction",
            "max_workers",
        ]
        assert not hasattr(BatchPolicy, "should_loop")
