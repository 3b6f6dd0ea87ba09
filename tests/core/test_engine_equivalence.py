"""Cross-engine equivalence: every engine x backend pair vs a fresh rebuild.

The batch layer now exposes a joint crossover -- two engine families
(``pareto``, ``label_search``) times three shard backends (``serial``,
``thread``, ``process``).  The three Label Search cells promise the build's
*bytes*; the three Pareto cells the same distances up to ``MARK_SLACK``
(:func:`repro.core.pareto_search.slack_differences`), because Pareto writes
differently associated sums.  This suite is the promise's enforcement,
parametrized over the full matrix and three workload shapes:

* the Figure 10 workload (``mixed_update_stream`` halves, the shape the
  benchmarks replay),
* multi-round random mixed batches (repeated edges, both kinds, chains),
* a degenerate plan whose updates *all* touch the separator (nothing to
  shard -- the backends must degrade to their serial engines).

Every scenario compares with labels rebuilt from scratch on the final
weights -- the strongest oracle available, independent of any maintenance
code path.

The ``label_search-serial`` cell -- the one the default config routes every
batch to -- runs twice, because its kernel follows the platform: once with
numpy switched off (the scalar heaps of the per-kind Label Search classes)
and once with it (the vector frontier rounds).  Both run the whole matrix,
and :class:`TestVectorKernelBitIdentity` additionally holds the two to
*bit-identical* label buffers after every batch of every scenario.

CI runs this file as its own matrix job with a hard timeout and
``-p no:cacheprovider`` (it spawns real worker processes), mirroring the
``test_parallel.py`` treatment; the tier-1 step skips it for the same
reason.
"""

import pytest

from repro.core import kernels
from repro.core.batch import BatchPolicy
from repro.core.labelling import build_labels
from repro.core.pareto_search import slack_differences
from repro.core.shard import ShardPlanner
from repro.core.stl import StableTreeLabelling
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from repro.workloads.updates import mixed_update_stream
from repro.core.config import STLConfig
from tests.conftest import apply_batch_without_numpy, paired_indexes, random_mixed_batch

ENGINES = ("pareto", "label_search")
BACKENDS = ("serial", "thread", "process")

needs_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="requires numpy (repro[fast])")

#: The matrix cells; ``label_search-serial`` is split by the kernel the
#: platform gives it (``"scalar"``: numpy switched off for the test).
CELLS = [
    pytest.param((engine, backend, None), id=f"{engine}-{backend}")
    for engine in ENGINES
    for backend in BACKENDS
    if (engine, backend) != ("label_search", "serial")
] + [
    pytest.param(("label_search", "serial", "scalar"), id="label_search-serial-scalar"),
    pytest.param(
        ("label_search", "serial", "vector"), id="label_search-serial-vector", marks=needs_numpy
    ),
]

#: More workers than CI runners have cores, so the multi-worker ownership
#: merge is exercised even on small boxes (same constant as test_parallel).
WORKERS = 4


@pytest.fixture(params=CELLS)
def cell(request, monkeypatch) -> STLConfig:
    """One cell of the equivalence matrix, as the config that pins it.

    The scalar cell switches numpy off for the whole test, since no config
    option pins the serial Label Search engine's kernel.
    """
    engine, backend, kernel = request.param
    if kernel == "scalar":
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
    return STLConfig(engine=engine, backend=backend)


@pytest.fixture
def stl(small_grid):
    """A fresh index per test, closed afterwards (kills any worker pool).

    The rebuild crossover is disabled: on a graph this small it would
    otherwise swallow every batch, and a rebuild is trivially equal to the
    rebuild oracle -- the engines must do the maintaining themselves here.
    """
    index = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
    index.batch_policy = BatchPolicy(rebuild_fraction=None, max_workers=WORKERS)
    yield index
    index.close()


def assert_matches_rebuild(index: StableTreeLabelling, engine: str = "label_search") -> None:
    """The maintained labels equal a from-scratch build on the final graph:
    byte for byte after Label Search, up to ``MARK_SLACK`` after Pareto."""
    fresh = build_labels(index.graph, index.hierarchy)
    if engine == "pareto":
        diffs = slack_differences(index.labels, fresh)
        assert diffs == [], f"{len(diffs)} label entries diverged: {diffs[:5]}"
    else:
        assert bytes(index.labels.view) == bytes(fresh.view), index.labels.differences(fresh)[:5]


# The three workload shapes, as generators over the *live* graph: each batch
# is drawn from the weights the previous one left behind.


def figure10_batches(graph):
    """The benchmark workload: the increase half, then the restoring half."""
    stream = mixed_update_stream(graph, 80, factor=2.0, seed=21)
    yield stream.increases()
    yield stream.decreases()


def mixed_round_batches(graph, seed=0):
    """Rounds of mixed batches with repeated edges."""
    for round_ in range(3):
        yield random_mixed_batch(graph, 60, seed=seed * 10 + round_)


def separator_crossing_batch(graph):
    """One batch made only of separator-touching edges."""
    _, separator = ShardPlanner(graph).regions()
    sep = set(separator)
    batch = UpdateBatch()
    for u, v, w in graph.edges():
        if u in sep or v in sep:
            batch.append(EdgeUpdate(u, v, w, round(w * 1.7, 3)))
    assert len(batch) > 0, "separator touches no edges; scenario is vacuous"
    yield batch


SCENARIOS = [figure10_batches, mixed_round_batches, separator_crossing_batch]


class TestEngineBackendMatrix:
    def test_figure10_workload_matches_rebuild(self, stl, cell):
        """The benchmark workload: the increase half, then the restoring
        decrease half, through one matrix cell."""
        for batch in figure10_batches(stl.graph):
            stl.apply_batch(batch, config=cell)
            assert_matches_rebuild(stl, cell.engine)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_round_mixed_batches_match_rebuild(self, stl, cell, seed):
        """Rounds of mixed batches with repeated edges: state carried across
        rounds must stay exact, not just each round in isolation."""
        for batch in mixed_round_batches(stl.graph, seed):
            stl.apply_batch(batch, config=cell)
        assert_matches_rebuild(stl, cell.engine)

    def test_fully_separator_crossing_batch_matches_rebuild(self, stl, cell):
        """A batch made only of separator-touching edges: the plan has no
        shardable updates, so every backend must degrade to its serial
        engine -- the degenerate corner of the matrix."""
        for batch in separator_crossing_batch(stl.graph):
            stats = stl.apply_batch(batch, config=cell)
            assert stats.updates_processed >= len(batch)
        assert_matches_rebuild(stl, cell.engine)

    def test_engines_agree_with_each_other(self, small_grid, cell):
        """Transitivity check in the other direction: every cell equals the
        serial Pareto engine on the same stream up to ``MARK_SLACK`` (so any
        two cells agree)."""
        reference = StableTreeLabelling.build(
            small_grid.copy(), HierarchyOptions(leaf_size=8)
        )
        candidate = StableTreeLabelling(
            small_grid.copy(), reference.hierarchy, reference.labels.copy()
        )
        policy = BatchPolicy(rebuild_fraction=None, max_workers=WORKERS)
        reference.batch_policy = policy
        candidate.batch_policy = policy
        try:
            for round_ in range(2):
                batch = random_mixed_batch(reference.graph, 50, seed=100 + round_)
                reference.apply_batch(batch, config=STLConfig(backend="serial", engine="pareto"))
                candidate.apply_batch(batch, config=cell)
            assert slack_differences(candidate.labels, reference.labels) == []
        finally:
            candidate.close()


@needs_numpy
class TestVectorKernelBitIdentity:
    """``label_search/serial``: the vector rounds against the scalar heaps.

    Both kernels hold the byte content of a rebuild, and of each other,
    after every batch.
    """

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
    def test_vector_equals_scalar_bit_for_bit(self, small_grid, scenario):
        scalar, vector = paired_indexes(small_grid)
        policy = BatchPolicy(rebuild_fraction=None)
        config = STLConfig(engine="label_search", backend="serial", policy=policy)
        for batch in scenario(scalar.graph):
            reference = apply_batch_without_numpy(scalar, batch, config)
            stats = vector.apply_batch(batch, config=config)
            assert "vector_kernel" not in reference.extra
            assert stats.extra["vector_kernel"] == 1 and stats.extra["rounds"] > 0
            assert vector.labels.view.tobytes() == scalar.labels.view.tobytes()
            assert_matches_rebuild(vector)
            # The counters keep their meaning across kernels.
            assert stats.labels_changed == reference.labels_changed
            assert stats.vertices_affected == reference.vertices_affected
            assert stats.ancestors_touched == reference.ancestors_touched
