import copy
import pickle
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from drolab.support import DiscreteDistribution, SupportGrid


@pytest.fixture
def line_grid() -> SupportGrid:
    return SupportGrid.euclidean([[0.0], [1.0], [3.0]])


@pytest.fixture
def square_grid() -> SupportGrid:
    return SupportGrid.euclidean([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def random_grid(rng: np.random.Generator, m: int, dim: int = 1, scale: float = 3.0) -> SupportGrid:
    while True:
        atoms = np.round(rng.uniform(-scale, scale, size=(m, dim)), 6)
        if len({tuple(a) for a in atoms}) == m:
            return SupportGrid.euclidean(atoms)


def random_distribution(rng: np.random.Generator, grid: SupportGrid) -> DiscreteDistribution:
    w = rng.dirichlet(np.ones(grid.size))
    return DiscreteDistribution(grid, w)


def random_ball_instance(
    rng: np.random.Generator, m: int, dim: int, empty: int, tied: bool, rows: int = 3
) -> tuple[DiscreteDistribution, np.ndarray]:
    """A centre with ``empty`` zero-weight atoms on a random grid, and a
    rows-by-m cost table whose values tie often when ``tied``."""
    grid = random_grid(rng, m, dim)
    w = rng.dirichlet(np.ones(m))
    w[rng.choice(m, size=min(empty, m - 1), replace=False)] = 0.0
    center = DiscreteDistribution(grid, w / w.sum())
    if tied:  # a few distinct values, so argmax atoms and dual breakpoints tie
        return center, rng.integers(-2, 3, size=(rows, m)).astype(float)
    return center, rng.normal(size=(rows, m)) * rng.uniform(0.1, 10.0)


# Radii as fractions of the grid diameter (or another radius cap), from 0
# through past it.  The smallest positive one is the library's own
# radius-grid floor (1e-4).
RADIUS_FRACTIONS = st.sampled_from([0.0, 1e-4, 0.05, 0.3, 0.7, 1.0, 1.5]) | st.floats(1e-4, 1.2)


def spy_on(monkeypatch: pytest.MonkeyPatch, module, name: str) -> list:
    """Wrap ``module.name`` through ``monkeypatch``: the function still runs,
    and each call appends its ``(args, kwargs)`` to the returned list."""
    calls = []
    real = getattr(module, name)

    def spied(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)
    return calls


@pytest.fixture
def spy(monkeypatch):
    """``calls = spy(module, name)``: :func:`spy_on` for the test's span."""
    return lambda module, name: spy_on(monkeypatch, module, name)


def binding_cell(values: np.ndarray, i: int, r: int, ref: float) -> int:
    """The row of an ``extremal_values`` table whose witness binds the
    two-sided deviation of row ``i`` at radius ``r``: the worst case on a
    tie, as ``deviations_from`` picks it."""
    k = len(values) // 2
    return i if values[i, r] - ref >= ref - values[k + i, r] else k + i


def witness_builds(monkeypatch: pytest.MonkeyPatch, kind) -> list:
    """Wrap the witness builder of ``kind``'s ball oracle (Wasserstein or
    forward KL): each call appends the number of rows it builds to the
    returned list."""
    from drolab import divergence

    name = {"wasserstein": "_wasserstein_witnesses", "kl": "_kl_witnesses"}[kind._key]
    builds = []
    make = getattr(divergence, name)

    def spied(*args):
        build = make(*args)
        return lambda rows, r: builds.append(rows.size) or build(rows, r)

    monkeypatch.setattr(divergence, name, spied)
    return builds


def assert_pending_witness(make, eager: DiscreteDistribution, builds: list, during=(), on_read=(1,)) -> None:
    """``make()`` returns a result (a ``Solution`` or ``RobustnessReport``)
    whose witness waits to be read.  Its builder calls, as
    :func:`witness_builds` records them, are ``during`` while it is made and
    ``on_read`` more at the first read of ``witness`` (one single-row
    build; none for a distribution already in hand), and none at later
    reads.  ``dataclasses.replace``, ``copy.copy``, ``copy.deepcopy`` and a
    pickle round trip each read the witness, so each builds a fresh result's
    witness as that first read does, and the copy holds it built.  The
    witness has the bits of ``eager``, the distribution built for it before,
    in the result and in every copy, and the result's JSON is the one it has
    with ``eager`` as its witness."""
    builds.clear()
    result = make()
    assert builds == list(during)
    witness = result.witness
    assert builds == [*during, *on_read]
    assert result.witness is witness
    assert builds == [*during, *on_read]
    assert witness.weights.tobytes() == eager.weights.tobytes()
    assert result.to_json() == replace(result, witness=eager).to_json()
    assert replace(result, measure=-1.0).witness is witness
    for move in (lambda r: replace(r, measure=-1.0), copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        builds.clear()
        moved = move(make())
        assert builds == [*during, *on_read]
        assert moved.witness.weights.tobytes() == eager.weights.tobytes()
        assert builds == [*during, *on_read]
