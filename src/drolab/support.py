"""Finite support grids, discrete distributions, and sampling.

The whole package models the space of probability measures as the simplex
over one shared finite grid of atoms.  Couplings, divergence balls, and
worst-case expectations then reduce to finite linear or convex programs that
can be solved exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
import numpy as np

#: Identifier of the sampling scheme, recorded in experiment outputs so runs
#: are reproducible bit-for-bit: a PCG64 stream drives inverse-CDF draws.
RNG_ALGORITHM = "numpy-pcg64-inverse-cdf"

# Constructors renormalize weight vectors whose sum is off by at most this
# much (float noise) and reject anything worse (a real bug upstream).
_SUM_SLACK = 1e-9
_NEG_SLACK = 1e-9
_TRIANGLE_CHECK_MAX_ATOMS = 200


class InvalidDistributionError(ValueError):
    """Weights that cannot be normalized into a probability vector."""


class GridMismatchError(ValueError):
    """Two objects that must share a grid do not."""


class ConfigError(ValueError):
    """Configuration rejected, with a JSON-pointer path when available."""


def _as_points(atoms) -> np.ndarray:
    arr = np.array(atoms, dtype=float)  # a copy: the grid freezes it
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("atoms must be a nonempty list of points")
    return arr


@dataclass(frozen=True)
class SupportGrid:
    """Finite atom set with a ground metric between atoms.

    ``atoms`` has shape (m, d); ``ground_metric`` is the m-by-m matrix of
    pairwise distances.  The metric must be symmetric with zero diagonal and
    satisfy the triangle inequality (checked on construction for m <= 200).
    """

    atoms: np.ndarray
    ground_metric: np.ndarray

    def __post_init__(self) -> None:
        atoms = _as_points(self.atoms)
        metric = np.asarray(self.ground_metric, dtype=float)
        m = atoms.shape[0]
        if metric.shape != (m, m):
            raise ValueError(f"ground metric must be {m}x{m}, got {metric.shape}")
        if not np.all(np.isfinite(metric)):
            raise ValueError("ground metric must be finite")
        if np.any(metric < 0):
            raise ValueError("ground metric must be nonnegative")
        if not np.allclose(metric, metric.T, atol=1e-12, rtol=0.0):
            raise ValueError("ground metric must be symmetric")
        if np.any(np.abs(np.diag(metric)) > 1e-12):
            raise ValueError("ground metric must have a zero diagonal")
        metric = 0.5 * (metric + metric.T)
        np.fill_diagonal(metric, 0.0)
        coincide = np.triu(np.all(atoms[:, None, :] == atoms[None, :, :], axis=2), 1)
        if coincide.any():
            i, j = np.argwhere(coincide)[0]
            raise ValueError(f"atoms {i} and {j} coincide")
        if m <= _TRIANGLE_CHECK_MAX_ATOMS:
            for k in range(m):
                detour = metric[:, k][:, None] + metric[k, :][None, :]
                if np.any(metric > detour + 1e-9):
                    raise ValueError("ground metric violates the triangle inequality")
        atoms.setflags(write=False)
        metric.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "ground_metric", metric)

    @classmethod
    def euclidean(cls, atoms) -> "SupportGrid":
        """Grid with the Euclidean distance between atoms as ground metric."""
        pts = _as_points(atoms)
        diff = pts[:, None, :] - pts[None, :, :]
        metric = np.sqrt(np.sum(diff * diff, axis=2))
        return cls(pts, metric)

    @classmethod
    def from_json(cls, doc: dict) -> "SupportGrid":
        """Build a grid from ``{"atoms": [[...]], "metric": optional [[...]]}``.

        The ground metric defaults to Euclidean distances between atoms and
        can be overridden by an explicit matrix under the ``"metric"`` key.
        """
        if "atoms" not in doc:
            raise ValueError("grid document must contain 'atoms'")
        if "metric" in doc and doc["metric"] is not None:
            return cls(_as_points(doc["atoms"]), np.asarray(doc["metric"], dtype=float))
        return cls.euclidean(doc["atoms"])

    def to_json(self) -> dict:
        return {"atoms": self.atoms.tolist(), "metric": self.ground_metric.tolist()}

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def diameter(self) -> float:
        return float(np.max(self.ground_metric))

    def same_as(self, other: "SupportGrid") -> bool:
        return (
            self.atoms.shape == other.atoms.shape
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.ground_metric, other.ground_metric)
        )

    def __len__(self) -> int:
        return self.size


def _normalize_weights(weights, m: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float).copy()
    if w.shape != (m,):
        raise InvalidDistributionError(f"expected {m} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidDistributionError("weights must be finite")
    if np.any(w < -_NEG_SLACK):
        raise InvalidDistributionError(f"negative weight {w.min():.3e}")
    w[w < 0.0] = 0.0
    total = w.sum()
    if abs(total - 1.0) > _SUM_SLACK:
        raise InvalidDistributionError(f"weights sum to {total!r}, not 1")
    w /= total
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability vector over the atoms of a :class:`SupportGrid`.

    Constructors renormalize when the weight sum is within 1e-9 of one and
    reject anything further off; after construction the weights are
    nonnegative and sum to one within 1e-12.
    """

    grid: SupportGrid
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _normalize_weights(self.weights, self.grid.size))

    @classmethod
    def dirac(cls, grid: SupportGrid, index: int) -> "DiscreteDistribution":
        w = np.zeros(grid.size)
        w[index] = 1.0
        return cls(grid, w)

    @classmethod
    def uniform(cls, grid: SupportGrid) -> "DiscreteDistribution":
        return cls(grid, np.full(grid.size, 1.0 / grid.size))

    @classmethod
    def from_json(cls, doc: dict, grid: SupportGrid | None = None) -> "DiscreteDistribution":
        """Load ``{"atoms": ..., "weights": ...}`` (atoms optional if ``grid`` given)."""
        if grid is None:
            grid = SupportGrid.from_json(doc)
        elif "atoms" in doc and not grid.same_as(SupportGrid.from_json(doc)):
            raise GridMismatchError("document grid differs from the supplied grid")
        if "weights" not in doc:
            raise ValueError("distribution document must contain 'weights'")
        return cls(grid, np.asarray(doc["weights"], dtype=float))

    def to_json(self, include_grid: bool = True) -> dict:
        doc: dict = {"weights": self.weights.tolist()}
        if include_grid:
            doc.update(self.grid.to_json())
        return doc

    def expectation(self, values) -> float:
        """Expected value of a per-atom vector under this distribution."""
        v = np.asarray(values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} values, got shape {v.shape}")
        return float(self.weights @ v)

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    @property
    def is_dirac(self) -> bool:
        return int(np.count_nonzero(self.weights)) == 1


@dataclass(frozen=True)
class SampleSet:
    """Atom indices of n i.i.d. draws from some distribution on ``grid``."""

    grid: SupportGrid
    indices: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        idx = np.array(self.indices, dtype=np.int64)  # a copy: frozen below
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("a sample set needs at least one draw")
        if idx.min() < 0 or idx.max() >= self.grid.size:
            raise ValueError("sample index out of range for the grid")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return int(self.indices.size)


def empirical(samples: SampleSet) -> DiscreteDistribution:
    """Empirical distribution of a sample set: weight of atom j is count(j)/n."""
    counts = np.bincount(samples.indices, minlength=samples.grid.size)
    return DiscreteDistribution(samples.grid, counts / samples.n)


def mixture(beta: float, a: DiscreteDistribution, b: DiscreteDistribution) -> DiscreteDistribution:
    """Convex combination ``beta * a + (1 - beta) * b`` on a shared grid.

    Expectations mix linearly: E_mix f = beta * E_a f + (1 - beta) * E_b f.
    ``beta=0`` and ``beta=1`` return ``b`` and ``a`` unchanged.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {beta!r}")
    if not a.grid.same_as(b.grid):
        raise GridMismatchError("mixture components live on different grids")
    if beta == 0.0:
        return b
    if beta == 1.0:
        return a
    return DiscreteDistribution(a.grid, beta * a.weights + (1.0 - beta) * b.weights)


def rng_from_seed(seed) -> np.random.Generator:
    """The package-wide generator: PCG64 seeded by an int or a SeedSequence."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(*keys: int) -> int:
    """Derive a child seed from integer keys, reproducibly.

    Used by the experiment runner so per-replication streams do not overlap
    and every CSV row can be replayed by re-seeding from the recorded value.
    """
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0])


def sample(dist: DiscreteDistribution, n: int, seed) -> SampleSet:
    """Draw n i.i.d. categorical samples, deterministic given the seed.

    Inverse-CDF sampling against a PCG64 uniform stream; the scheme is named
    by :data:`RNG_ALGORITHM` and identical seeds give identical draws.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    rng = rng_from_seed(seed)
    cum = np.cumsum(dist.weights)
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    np.clip(idx, 0, dist.grid.size - 1, out=idx)
    recorded = seed if isinstance(seed, (int, np.integer)) else None
    return SampleSet(dist.grid, idx, seed=int(recorded) if recorded is not None else None)


def load_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
