"""Cost functions, decision spaces, regularizers, and Lipschitz metadata.

Lipschitz constants here are grid-restricted: they bound the cost's variation
over the finite atom grid (respectively the finite decision grid), which is
all the deviation bounds ever evaluate.  The built-in constants assume the
default Euclidean ground metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from drolab.support import ConfigError, SupportGrid


class MissingLipschitzDataError(ValueError):
    """An operation needs Lipschitz metadata the cost does not declare."""


class NonFiniteCostError(ValueError):
    """A cost evaluation returned inf or nan."""


def _as_decision(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError("a decision must be a scalar or a flat vector")
    return arr


@dataclass(frozen=True)
class DecisionSpace:
    """A finite set of candidate decisions (k points in R^l)."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("decision space must hold at least one point")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, points) -> "DecisionSpace":
        return cls(np.asarray(points, dtype=float))

    @classmethod
    def interval(cls, lo: float, hi: float, num: int) -> "DecisionSpace":
        """Evenly discretized 1-D interval with ``num`` grid points."""
        if num < 1:
            raise ValueError("interval discretization needs at least one point")
        if hi < lo:
            raise ValueError("interval upper end below lower end")
        return cls(np.linspace(lo, hi, num)[:, None])

    @classmethod
    def from_json(cls, doc: dict) -> "DecisionSpace":
        """Build ``{"points": [[...]]}`` or ``{"interval": {"lo", "hi", "num"}}``."""
        if "points" in doc:
            return cls.from_points(doc["points"])
        iv = doc["interval"]
        return cls.interval(iv["lo"], iv["hi"], iv["num"])

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.points[k]


@dataclass(frozen=True)
class CostFunction:
    """Evaluable cost ``h(x, xi)`` with optional analytic Lipschitz data.

    ``lip_in_xi`` maps a decision x to a constant dominating the variation of
    ``h(x, .)`` between grid atoms per unit of ground distance; ``lip_in_x``
    maps an atom xi to a constant dominating the variation of ``h(., xi)``
    between decisions per unit of Euclidean distance.  ``nonneg`` declares
    ``h >= 0`` on the modeled grids.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], float]
    lip_in_xi: Callable[[np.ndarray], float] | None = None
    lip_in_x: Callable[[np.ndarray], float] | None = None
    nonneg: bool = False

    def __call__(self, x, xi) -> float:
        return float(self.fn(_as_decision(x), np.atleast_1d(np.asarray(xi, dtype=float))))

    def atom_costs(self, grid: SupportGrid, x) -> np.ndarray:
        """Vector of h(x, xi_j) over the grid atoms, checked finite."""
        xd = _as_decision(x)
        vals = np.array([self.fn(xd, grid.atoms[j]) for j in range(grid.size)], dtype=float)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise NonFiniteCostError(
                f"cost {self.name!r} is not finite at x={xd.tolist()}, atom index {int(bad[0])}"
            )
        return vals


@dataclass(frozen=True)
class Regularizer:
    """Decision penalty ``f(x)``."""

    fn: Callable[[np.ndarray], float]

    def __call__(self, x) -> float:
        val = float(self.fn(_as_decision(x)))
        if not np.isfinite(val):
            raise NonFiniteCostError(f"regularizer is not finite at x={x!r}")
        return val


def expected_cost(dist, cf: CostFunction, x) -> float:
    """``sum_j w_j h(x, xi_j)`` under a discrete distribution."""
    return float(dist.weights @ cf.atom_costs(dist.grid, x))


def cost_table(cf: CostFunction, grid: SupportGrid, space: DecisionSpace) -> np.ndarray:
    """Matrix H[k, j] = h(x_k, xi_j) over decision grid x atom grid."""
    return np.vstack([cf.atom_costs(grid, x) for x in space])


def with_lipschitz_scale(cf: CostFunction, scale: float) -> CostFunction:
    """Scale the declared Lipschitz constants (falsification hook).

    A scale below one corrupts the metadata so bound-verification runs can
    demonstrate that violated inequalities are actually detected.
    """
    lip_xi = (lambda x, _f=cf.lip_in_xi: scale * _f(x)) if cf.lip_in_xi else None
    lip_x = (lambda xi, _f=cf.lip_in_x: scale * _f(xi)) if cf.lip_in_x else None
    return CostFunction(cf.name, cf.fn, lip_xi, lip_x, cf.nonneg)


def measured_lipschitz_in_xi(cf: CostFunction, grid: SupportGrid, x) -> float:
    """Largest finite-difference quotient of h(x, .) over atom pairs."""
    vals = cf.atom_costs(grid, x)
    apart = grid.ground_metric > 0.0
    quotients = np.abs(vals[:, None] - vals[None, :])[apart] / grid.ground_metric[apart]
    return float(np.max(quotients, initial=0.0))


def validate_cost(cf: CostFunction, grid: SupportGrid, space: DecisionSpace) -> None:
    """Exhaustive desk-scale check of the declared metadata.

    Verifies nonnegativity when flagged and that declared Lipschitz constants
    dominate observed finite differences over grid x decision-grid.
    """
    table = cost_table(cf, grid, space)
    if cf.nonneg and np.min(table) < -1e-12:
        raise ValueError(f"cost {cf.name!r} is flagged nonnegative but attains {np.min(table)}")
    # Each check compares |h(a) - h(b)| with bound * distance(a, b) over all
    # pairs; the first offender in (row, a, b) order is reported.
    if cf.lip_in_xi is not None:
        bounds = [cf.lip_in_xi(x) for x in space]
        gaps = np.abs(table[:, :, None] - table[:, None, :])
        beaten = gaps > np.array(bounds)[:, None, None] * grid.ground_metric * (1.0 + 1e-9) + 1e-12
        if beaten.any():
            k, i, j = np.argwhere(beaten)[0]
            raise ValueError(f"declared lip_in_xi({space[k].tolist()})={bounds[k]} is beaten by atoms ({i},{j})")
    if cf.lip_in_x is not None:
        bounds = [cf.lip_in_x(atom) for atom in grid.atoms]
        steps = np.linalg.norm(space.points[:, None, :] - space.points[None, :, :], axis=2)
        gaps = np.abs(table.T[:, :, None] - table.T[:, None, :])
        beaten = gaps > np.array(bounds)[:, None, None] * steps * (1.0 + 1e-9) + 1e-12
        if beaten.any():
            j, a, b = np.argwhere(beaten)[0]
            raise ValueError(f"declared lip_in_x(atom {j})={bounds[j]} is beaten by decisions ({a},{b})")


# ---------------------------------------------------------------------------
# Built-in cost families


def _absolute(grid=None, space=None) -> CostFunction:
    return CostFunction(
        "absolute",
        lambda x, xi: float(np.linalg.norm(x - xi)),
        lip_in_xi=lambda x: 1.0,
        lip_in_x=lambda xi: 1.0,
        nonneg=True,
    )


def _squared(grid: SupportGrid | None = None, space: DecisionSpace | None = None) -> CostFunction:
    # Unbounded globally; the gradient bound over the modeled grids gives
    # valid grid-restricted constants: 2 * max distance to an atom/decision.
    def lip_xi(x):
        if grid is None:
            raise MissingLipschitzDataError("squared cost needs a grid for lip_in_xi")
        return 2.0 * float(np.max(np.linalg.norm(grid.atoms - _as_decision(x)[None, :], axis=1)))

    def lip_x(xi):
        if space is None:
            raise MissingLipschitzDataError("squared cost needs a decision space for lip_in_x")
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return 2.0 * float(np.max(np.linalg.norm(space.points - xi[None, :], axis=1)))

    return CostFunction(
        "squared",
        lambda x, xi: float(np.sum((x - xi) ** 2)),
        lip_in_xi=lip_xi,
        lip_in_x=lip_x,
        nonneg=True,
    )


def _newsvendor(grid=None, space=None, b: float = 1.0, c: float = 1.0) -> CostFunction:
    if b < 0 or c < 0:
        raise ValueError("newsvendor penalties must be nonnegative")
    lip = float(max(b, c))

    def fn(x, xi):
        short = float(xi[0] - x[0])
        return b * max(short, 0.0) + c * max(-short, 0.0)

    return CostFunction("newsvendor", fn, lambda x: lip, lambda xi: lip, nonneg=True)


def _huber(grid=None, space=None, delta: float = 1.0) -> CostFunction:
    if delta <= 0:
        raise ValueError("huber threshold must be positive")

    def fn(x, xi):
        u = float(np.linalg.norm(x - xi))
        if u <= delta:
            return 0.5 * u * u
        return delta * (u - 0.5 * delta)

    return CostFunction("huber", fn, lambda x: delta, lambda xi: delta, nonneg=True)


def _linreg(grid: SupportGrid | None = None, space: DecisionSpace | None = None) -> CostFunction:
    # xi = (feature, response), scalar slope decision: h = (response - x*feature)^2.
    def fn(x, xi):
        return float((xi[1] - x[0] * xi[0]) ** 2)

    def lip_xi(x):
        if grid is None:
            raise MissingLipschitzDataError("linreg cost needs a grid for lip_in_xi")
        s = float(_as_decision(x)[0])
        resid = np.abs(grid.atoms[:, 1] - s * grid.atoms[:, 0])
        return 2.0 * float(np.sqrt(1.0 + s * s) * np.max(resid))

    def lip_x(xi):
        if space is None:
            raise MissingLipschitzDataError("linreg cost needs a decision space for lip_in_x")
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        resid = np.abs(xi[1] - space.points[:, 0] * xi[0])
        return 2.0 * float(abs(xi[0]) * np.max(resid))

    return CostFunction("linreg", fn, lip_xi, lip_x, nonneg=True)


_BUILTINS: dict[str, Callable[..., CostFunction]] = {
    "absolute": _absolute,
    "squared": _squared,
    "newsvendor": _newsvendor,
    "huber": _huber,
    "linreg": _linreg,
}


def builtin_costs() -> dict[str, Callable[..., CostFunction]]:
    """Registry of built-in cost factories, keyed by name."""
    return dict(_BUILTINS)


def make_cost(
    name: str,
    grid: SupportGrid | None = None,
    space: DecisionSpace | None = None,
    params: dict | None = None,
) -> CostFunction:
    """Instantiate a built-in cost by name with its parameter object."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown cost {name!r}; available: {sorted(_BUILTINS)}") from None
    return factory(grid=grid, space=space, **(params or {}))


def cost_from_json(doc: dict, grid: SupportGrid, space: DecisionSpace) -> CostFunction:
    """Build ``{"name", "params", "lip_scale"}``; errors point at ``/cost``."""
    try:
        cf = make_cost(doc["name"], grid=grid, space=space, params=doc.get("params"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"/cost: {exc}") from exc
    scale = doc.get("lip_scale")
    if scale is not None and scale != 1.0:
        cf = with_lipschitz_scale(cf, float(scale))
    return cf
