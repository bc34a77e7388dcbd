"""Cost functions, decision spaces, regularizers, and Lipschitz metadata.

Lipschitz constants here are grid-restricted: they bound the cost's variation
over the finite atom grid (respectively the finite decision grid), which is
all the deviation bounds ever evaluate.  The built-in constants assume the
default Euclidean ground metric.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
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
        pts = np.array(self.points, dtype=float)  # a copy: frozen below
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("decision space must hold at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("decision points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, points) -> "DecisionSpace":
        return cls(np.asarray(points, dtype=float))

    @classmethod
    def interval(cls, lo: float, hi: float, num: int) -> "DecisionSpace":
        """Evenly discretized 1-D interval with ``num`` grid points; an
        integral float such as ``4.0`` counts as the integer, as in JSON."""
        if not float(num).is_integer():
            raise ValueError(f"interval discretization needs a whole number of points, got {num!r}")
        if num < 1:
            raise ValueError("interval discretization needs at least one point")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval ends must be finite")
        if hi < lo:
            raise ValueError("interval upper end below lower end")
        return cls(np.linspace(lo, hi, int(num))[:, None])

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

    ``table(points, atoms)`` evaluates the cost over a whole decision grid x
    atom grid: ``points`` is (k, l), ``atoms`` is (m, d), and the result is
    the (k, m) array ``H[i, j] = h(points[i], atoms[j])``, unchecked.  The
    built-ins are made by :meth:`vectorised` from one array formula
    (``table_fn``), and their scalar ``fn`` is the 1x1 view of it.  A cost
    built from a scalar ``fn`` alone gets a table that loops over ``fn``.

    ``lip_in_xi`` maps a decision x to a constant dominating the variation of
    ``h(x, .)`` between grid atoms per unit of ground distance; ``lip_in_x``
    maps an atom xi to a constant dominating the variation of ``h(., xi)``
    between decisions per unit of Euclidean distance.  ``nonneg`` declares
    ``h >= 0`` on the modeled grids.

    A cost function keeps each checked table :func:`cost_table` builds,
    read-only and keyed by the content of the decision points and atoms, for
    as long as it lives, so a repeated table costs no second evaluation.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], float]
    lip_in_xi: Callable[[np.ndarray], float] | None = None
    lip_in_x: Callable[[np.ndarray], float] | None = None
    nonneg: bool = False
    table_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    # Checked tables of :func:`cost_table`, keyed by the shapes and bytes of
    # the decision points and the atoms.  ``dataclasses.replace`` starts a
    # new cost with an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def vectorised(
        cls,
        name: str,
        table_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        lip_in_xi: Callable[[np.ndarray], float] | None = None,
        lip_in_x: Callable[[np.ndarray], float] | None = None,
        nonneg: bool = False,
    ) -> "CostFunction":
        """A cost given by its table formula; ``fn`` is the formula's 1x1 case."""

        def fn(x, xi):
            return float(table_fn(x[None, :], xi[None, :])[0, 0])

        return cls(name, fn, lip_in_xi, lip_in_x, nonneg, table_fn)

    def __call__(self, x, xi) -> float:
        return float(self.fn(_as_decision(x), np.atleast_1d(np.asarray(xi, dtype=float))))

    def table(self, points: np.ndarray, atoms: np.ndarray) -> np.ndarray:
        """(k, m) array of h over decisions (k, l) x atoms (m, d), unchecked."""
        if self.table_fn is not None:
            return self.table_fn(points, atoms)
        return np.array([[self.fn(x, xi) for xi in atoms] for x in points], dtype=float)

    def atom_costs(self, grid: SupportGrid, x) -> np.ndarray:
        """Vector of h(x, xi_j) over the grid atoms, checked finite."""
        return _checked_table(self, _as_decision(x)[None, :], grid.atoms)[0]


@dataclass(frozen=True)
class Regularizer:
    """Decision penalty ``f(x)``.

    ``values_fn``, when given, is the batched form of ``fn``, as
    ``CostFunction.table_fn`` is of a cost's ``fn``: it maps a whole
    :class:`DecisionSpace` to the array of every decision's penalty, equal
    bit for bit to ``fn`` at each one.  :meth:`values` reads it; a
    regularizer built from ``fn`` alone loops over ``fn``.
    """

    fn: Callable[[np.ndarray], float]
    values_fn: Callable[[DecisionSpace], np.ndarray] | None = None

    def __call__(self, x) -> float:
        val = float(self.fn(_as_decision(x)))
        if not np.isfinite(val):
            raise NonFiniteCostError(f"regularizer is not finite at x={x!r}")
        return val

    def values(self, space: DecisionSpace) -> np.ndarray:
        """``[f(x) for x in space]`` as one array, checked finite."""
        if self.values_fn is None:
            return np.array([self(x) for x in space], dtype=float)
        vals = np.asarray(self.values_fn(space), dtype=float)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise NonFiniteCostError(f"regularizer is not finite at x={space[bad[0]]!r}")
        return vals


def expected_cost(dist, cf: CostFunction, x) -> float:
    """``sum_j w_j h(x, xi_j)`` under a discrete distribution."""
    return float(dist.weights @ cf.atom_costs(dist.grid, x))


def cost_table(cf: CostFunction, grid: SupportGrid, space: DecisionSpace) -> np.ndarray:
    """Matrix H[k, j] = h(x_k, xi_j) over decision grid x atom grid, checked finite.

    ``cf`` keeps the table, read-only, for as long as it lives, keyed by the
    content of ``space.points`` and ``grid.atoms``: equal grids and decision
    grids held in other objects share it, and a repeat evaluates nothing.  A
    table that is not finite raises on every call and is not kept.
    """
    points, atoms = space.points, grid.atoms
    key = (points.shape, points.tobytes(), atoms.shape, atoms.tobytes())
    table = cf._memo.get(key)
    if table is None:
        table = np.array(_checked_table(cf, points, atoms))  # a copy: frozen below
        table.setflags(write=False)
        cf._memo[key] = table
    return table


def _checked_table(cf: CostFunction, points: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    table = cf.table(points, atoms)
    if np.isfinite(table).all():
        return table
    k, j = np.argwhere(~np.isfinite(table))[0]
    raise NonFiniteCostError(f"cost {cf.name!r} is not finite at x={points[k].tolist()}, atom index {int(j)}")


def with_lipschitz_scale(cf: CostFunction, scale: float) -> CostFunction:
    """Scale the declared Lipschitz constants (falsification hook).

    A scale below one corrupts the metadata so bound-verification runs can
    demonstrate that violated inequalities are actually detected.
    """
    lip_xi = (lambda x, _f=cf.lip_in_xi: scale * _f(x)) if cf.lip_in_xi else None
    lip_x = (lambda xi, _f=cf.lip_in_x: scale * _f(xi)) if cf.lip_in_x else None
    return replace(cf, lip_in_xi=lip_xi, lip_in_x=lip_x)


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


def _distances(points: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Euclidean |x - xi| per cell.

    One dot product per cell, as ``np.linalg.norm`` of a vector takes it, so
    a cell's value does not depend on the grid around it; a sum over the last
    axis would reorder the reduction and move d >= 2 values by an ulp.
    """
    diff = points[:, None, :] - atoms[None, :, :]
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def _absolute(grid=None, space=None) -> CostFunction:
    return CostFunction.vectorised(
        "absolute",
        _distances,
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

    return CostFunction.vectorised(
        "squared",
        lambda points, atoms: np.sum((points[:, None, :] - atoms[None, :, :]) ** 2, axis=-1),
        lip_in_xi=lip_xi,
        lip_in_x=lip_x,
        nonneg=True,
    )


def _newsvendor(grid=None, space=None, b: float = 1.0, c: float = 1.0) -> CostFunction:
    lip = float(max(b, c))

    def table(points, atoms):
        short = atoms[None, :, 0] - points[:, None, 0]
        return b * np.maximum(short, 0.0) + c * np.maximum(-short, 0.0)

    return CostFunction.vectorised("newsvendor", table, lambda x: lip, lambda xi: lip, nonneg=True)


def _huber(grid=None, space=None, delta: float = 1.0) -> CostFunction:
    def table(points, atoms):
        u = _distances(points, atoms)
        return np.where(u <= delta, 0.5 * u * u, delta * (u - 0.5 * delta))

    return CostFunction.vectorised("huber", table, lambda x: delta, lambda xi: delta, nonneg=True)


def _linreg(grid: SupportGrid | None = None, space: DecisionSpace | None = None) -> CostFunction:
    # xi = (feature, response), scalar slope decision: h = (response - x*feature)^2.
    def table(points, atoms):
        r = atoms[None, :, 1] - points[:, None, 0] * atoms[None, :, 0]
        return r * r

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

    return CostFunction.vectorised("linreg", table, lip_xi, lip_x, nonneg=True)


# Each built-in cost: its factory; each parameter it takes, with the least
# value it admits and whether that value is excluded; and a test of the
# (decision, atom) dimensions it reads, None for any.  newsvendor reads the
# first coordinate of each side, and linreg a slope on (feature, response) atoms.
_BUILTINS = {
    "absolute": (_absolute, {}, operator.eq),
    "squared": (_squared, {}, operator.eq),
    "newsvendor": (_newsvendor, {"b": (0.0, False), "c": (0.0, False)}, None),
    "huber": (_huber, {"delta": (0.0, True)}, operator.eq),
    "linreg": (_linreg, {}, lambda x_dim, atom_dim: atom_dim == 2),
}


def builtin_costs() -> dict[str, Callable[..., CostFunction]]:
    """Registry of built-in cost factories, keyed by name."""
    return {name: factory for name, (factory, _, _) in _BUILTINS.items()}


def make_cost(
    name: str,
    grid: SupportGrid | None = None,
    space: DecisionSpace | None = None,
    params: dict | None = None,
) -> CostFunction:
    """Instantiate a built-in cost by name with its parameter object.

    A parameter the cost does not take, or out of range, raises
    :class:`ConfigError` at ``/params/<key>``; given a grid and a space,
    dimensions the cost does not read raise ``ValueError``.
    """
    if name not in _BUILTINS:
        raise KeyError(f"unknown cost {name!r}; available: {sorted(_BUILTINS)}")
    factory, takes, reads = _BUILTINS[name]
    for key, value in (params or {}).items():
        if key not in takes:
            raise ConfigError(f"/params/{key}: {name} reads {list(takes) or 'no parameters'}, not {key!r}")
        lo, above = takes[key]
        if not (value > lo or (value == lo and not above)):
            raise ConfigError(f"/params/{key}: {value!r} must be {'>' if above else '>='} {lo:g}")
    if reads and grid is not None and space is not None and not reads(space.points.shape[1], grid.dim):
        raise ValueError(f"{name} does not read {space.points.shape[1]}-D decisions on {grid.dim}-D atoms")
    return factory(grid=grid, space=space, **(params or {}))


def cost_from_json(doc: dict, grid: SupportGrid, space: DecisionSpace) -> CostFunction:
    """Build ``{"name", "params", "lip_scale"}``; errors point at ``/cost``."""
    try:
        cf = make_cost(doc.get("name"), grid=grid, space=space, params=doc.get("params"))
    except (KeyError, ValueError) as exc:  # a ConfigError points into the cost document
        raise ConfigError(f"/cost{'' if isinstance(exc, ConfigError) else ': '}{exc.args[0]}") from exc
    scale = doc.get("lip_scale")
    if scale is not None and scale != 1.0:
        cf = with_lipschitz_scale(cf, float(scale))
    return cf
