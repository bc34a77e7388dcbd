"""Dense two-phase simplex for the tiny linear programs this package builds.

Every LP solved here has at most a few hundred nonnegative variables and a
couple dozen rows (transport plans, ball-constrained expectations, moment
feasibility), so a dense tableau with Bland's anti-cycling rule is both fast
enough and free of external solver dependencies.  Feasibility tolerance is
1e-9 throughout.

The entering-column scan, the ratio test and the elimination are vectorised
over the tableau, but they pick the same pivots and do the same floating-point
operations as an element-by-element loop (kept in the tests as the reference),
so every result is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
_PIVOT_TOL = 1e-10


class LPFailureError(RuntimeError):
    """Numerical failure inside the simplex (distinct from infeasibility)."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Scale ``row`` to a unit pivot and eliminate ``col`` from the other rows.

    Only rows with a nonzero entry in ``col`` change: subtracting a zero
    multiple would still flip the sign of their zero entries.
    """
    tableau[row] /= tableau[row, col]
    touched = np.abs(tableau[:, col]) > 0.0
    touched[row] = False
    rows = touched.nonzero()[0]
    tableau[rows] -= np.multiply.outer(tableau[rows, col], tableau[row])


def _simplex(tableau: np.ndarray, basis: np.ndarray, costs: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Run Bland-rule simplex iterations in place; returns (status, iterations)."""
    ncols = tableau.shape[1] - 1
    for it in range(max_iter):
        reduced = costs - costs[basis] @ tableau[:, :ncols]
        improving = reduced < -FEASIBILITY_TOL
        entering = int(improving.argmax())
        if not improving[entering]:
            return "optimal", it
        col = tableau[:, entering]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        ratios = tableau[rows, -1] / col[rows]
        # Scan the candidates in row order: "within the tolerance of the best
        # so far" is not transitive, so an argmin can pick another row.
        leaving = -1
        best_ratio = np.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL and leaving >= 0 and basis[i] < basis[leaving]
            ):
                best_ratio = ratio
                leaving = i
        if leaving < 0:
            return "unbounded", it
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise LPFailureError(f"simplex did not terminate within {max_iter} iterations")


def solve_lp(
    c,
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
) -> LPResult:
    """Minimize ``c @ x`` over ``x >= 0`` with ``a_eq x = b_eq`` and ``a_ub x <= b_ub``.

    All variables are nonnegative; callers encode free variables themselves
    (none of the programs in this package need them).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    blocks = []
    n_ub = 0
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        blocks.append((a_eq, b_eq))
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        n_ub = a_ub.shape[0]
        blocks.append((a_ub, b_ub))
    if not blocks:
        raise ValueError("at least one constraint block is required")
    for mat, vec in blocks:
        if mat.shape[1] != n:
            raise ValueError("constraint matrix width does not match objective length")
        if mat.shape[0] != vec.size:
            raise ValueError("constraint rhs length does not match matrix")
    b = np.concatenate([vec for _, vec in blocks])
    m = b.size

    # Slack columns for the <= rows (the last n_ub), then flip rows to make
    # the rhs nonnegative.
    slack = np.vstack([np.zeros((m - n_ub, n_ub)), np.eye(n_ub)])
    full = np.hstack([np.vstack([mat for mat, _ in blocks]), slack])
    flip = b < 0.0
    full[flip] *= -1.0
    b[flip] = -b[flip]
    n_struct = n + n_ub

    # Phase 1: artificial basis, minimize the artificial mass.
    art = np.eye(m)
    tableau = np.hstack([full, art, b[:, None]])
    basis = np.arange(n_struct, n_struct + m)
    phase1_costs = np.concatenate([np.zeros(n_struct), np.ones(m)])
    cap = 200 * (n_struct + m + 10)
    status, it1 = _simplex(tableau, basis, phase1_costs, cap)
    if status != "optimal":
        raise LPFailureError(f"phase 1 ended with status {status!r}")
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    infeas = float(phase1_costs[basis] @ tableau[:, -1])
    if infeas > FEASIBILITY_TOL * scale * 10.0:
        return LPResult("infeasible", None, None, it1)

    # Drive artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_struct:
            candidates = np.flatnonzero(np.abs(tableau[i, :n_struct]) > 1e-8)
            if candidates.size == 0:
                keep[i] = False
                continue
            _pivot(tableau, i, candidates[0])
            basis[i] = candidates[0]
    tableau = np.hstack([tableau[keep][:, :n_struct], tableau[keep][:, -1:]])
    basis = basis[keep]
    tableau[:, -1] = np.maximum(tableau[:, -1], 0.0)

    phase2_costs = np.concatenate([c, np.zeros(n_ub)])
    status, it2 = _simplex(tableau, basis, phase2_costs, cap)
    if status == "unbounded":
        return LPResult("unbounded", None, None, it1 + it2)
    if status != "optimal":
        raise LPFailureError(f"phase 2 ended with status {status!r}")

    x_full = np.zeros(n_struct)
    x_full[basis] = tableau[:, -1]
    x_full[np.abs(x_full) < 1e-14] = 0.0
    x = x_full[:n]
    return LPResult("optimal", x, float(c @ x), it1 + it2)
