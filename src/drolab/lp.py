"""Dense two-phase simplex for the tiny linear programs this package builds.

Every LP solved here has at most a few hundred nonnegative variables and a
couple dozen rows (transport plans, ball-constrained expectations, moment
feasibility), so a dense tableau with Bland's anti-cycling rule is both fast
enough and free of external solver dependencies.  Feasibility tolerance is
1e-9 throughout.

The entering-column scan, the ratio test and the elimination are vectorised
over the tableau, but they pick the same pivots and do the same floating-point
operations as an element-by-element loop (kept in the tests as the reference),
so every result is bit-identical to it.  :func:`solve_lp` also takes a stack of
objectives over one feasible set: phase 1 runs once, and each objective's
phase 2 starts from a copy of the same tableau, so each row of the result has
the bits of a lone solve.
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
    x: np.ndarray | None  # (n,), or (k, n) for k objectives
    value: float | np.ndarray | None  # a float, or (k,) for k objectives
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, row: int, col: int, rows: np.ndarray) -> None:
    """Scale ``row`` to a unit pivot and eliminate ``col`` from ``rows``.

    ``rows`` are the other rows with a nonzero entry in ``col``: subtracting a
    zero multiple from the rest would still flip the sign of their zero entries.
    """
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    sub = tableau.take(rows, axis=0)
    sub -= sub[:, col, None] * pivot_row
    tableau[rows] = sub


def _simplex(tableau: np.ndarray, basis: np.ndarray, costs: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Run Bland-rule simplex iterations in place; returns (status, iterations)."""
    body, rhs = tableau[:, :-1], tableau[:, -1]
    order = basis.tolist()
    basic_costs = costs[basis]
    for it in range(max_iter):
        improving = costs - basic_costs @ body < -FEASIBILITY_TOL
        entering = int(improving.argmax())
        if not improving[entering]:
            status = "optimal"
            break
        col = body[:, entering]
        # solve_lp takes finite data only, so no entry is NaN unless one
        # overflowed: the nonzero entries are those with |x| > 0, the rows
        # the elimination touches, and the ratio-test candidates among them.
        touched = col.nonzero()[0]
        entries = col[touched]
        positive = (entries > _PIVOT_TOL).nonzero()[0]
        candidates = touched[positive]
        if candidates.size == 1:
            # The scan below keeps a lone candidate iff its ratio is finite.
            leaving = int(candidates[0]) if rhs[candidates[0]] / entries[positive[0]] < np.inf else -1
        else:
            # Scan the candidates in row order: "within the tolerance of the
            # best so far" is not transitive, so an argmin can pick another row.
            leaving = -1
            best_ratio = np.inf
            for i, ratio in zip(candidates.tolist(), (rhs[candidates] / entries[positive]).tolist()):
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL and leaving >= 0 and order[i] < order[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            status = "unbounded"
            break
        _pivot(tableau, leaving, entering, touched[touched != leaving])
        order[leaving] = entering
        basic_costs[leaving] = costs[entering]
    else:
        raise LPFailureError(f"simplex did not terminate within {max_iter} iterations")
    basis[:] = order
    return status, it


def solve_lp(
    c,
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
) -> LPResult:
    """Minimize ``c @ x`` over ``x >= 0`` with ``a_eq x = b_eq`` and ``a_ub x <= b_ub``.

    All variables are nonnegative; callers encode free variables themselves
    (none of the programs in this package need them).  Every entry of the
    data must be finite.

    ``c`` may also be a (k, n) stack of objectives over the one feasible set.
    Phase 1, the drive-out of artificials and the row drop then run once, and
    phase 2 runs for each objective on its own copy of the tableau.  The
    result's ``x`` is (k, n) and its ``value`` (k,), row for row the bits of a
    lone solve; ``iterations`` counts every pivot made (phase 1 once, every
    phase 2), and the status is ``"optimal"`` only if every objective's is
    (``"unbounded"`` otherwise, with no ``x`` or ``value``).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[0] == 0:
        raise ValueError("objective must be a vector or a (k, n) stack of k >= 1 vectors")
    n = c.shape[-1]
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
    if not (np.isfinite(c).all() and np.isfinite(full).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
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
    status, iterations = _simplex(tableau, basis, phase1_costs, cap)
    if status != "optimal":
        raise LPFailureError(f"phase 1 ended with status {status!r}")
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    infeas = float(phase1_costs[basis] @ tableau[:, -1])
    if infeas > FEASIBILITY_TOL * scale * 10.0:
        return LPResult("infeasible", None, None, iterations)

    # Drive artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_struct:
            candidates = np.flatnonzero(np.abs(tableau[i, :n_struct]) > 1e-8)
            if candidates.size == 0:
                keep[i] = False
                continue
            touched = np.flatnonzero(tableau[:, candidates[0]])
            _pivot(tableau, i, candidates[0], touched[touched != i])
            basis[i] = candidates[0]
    tableau = np.hstack([tableau[keep][:, :n_struct], tableau[keep][:, -1:]])
    basis = basis[keep]
    tableau[:, -1] = np.maximum(tableau[:, -1], 0.0)

    objectives = np.atleast_2d(c)
    xs = []
    for k, objective in enumerate(objectives):
        # The last objective runs on the tableau itself, the others on copies.
        if k < len(objectives) - 1:
            tab, bas = tableau.copy(), basis.copy()
        else:
            tab, bas = tableau, basis
        status, it2 = _simplex(tab, bas, np.concatenate([objective, np.zeros(n_ub)]), cap)
        iterations += it2
        if status == "unbounded":
            xs = None
        elif xs is not None:
            x_full = np.zeros(n_struct)
            x_full[bas] = tab[:, -1]
            x_full[np.abs(x_full) < 1e-14] = 0.0
            xs.append(x_full[:n])
    if xs is None:
        return LPResult("unbounded", None, None, iterations)
    if c.ndim == 1:
        return LPResult("optimal", xs[0], float(c @ xs[0]), iterations)
    return LPResult("optimal", np.array(xs), np.array([float(ck @ x) for ck, x in zip(c, xs)]), iterations)
