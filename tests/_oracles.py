"""Independent brute-force oracles for the test suite.

Nothing here touches the package's dual machinery, and only
:func:`absolute_dro_lp_sweep` (below) its LP solver: transport
problems are solved by exhaustive search over discretized coupling grids and
enumerated polytope corners, and order-1 distances by enumerating the
vertices of the potential polytope.  Values frozen into tests come from
these.  Worst- and best-case expectations over Wasserstein balls also have
their primal coupling LP here, solved by SciPy's HiGHS, as the reference for
the package's dual oracle.  The loop-by-loop Bland simplex that
:mod:`drolab.lp` vectorised is kept here as :func:`bland_lp_reference`, which
the package's solver must match bit for bit, and the per-ball bracketed
``brentq`` solve of the KL tilting dual that :mod:`drolab.divergence`
batched is kept as :func:`kl_extremal_brentq`.  The built-in costs' scalar
formulas, which :mod:`drolab.cost` replaced by array formulas over the whole
decision x atom grid, are kept as :func:`scalar_cost` and evaluated cell by
cell in :func:`scalar_cost_table`.  The absolute-DRO sweep that ran the
package's coupling LP on every decision row, which the solver now screens
by the exact dual first, is kept as :func:`absolute_dro_lp_sweep`, over
:func:`absolute_deviation`: the one-call two-sided deviation that solved the
coupling LP on positive-radius Wasserstein balls and fell back to the dual
elsewhere, which the package split into the solver's LP step and
``divergence.deviation_table``.  The solver's former one-call rate step,
whose one caller always asked for the two-sided zero-slack rate, is kept as
:func:`deviation_rate_profile`.  The
loop of ``robustness.set_robustness`` that built and evaluated one candidate
distribution at a time, which the package replaced by one batched pass, is
kept as :func:`set_robustness_loop`.  The
config validator that ran a JSON Schema (``tests/data/config.schema.json``)
through ``jsonschema`` and then checked method entries against
``experiment.METHODS``, which the package replaced by plain-Python checks, is
kept as :func:`validate_config_jsonschema`.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import logsumexp

from drolab.cost import cost_table
from drolab.divergence import (
    AmbiguityBall,
    DivergenceKind,
    deviations_from,
    extremal_expectation,
    extremal_values,
)
from drolab.experiment import METHODS
from drolab.lp import FEASIBILITY_TOL, LPFailureError, LPResult, solve_lp
from drolab.robustness import RobustnessReport, _toward_dirac
from drolab.solvers import Solution
from drolab.support import ConfigError, DiscreteDistribution, rng_from_seed

_PIVOT_TOL = 1e-10


def rational_weights(rng: np.random.Generator, m: int, denominator: int) -> np.ndarray:
    """A random weight vector whose entries are multiples of 1/denominator.

    With rational marginals every transportation-polytope vertex lies on the
    same rational lattice, so a coupling grid with that step contains an
    exact optimizer.
    """
    cuts = np.sort(rng.integers(0, denominator + 1, size=m - 1))
    counts = np.diff(np.concatenate([[0], cuts, [denominator]]))
    return counts / denominator


def transport_grid_search(a: np.ndarray, b: np.ndarray, cost: np.ndarray, resolution: int) -> float:
    """Minimum coupling cost over a 3x3 transport polytope, by grid search.

    Free cells (0,0), (0,1), (1,0), (1,1) scan multiples of 1/resolution; the
    remaining cells follow from the marginals.  Exact when the marginals are
    multiples of 1/resolution.
    """
    assert a.size == 3 and b.size == 3
    step = np.arange(resolution + 1) / resolution
    p00, p01, p10, p11 = np.meshgrid(step, step, step, step, indexing="ij", sparse=True)
    p02 = a[0] - p00 - p01
    p12 = a[1] - p10 - p11
    p20 = b[0] - p00 - p10
    p21 = b[1] - p01 - p11
    p22 = a[2] - p20 - p21
    feasible = (p02 >= -1e-12) & (p12 >= -1e-12) & (p20 >= -1e-12) & (p21 >= -1e-12) & (p22 >= -1e-12)
    total = (
        cost[0, 0] * p00 + cost[0, 1] * p01 + cost[0, 2] * p02
        + cost[1, 0] * p10 + cost[1, 1] * p11 + cost[1, 2] * p12
        + cost[2, 0] * p20 + cost[2, 1] * p21 + cost[2, 2] * p22
    )
    total = np.where(feasible, total, np.inf)
    return float(np.min(total))


def transport_vertex_search(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Minimum coupling cost by enumerating basic solutions of the polytope."""
    m = a.size
    cells = [(i, j) for i in range(m) for j in range(m)]
    rows = np.zeros((2 * m, len(cells)))
    for k, (i, j) in enumerate(cells):
        rows[i, k] = 1.0
        rows[m + j, k] = 1.0
    rhs = np.concatenate([a, b])
    best = math.inf
    for support in itertools.combinations(range(len(cells)), 2 * m - 1):
        sub = rows[:, support]
        sol, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        if np.max(np.abs(sub @ sol - rhs)) > 1e-9 or np.min(sol) < -1e-10:
            continue
        value = float(sum(cost[cells[k]] * sol[t] for t, k in enumerate(support)))
        best = min(best, value)
    return best


def w1_dual_vertices(metric: np.ndarray) -> np.ndarray:
    """Vertices of the potential polytope {f: |f_i - f_j| <= d_ij, f_last = 0}.

    By duality the order-1 transport distance between any two distributions
    is the maximum of f . (p - q) over this polytope, so precomputing the
    vertices turns distance evaluation into one matrix product.
    """
    m = metric.shape[0]
    dim = m - 1
    constraints = []  # (normal vector over f_0..f_{m-2}, offset): normal.f <= offset
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            normal = np.zeros(dim)
            if i < dim:
                normal[i] += 1.0
            if j < dim:
                normal[j] -= 1.0
            constraints.append((normal, metric[i, j]))
    normals = np.array([c[0] for c in constraints])
    offsets = np.array([c[1] for c in constraints])
    vertices = []
    for combo in itertools.combinations(range(len(constraints)), dim):
        sub = normals[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        f = np.linalg.solve(sub, offsets[list(combo)])
        if np.all(normals @ f <= offsets + 1e-9):
            vertices.append(np.concatenate([f, [0.0]]))
    return np.unique(np.round(np.array(vertices), 12), axis=0)


def w1_from_dual(vertices: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    return float(np.max(vertices @ (p - q)))


def w1_from_dual_many(vertices: np.ndarray, ps: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Order-1 distances from each row of ``ps`` to ``q`` in one product."""
    return np.max((ps - q[None, :]) @ vertices.T, axis=1)


def simplex_grid(m: int, resolution: int) -> np.ndarray:
    """All weight vectors with entries on multiples of 1/resolution."""
    out = []
    for combo in itertools.combinations_with_replacement(range(m), resolution):
        counts = np.bincount(np.array(combo), minlength=m)
        out.append(counts / resolution)
    return np.unique(np.array(out), axis=0)


def ball_vertex_candidates(
    center: np.ndarray, metric: np.ndarray, order: float, eps: float
) -> np.ndarray:
    """Row marginals of corners of the budgeted reassignment polytope.

    The feasible set {pi >= 0, column sums = center, sum pi d^order <= eps^order}
    attains every linear optimum at a corner; corners either leave the budget
    slack (one destination per column) or tie it (supports of size m+1).
    """
    m = center.size
    dist_pow = metric**order
    budget = eps**order
    candidates = []
    # Slack-budget corners: each column's mass goes to a single destination.
    for assignment in itertools.product(range(m), repeat=m):
        total = sum(dist_pow[assignment[j], j] * center[j] for j in range(m))
        if total <= budget + 1e-12:
            p = np.zeros(m)
            for j in range(m):
                p[assignment[j]] += center[j]
            candidates.append(p)
    # Tight-budget corners: m column equations plus the budget equation.
    cells = [(i, j) for i in range(m) for j in range(m)]
    eqs = np.zeros((m + 1, len(cells)))
    for k, (i, j) in enumerate(cells):
        eqs[j, k] = 1.0
        eqs[m, k] = dist_pow[i, j]
    rhs = np.concatenate([center, [budget]])
    for support in itertools.combinations(range(len(cells)), m + 1):
        sub = eqs[:, support]
        try:
            sol = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.min(sol) < -1e-10 or np.max(np.abs(sub @ sol - rhs)) > 1e-9:
            continue
        p = np.zeros(m)
        for t, k in enumerate(support):
            p[cells[k][0]] += sol[t]
        candidates.append(np.maximum(p, 0.0))
    return np.array(candidates)


def kl_divergence_vec(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _kl_log_partition(log_w: np.ndarray, shifted: np.ndarray, lam: float) -> float:
    return float(logsumexp(log_w + shifted / lam))


def _kl_tilt(weights: np.ndarray, supp: np.ndarray, shifted: np.ndarray, lam: float) -> np.ndarray:
    log_w = np.log(weights[supp])
    log_t = log_w + shifted / lam
    log_t -= logsumexp(log_t)
    tilt = np.zeros_like(weights)
    tilt[supp] = np.exp(log_t)
    return tilt


def kl_extremal_brentq(ball: AmbiguityBall, costs: np.ndarray, maximize: bool) -> tuple[float, DiscreteDistribution]:
    """Extremal expectation over a forward-KL ball, one bracketed ``brentq``
    root of ``KL(tilt) = eps`` in ``lam`` per call."""
    center = ball.center
    eps = ball.radius
    c = costs if maximize else -costs
    supp = center.support_indices()
    w = center.weights[supp]
    cs = c[supp]
    top = float(np.max(cs))
    if top - float(np.min(cs)) < 1e-15:
        return (float(center.expectation(costs)), center)
    # Saturation: the cheapest way to pin the expectation at the top value is
    # the center conditioned on its argmax atoms.
    arg_top = cs >= top - 1e-15
    sat_eps = -math.log(float(np.sum(w[arg_top])))
    if eps >= sat_eps:
        tilt = np.zeros_like(center.weights)
        tilt[supp[arg_top]] = w[arg_top] / float(np.sum(w[arg_top]))
        witness = DiscreteDistribution(center.grid, tilt)
        value = top if maximize else -top
        return value, witness

    log_w = np.log(w)
    shifted = cs - top

    def kl_at(lam: float) -> float:
        log_z = _kl_log_partition(log_w, shifted, lam)
        log_t = log_w + shifted / lam - log_z
        t = np.exp(log_t)
        return float(np.sum(t * (log_t - log_w)))

    span = top - float(np.min(cs))
    lam_hi = max(span, 1.0)
    while kl_at(lam_hi) > eps:
        lam_hi *= 2.0
        if lam_hi > 1e18:
            raise LPFailureError("KL dual bracket expansion failed upward")
    lam_lo = min(span, 1.0) * 1e-2
    while kl_at(lam_lo) < eps:
        lam_lo *= 0.5
        if lam_lo < 1e-300:
            raise LPFailureError("KL dual bracket expansion failed downward")
    # KL of the tilt decreases monotonically in lambda, so the dual optimum
    # is the unique root of KL(tilt) = eps.
    lam_star = brentq(lambda lam: kl_at(lam) - eps, lam_lo, lam_hi, xtol=1e-15, rtol=8.9e-16)
    dual = lam_star * eps + lam_star * _kl_log_partition(log_w, shifted, lam_star) + top
    tilt = _kl_tilt(center.weights, supp, shifted, lam_star)
    witness = DiscreteDistribution(center.grid, tilt)
    value = dual if maximize else -dual
    return float(value), witness


def extremal_oracle_w1(
    center: np.ndarray,
    metric: np.ndarray,
    costs: np.ndarray,
    eps: float,
    resolution: int = 60,
) -> tuple[float, float]:
    """Brute-force worst-case expectation over an order-1 ball.

    Returns (scan maximum over the discretized simplex, overall maximum
    including polytope corner candidates).  The scan value lower-bounds the
    truth; the corner candidates make the overall value exact.
    """
    m = center.size
    vertices = w1_dual_vertices(metric)
    grid = simplex_grid(m, resolution)
    dists = w1_from_dual_many(vertices, grid, center)
    feasible = grid[dists <= eps + 1e-9]
    scan_best = float(np.max(feasible @ costs)) if feasible.size else -math.inf
    corners = ball_vertex_candidates(center, metric, 1.0, eps)
    corner_dists = w1_from_dual_many(vertices, corners, center)
    ok = corners[corner_dists <= eps + 1e-9]
    corner_best = float(np.max(ok @ costs)) if ok.size else -math.inf
    return scan_best, max(scan_best, corner_best)


def ball_extremal_lp(
    center: np.ndarray, metric: np.ndarray, order: float, costs: np.ndarray, eps: float, sense: str = "max"
) -> tuple[float, np.ndarray]:
    """Extremal expectation over an order-p Wasserstein ball, as the coupling LP.

    Variables pi[i, j] >= 0 carry the mass of center atom j to atom i; the
    columns sum to the center and the transport budget is
    sum pi * d**order <= eps**order, divided by the budget so that HiGHS's
    feasibility tolerance is relative to it (a tiny ball would otherwise
    admit a budget overrun of the tolerance's size).  Returns the optimal
    value and the row marginal of an optimal coupling.
    """
    m = center.size
    dist_pow = metric**order
    budget = eps**order
    scale = budget if budget > 0.0 else max(float(np.max(dist_pow)), 1e-30)
    sign = -1.0 if sense == "max" else 1.0
    res = linprog(
        sign * np.repeat(costs, m),
        A_eq=np.tile(np.eye(m), m),
        b_eq=center,
        A_ub=(dist_pow / scale).reshape(1, -1),
        b_ub=[budget / scale],
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(sign * res.fun), np.maximum(res.x.reshape(m, m).sum(axis=1), 0.0)


def _bland_simplex_reference(
    tableau: np.ndarray, basis: list[int], costs: np.ndarray, max_iter: int
) -> tuple[str, int]:
    """Bland-rule simplex iterations in place, one element at a time."""
    m = tableau.shape[0]
    ncols = tableau.shape[1] - 1
    for it in range(max_iter):
        cb = costs[basis]
        reduced = costs - cb @ tableau[:, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -FEASIBILITY_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", it
        col = tableau[:, entering]
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = tableau[i, -1] / col[i]
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and leaving >= 0
                    and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded", it
        pivot = tableau[leaving, entering]
        tableau[leaving, :] /= pivot
        for i in range(m):
            if i != leaving and abs(tableau[i, entering]) > 0.0:
                tableau[i, :] -= tableau[i, entering] * tableau[leaving, :]
        basis[leaving] = entering
    raise LPFailureError(f"simplex did not terminate within {max_iter} iterations")


def bland_lp_reference(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, max_iter: int | None = None) -> LPResult:
    """``drolab.lp.solve_lp`` as a plain loop over rows and columns.

    The same two-phase dense tableau, Bland pivots and tolerances, assembled
    and scanned element by element; the package's vectorised solver must
    return exactly this result.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    blocks = []
    rhs = []
    n_ub = 0
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        blocks.append((a_eq, b_eq, False))
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        n_ub = a_ub.shape[0]
        blocks.append((a_ub, b_ub, True))
    if not blocks:
        raise ValueError("at least one constraint block is required")

    rows = []
    slack_rows = []
    row_id = 0
    for mat, vec, is_ub in blocks:
        if mat.shape[1] != n:
            raise ValueError("constraint matrix width does not match objective length")
        if mat.shape[0] != vec.size:
            raise ValueError("constraint rhs length does not match matrix")
        for i in range(mat.shape[0]):
            rows.append(mat[i])
            rhs.append(vec[i])
            if is_ub:
                slack_rows.append(row_id)
            row_id += 1
    a = np.array(rows, dtype=float)
    b = np.array(rhs, dtype=float)
    m = a.shape[0]

    slack = np.zeros((m, n_ub))
    for k, i in enumerate(slack_rows):
        slack[i, k] = 1.0
    full = np.hstack([a, slack]) if n_ub else a
    for i in range(m):
        if b[i] < 0.0:
            full[i, :] *= -1.0
            b[i] = -b[i]
    n_struct = n + n_ub

    art = np.eye(m)
    tableau = np.hstack([full, art, b[:, None]])
    basis = [n_struct + i for i in range(m)]
    phase1_costs = np.concatenate([np.zeros(n_struct), np.ones(m)])
    cap = max_iter if max_iter is not None else 200 * (n_struct + m + 10)
    status, it1 = _bland_simplex_reference(tableau, basis, phase1_costs, cap)
    if status != "optimal":
        raise LPFailureError(f"phase 1 ended with status {status!r}")
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    infeas = float(phase1_costs[basis] @ tableau[:, -1])
    if infeas > FEASIBILITY_TOL * scale * 10.0:
        return LPResult("infeasible", None, None, it1)

    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_struct:
            pivot_col = -1
            for j in range(n_struct):
                if abs(tableau[i, j]) > 1e-8:
                    pivot_col = j
                    break
            if pivot_col < 0:
                keep[i] = False
                continue
            pivot = tableau[i, pivot_col]
            tableau[i, :] /= pivot
            for r in range(m):
                if r != i and abs(tableau[r, pivot_col]) > 0.0:
                    tableau[r, :] -= tableau[r, pivot_col] * tableau[i, :]
            basis[i] = pivot_col
    tableau = np.hstack([tableau[keep][:, :n_struct], tableau[keep][:, -1:]])
    basis = [bi for bi, k in zip(basis, keep) if k]
    tableau[:, -1] = np.maximum(tableau[:, -1], 0.0)

    phase2_costs = np.concatenate([c, np.zeros(n_ub)])
    status, it2 = _bland_simplex_reference(tableau, basis, phase2_costs, cap)
    if status == "unbounded":
        return LPResult("unbounded", None, None, it1 + it2)
    if status != "optimal":
        raise LPFailureError(f"phase 2 ended with status {status!r}")

    x_full = np.zeros(n_struct)
    for i, bi in enumerate(basis):
        x_full[bi] = tableau[i, -1]
    x_full[np.abs(x_full) < 1e-14] = 0.0
    x = x_full[:n]
    return LPResult("optimal", x, float(c @ x), it1 + it2)


def scalar_cost(name: str, params: dict | None = None):
    """The built-in cost ``name`` as a scalar ``h(x, xi)`` on 1-D arrays."""
    params = params or {}
    if name == "absolute":
        return lambda x, xi: float(np.linalg.norm(x - xi))
    if name == "squared":
        return lambda x, xi: float(np.sum((x - xi) ** 2))
    if name == "newsvendor":
        b, c = params.get("b", 1.0), params.get("c", 1.0)

        def newsvendor(x, xi):
            short = float(xi[0] - x[0])
            return b * max(short, 0.0) + c * max(-short, 0.0)

        return newsvendor
    if name == "huber":
        delta = params.get("delta", 1.0)

        def huber(x, xi):
            u = float(np.linalg.norm(x - xi))
            if u <= delta:
                return 0.5 * u * u
            return delta * (u - 0.5 * delta)

        return huber
    if name == "linreg":
        return lambda x, xi: float((xi[1] - x[0] * xi[0]) ** 2)
    raise KeyError(name)


def scalar_cost_table(fn, points: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """``fn`` evaluated one (decision, atom) cell at a time."""
    return np.array([[fn(x, xi) for xi in atoms] for x in points], dtype=float)


def _wasserstein_extremal_lp(
    ball: AmbiguityBall, costs: np.ndarray, maximize: bool
) -> tuple[float, DiscreteDistribution]:
    center = ball.center
    m = center.grid.size
    eps = ball.radius
    if eps >= center.grid.diameter:
        idx = int(np.argmax(costs)) if maximize else int(np.argmin(costs))
        return float(costs[idx]), DiscreteDistribution.dirac(center.grid, idx)
    dist_pow = center.grid.ground_metric**ball.kind.p
    budget = eps**ball.kind.p
    scale = max(float(np.max(dist_pow)), 1e-30)
    obj = np.repeat(costs, m).astype(float)
    sign = -1.0 if maximize else 1.0
    res = solve_lp(sign * obj, a_eq=np.tile(np.eye(m), m), b_eq=center.weights,
                   a_ub=(dist_pow / scale).reshape(1, -1), b_ub=[budget / scale])
    if not res.ok:
        raise LPFailureError(f"ball-constrained expectation LP ended with status {res.status!r}")
    witness = DiscreteDistribution(center.grid, np.maximum(res.x.reshape(m, m).sum(axis=1), 0.0))
    return float(sign * res.value), witness


def absolute_deviation(
    ball: AmbiguityBall, costs, ref_value: float
) -> tuple[float, DiscreteDistribution, float, float]:
    """Largest |expectation - ref_value| over the ball, with its witness and
    the extremal values ``hi`` and ``lo``; ties go to the high side.  The
    coupling LP (the package's own simplex) on positive-radius Wasserstein
    balls, one-cell :func:`extremal_expectation` calls elsewhere."""
    c = np.asarray(costs, dtype=float)
    if ball.kind.family == "wasserstein" and ball.radius > 0.0:
        (hi, hi_witness), (lo, lo_witness) = (_wasserstein_extremal_lp(ball, c, s) for s in (True, False))
    else:
        (hi, hi_witness), (lo, lo_witness) = (extremal_expectation(ball, c, s) for s in ("max", "min"))
    up = hi - ref_value
    down = ref_value - lo
    if up >= down:
        return float(up), hi_witness, hi, lo
    return float(down), lo_witness, hi, lo


def deviation_table_sided(center: DiscreteDistribution, kind: DivergenceKind, table, radii, ref: float, sided: str):
    """``divergence.deviation_table`` with its former ``sided`` parameter:
    the upward deviations only (``"one"``) or the two-sided ones."""
    hi = extremal_values(center, kind, table, radii, "max")
    lo = extremal_values(center, kind, table, radii, "min") if sided == "two" else None
    return deviations_from(hi, lo, ref)


def deviation_rate_profile(center: DiscreteDistribution, table, ref: float, slack: float, kind: DivergenceKind,
                           sided: str, radii: np.ndarray):
    """Per cost row, the supremum over the radius grid of (deviation - slack)
    / radius, floored at 0; with the rows-by-radii ratios, each row's first
    binding radius index and the witness of a (row, radius) cell."""
    deviations, witness = deviation_table_sided(center, kind, table, radii, ref, sided)
    ratios = (deviations - slack) / radii
    binding = np.argmax(ratios, axis=1)
    rates = np.maximum(ratios[np.arange(binding.size), binding], 0.0)
    return rates, ratios, binding, witness


def absolute_dro_lp_sweep(ball: AmbiguityBall, cf, space) -> Solution:
    """``solve_absolute_dro`` on a positive-radius Wasserstein ball as an
    exhaustive sweep: the coupling LP of :func:`absolute_deviation` on every
    decision row, then the lowest index attaining the minimum, with the
    number of exact ties."""
    table = cost_table(cf, ball.grid, space)
    ref = float(np.min(table @ ball.center.weights))
    values, witnesses = zip(*(absolute_deviation(ball, row, ref)[:2] for row in table))
    values = np.array(values)
    idx = int(np.argmin(values))
    ties = int(np.sum(values == values[idx]))
    diagnostics = {"ties": ties, "nominal_ref": ref, "radius": ball.radius, "kind": ball.kind.label()}
    value = float(values[idx])
    return Solution(space[idx], idx, value, "absolute_dro", witnesses[idx], value, diagnostics)


def set_robustness_loop(
    ball: AmbiguityBall, cf, space, variant: str = "objective", budget: int = 100, seed: int = 0
) -> RobustnessReport:
    """``robustness.set_robustness`` one candidate at a time: the centre, each
    decision's worst-case then best-case witness as a one-cell
    distribution, then the random ball members; each is evaluated by its own
    ``table @ weights``, and the first with the largest spread is the
    witness."""
    table = cost_table(cf, ball.grid, space)

    def optimal_under(weights: np.ndarray) -> tuple[int, float]:
        vals = table @ weights
        idx = int(np.argmin(vals))
        return idx, float(vals[idx])

    base_idx, base_val = optimal_under(ball.center.weights)
    candidates = [ball.center]
    if ball.radius > 0.0:
        witnesses = [extremal_values(ball.center, ball.kind, table, [ball.radius], s)[1] for s in ("max", "min")]
        candidates.extend(witness(k, 0) for k in range(len(space)) for witness in witnesses)
    rng = rng_from_seed(seed)
    accepted = 0
    for _ in range(budget):
        j = int(rng.integers(ball.grid.size))
        cand = _toward_dirac(ball, j) if ball.radius > 0.0 else None
        if cand is None:
            continue
        candidates.append(cand)
        accepted += 1
    best, witness = 0.0, None
    for cand in candidates:
        idx, val = optimal_under(cand.weights)
        spread = abs(val - base_val) if variant == "objective" else float(
            np.linalg.norm(space[idx] - space[base_idx])
        )
        if spread > best:
            best, witness = spread, cand
    diagnostics = {"evaluations": len(candidates), "random_accepted": accepted, "budget": budget, "seed": seed,
                   "estimate_is_lower_bound": True}
    return RobustnessReport(None, f"{variant}_set", float(best), radius=ball.radius, witness=witness,
                            diagnostics=diagnostics)


_CONFIG_SCHEMA = json.loads((Path(__file__).parent / "data" / "config.schema.json").read_text())


def validate_config_jsonschema(doc: dict) -> None:
    """Schema-validate a config document, then check each method entry
    against ``METHODS``; raises :class:`ConfigError` with the first error's
    JSON pointer."""
    validator = jsonschema.Draft202012Validator(_CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"{pointer}: {err.message}")
    for i, entry in enumerate(doc["methods"]):
        name = entry["method"]
        if name not in METHODS:
            raise ConfigError(f"/methods/{i}/method: unknown method {name!r}; available: {list(METHODS)}")
        spec = METHODS[name]
        for field in spec.requires:
            if field not in entry:
                raise ConfigError(f"/methods/{i}: {name} needs a {field!r}")
        if spec.one_of and sum(field in entry for field in spec.one_of) != 1:
            choices = "/".join(repr(field) for field in spec.one_of)
            raise ConfigError(f"/methods/{i}: {name} needs exactly one of {choices}")
        try:
            kind = DivergenceKind.from_json(entry.get("divergence"))
        except ValueError as exc:
            raise ConfigError(f"/methods/{i}/divergence/kind: {exc}") from exc
        if "divergence" in spec.optional and not kind.has_ball_oracle:
            raise ConfigError(f"/methods/{i}/divergence: {kind.label()} balls have no extremal-expectation oracle")
        allowed = ("method", *spec.requires, *spec.one_of, *spec.optional)
        for field in entry:
            if field not in allowed:
                raise ConfigError(f"/methods/{i}/{field}: {name} does not read {field!r}")
