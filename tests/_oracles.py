"""Independent brute-force oracles for the test suite.

Nothing here touches the package's dual machinery, and only
:func:`absolute_dro_lp_sweep`, :func:`toward_dirac_share_bisection` and
:func:`prior_from_regularizer_l1` (below) its LP solver: transport
problems are solved by exhaustive search over discretized coupling grids and
enumerated polytope corners, and order-1 distances by enumerating the
vertices of the potential polytope.  Values frozen into tests come from
these.  Worst- and best-case expectations over Wasserstein balls also have
their primal coupling LP here, solved by SciPy's HiGHS, as the reference for
the package's dual oracle, and :func:`wasserstein_dual_rational` evaluates
that dual at every candidate multiplier in exact rationals.  The
loop-by-loop Bland simplex that :mod:`drolab.lp` vectorised is kept here
as :func:`bland_lp_reference`, which the package's solver must match bit
for bit, and the per-ball bracketed ``brentq`` solve of the KL tilting dual
that :mod:`drolab.divergence` batched is kept as :func:`kl_extremal_brentq`;
:func:`kl_extremal_mpmath` solves the same dual in multiple precision, for
radii too small for a double-precision root.  The built-in costs' scalar
formulas, which :mod:`drolab.cost` replaced by array formulas over the whole
decision x atom grid, are kept as :func:`scalar_cost` and evaluated cell by
cell in :func:`scalar_cost_table`; the finite-difference Lipschitz quotient
of a cost over atom pairs, which no package code reads, is
:func:`measured_lipschitz_in_xi`.  The absolute-DRO sweep that ran the
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
kept as :func:`set_robustness_loop`, over the distribution it built for
each random member (:func:`toward_dirac`), and the batched pass's scoring
of its candidate rows by one ``table @ w`` at a time, which the package
replaced by one stacked product, as :func:`candidate_values_loop`.  The membership bisection that
found its random ball members on W_p balls, which the package replaced by
one LP in the mixing share, is kept as :func:`toward_dirac_share_bisection`, and
``robustness.pac_robustness`` with Monte-Carlo draws on every instance,
which the package skips when the level band decides the probability, is
kept as :func:`pac_robustness_mc`.  ``bayes.prior_from_regularizer``
with its minimum-L1-residual LP on every instance, which the package ran
only after a feasibility LP found no prior until a non-negative
least-squares solve replaced it there, is kept as
:func:`prior_from_regularizer_l1`.  The residual of an ``Infeasible``
verdict, recomputed with SciPy's non-negative least squares, is
:func:`moment_residual_nnls_scipy`, and the least max-abs residual of a
moment system, by HiGHS, :func:`moment_residual_highs`.
The Wasserstein dual's breakpoint walk as it weighed each step by the
centre's weights while it walked, before it stopped at its last transition,
with one more crossing pass that found nothing to move, is kept as
:func:`upper_envelopes_full_walk`, the reference for
``divergence._dual_breakpoints``, and its dual minimum read through
``np.take_along_axis``, which the package replaced by direct indexing, as
:func:`wasserstein_dual_minimum_gather`.
``divergence._resolve_inexact_cells`` as it solved a flagged row again at
every breakpoint at once, which the package replaced by a walk from the
dual's pick, is kept as :func:`resolve_inexact_cells_every_breakpoint`.
``SupportGrid``'s triangle check that looped over the pivots one at a time,
which the package replaced by blocks of pivots, is kept as
:func:`triangle_violated_loop`.  The
config validator that ran a JSON Schema (``tests/data/config.schema.json``)
through ``jsonschema`` and then checked method entries against
``experiment.METHODS``, which the package replaced by plain-Python checks, is
kept as :func:`validate_config_jsonschema`.  ``DivergenceKind.radius_cap``'s
if-chain over family, generator and orientation, which the package replaced
by one entry per kind in ``divergence._KINDS``, is kept as
:func:`radius_cap_chain`.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import jsonschema
import mpmath
import numpy as np
from scipy.optimize import brentq, linprog, nnls
from scipy.special import logsumexp

from drolab.cost import cost_table
from drolab.divergence import (
    _RUNNING_SUM_ERROR_MAX,
    _UNIT_ROUNDOFF,
    AmbiguityBall,
    DivergenceKind,
    deviations_from,
    extremal_values,
    membership,
)
from drolab.experiment import METHODS
from drolab.lp import FEASIBILITY_TOL, LPFailureError, LPResult, solve_lp
from drolab.robustness import RobustnessReport, _dirac_share
from drolab.solvers import Solution
from drolab.support import ConfigError, DiscreteDistribution, mixture, rng_from_seed

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


def kl_extremal_mpmath(weights: np.ndarray, costs: np.ndarray, eps: float) -> float:
    """Worst-case expectation of ``costs`` over the forward-KL ball of radius
    ``eps > 0`` around ``weights``, from the tilting dual solved in mpmath.

    The float weights are read as rationals and divided by their exact sum,
    and the work runs at ``2 * |log10 eps| + 20`` significant digits (at
    least 40), so that ``KL(tilt) - eps`` keeps 20 digits at the root.  The
    root in ``theta = 1/lam`` comes from Newton steps kept inside a bracket
    (bisection otherwise) until a step moves ``theta`` by less than half the
    working digits; the dual is stationary there, so the value keeps all.
    """
    with mpmath.workdps(max(40, 2 * math.ceil(abs(math.log10(eps))) + 20)):
        supp = np.flatnonzero(weights > 0.0)
        total = sum(Fraction(float(x)) for x in weights[supp])
        w = [Fraction(float(x)) / total for x in weights[supp]]
        w = [mpmath.mpf(x.numerator) / x.denominator for x in w]
        c = [mpmath.mpf(float(x)) for x in costs[supp]]
        top = max(c)
        if top == min(c):
            return float(top)
        s = [ci - top for ci in c]
        eps = mpmath.mpf(eps)
        if eps >= -mpmath.log(mpmath.fsum(wi for wi, si in zip(w, s) if si == 0)):
            return float(top)  # saturated: the centre conditioned on the top atoms

        def tilt(theta):
            """log Z, E_t[s] and Var_t(s) of the tilt t ~ w * exp(theta * s)."""
            u = [wi * mpmath.exp(theta * si) for wi, si in zip(w, s)]
            z = mpmath.fsum(u)
            mean = mpmath.fsum(ui * si for ui, si in zip(u, s)) / z
            return mpmath.log(z), mean, mpmath.fsum(ui * (si - mean) ** 2 for ui, si in zip(u, s)) / z

        theta, lo, hi = mpmath.sqrt(2 * eps / tilt(mpmath.mpf(0))[2]), mpmath.mpf(0), mpmath.inf
        step_tol = mpmath.mpf(10) ** (-(mpmath.mp.dps // 2))
        for _ in range(10_000):
            log_z, mean, var = tilt(theta)
            kl_excess = theta * mean - log_z - eps  # increasing in theta
            lo, hi = (theta, hi) if kl_excess < 0 else (lo, theta)
            nxt = theta - kl_excess / (theta * var)
            if not lo < nxt < hi:
                nxt = 2 * theta if hi == mpmath.inf else (lo + hi) / 2
            if abs(nxt - theta) <= theta * step_tol:
                break
            theta = nxt
        else:
            raise LPFailureError("KL dual Newton search did not converge")
        return float(top + (eps + log_z) / theta)


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


def wasserstein_dual_rational(weights: np.ndarray, dist_pow: np.ndarray, costs: np.ndarray, budget: float) -> float:
    """Worst-case expectation of ``costs`` over a W_p ball, from the strong
    dual ``min_{lam >= 0} lam * budget + sum_j w_j max_i (c_i - lam *
    dist_pow[i, j])`` evaluated in exact rationals at ``lam = 0`` and at
    every crossing of two lines of one centre atom, where its minimum lies.
    ``budget`` is ``eps**p`` and ``dist_pow`` the metric to the power p,
    both as the floats the package reads; only the result is rounded."""
    supp = [j for j, wj in enumerate(weights) if wj > 0]
    c = [Fraction(float(x)) for x in costs]
    d = [[Fraction(float(x)) for x in row] for row in dist_pow]
    w = {j: Fraction(float(weights[j])) for j in supp}
    lams = {Fraction(0)}
    for j in supp:
        for i, k in itertools.combinations(range(len(c)), 2):
            if d[i][j] != d[k][j]:
                lam = (c[i] - c[k]) / (d[i][j] - d[k][j])
                if lam > 0:
                    lams.add(lam)
    eps_p = Fraction(float(budget))
    return float(min(lam * eps_p + sum(w[j] * max(ci - lam * d[i][j] for i, ci in enumerate(c)) for j in supp)
                     for lam in lams))


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


def transport_blocks(a, b) -> dict:
    """The dense constraint blocks of ``solve_lp``'s transportation form with
    marginals ``(a, b)``: row sums, then column sums, of the flattened coupling."""
    a_eq = np.vstack([np.repeat(np.eye(len(a)), len(b), axis=1), np.tile(np.eye(len(b)), len(a))])
    return {"a_eq": a_eq, "b_eq": np.concatenate([a, b])}


def dense_transport_lp(monkeypatch, module) -> list:
    """Swap ``module.solve_lp``'s transportation form for the loop reference on
    its dense blocks, through ``monkeypatch``; other calls run as before.  Each
    transport LP solved appends its marginals to the returned list."""
    calls = []
    real = module.solve_lp

    def solve(c, *args, marginals=None, **blocks):
        if marginals is None:
            return real(c, *args, **blocks)
        calls.append(marginals)
        return bland_lp_reference(c, **transport_blocks(*marginals))

    monkeypatch.setattr(module, "solve_lp", solve)
    return calls


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

        def linreg(x, xi):
            r = xi[1] - x[0] * xi[0]
            return float(r * r)

        return linreg
    raise KeyError(name)


def scalar_cost_table(fn, points: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """``fn`` evaluated one (decision, atom) cell at a time."""
    return np.array([[fn(x, xi) for xi in atoms] for x in points], dtype=float)


def measured_lipschitz_in_xi(cf, grid, x) -> float:
    """Largest finite-difference quotient of h(x, .) over atom pairs."""
    vals = cf.atom_costs(grid, x)
    apart = grid.ground_metric > 0.0
    quotients = np.abs(vals[:, None] - vals[None, :])[apart] / grid.ground_metric[apart]
    return float(np.max(quotients, initial=0.0))


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
    balls, the two cells of one :func:`extremal_values` call elsewhere."""
    c = np.asarray(costs, dtype=float)
    if ball.kind.family == "wasserstein" and ball.radius > 0.0:
        (hi, hi_witness), (lo, lo_witness) = (_wasserstein_extremal_lp(ball, c, s) for s in (True, False))
    else:
        values, witnesses = extremal_values(ball.center, ball.kind, c[None, :], [ball.radius])
        (hi, hi_witness), (lo, lo_witness) = ((float(values[i, 0]), witnesses(i, 0)) for i in (0, 1))
    up = hi - ref_value
    down = ref_value - lo
    if up >= down:
        return float(up), hi_witness, hi, lo
    return float(down), lo_witness, hi, lo


def deviation_table_sided(center: DiscreteDistribution, kind: DivergenceKind, table, radii, ref: float, sided: str):
    """``divergence.deviation_table`` with its former ``sided`` parameter:
    the upward deviations only (``"one"``) or the two-sided ones."""
    values, witnesses = extremal_values(center, kind, table, radii)
    if sided == "two":
        return deviations_from(values, witnesses, ref)
    return values[: len(values) // 2] - ref, witnesses


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


def candidate_values_loop(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``robustness._candidate_values`` as it scored one weight row at a
    time: ``table @ w`` for each row ``w`` of ``weights``."""
    return np.array([table @ w for w in weights])


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
        witnesses = extremal_values(ball.center, ball.kind, table, [ball.radius])[1]
        candidates.extend(witnesses(i, 0) for k in range(len(space)) for i in (k, len(space) + k))
    rng = rng_from_seed(seed)
    accepted = 0
    for _ in range(budget):
        j = int(rng.integers(ball.grid.size))
        cand = toward_dirac(ball, j) if ball.radius > 0.0 else None
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


def toward_dirac(ball: AmbiguityBall, index: int) -> DiscreteDistribution | None:
    """The furthest ball member on the segment from the centre to a Dirac
    atom, built as a distribution (None if the share is 0): the per-member
    step of ``robustness.set_robustness`` before it scored its members as
    weight rows."""
    share = _dirac_share(ball, index)
    if share <= 0.0:
        return None
    return mixture(share, DiscreteDistribution.dirac(ball.grid, index), ball.center)


def toward_dirac_share_bisection(ball: AmbiguityBall, index: int) -> float:
    """Share t of the furthest ball member ``(1 - t) * center + t * Dirac``,
    by the 40-step :func:`~drolab.divergence.membership` bisection that
    ``robustness._dirac_share`` ran on every ball kind but W1 (one transport
    LP per step on a W_p ball)."""
    target = DiscreteDistribution.dirac(ball.grid, index)
    if membership(ball, target):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if membership(ball, mixture(mid, target, ball.center)):
            lo = mid
        else:
            hi = mid
    return lo


def pac_robustness_mc(prior, cf, x, ref_value: float, level: float, mc_draws: int = 10_000,
                      seed: int = 0) -> RobustnessReport:
    """``robustness.pac_robustness`` with the Monte-Carlo estimate on every
    instance, including those the level band decides."""
    if not (level > 0.0 and math.isfinite(level)):
        raise ValueError(f"robustness level must be positive and finite, got {level!r}")
    if mc_draws < 1:
        raise ValueError(f"need at least one Monte-Carlo draw, got {mc_draws!r}")
    if not math.isfinite(ref_value):
        raise ValueError(f"reference value must be finite, got {ref_value!r}")
    ref_value = float(ref_value)
    if not cf.nonneg:
        raise ValueError("the PAC bound requires a cost flagged nonnegative")
    costs = cf.atom_costs(prior.base.grid, x)
    if np.min(costs) < -1e-12:
        raise ValueError(f"cost {cf.name!r} attains {np.min(costs)} < 0; the bound needs a nonnegative cost")
    mean_cost = float(prior.base.expectation(costs))
    markov = max(0.0, 1.0 - (mean_cost + abs(ref_value)) / level)
    weights = prior.sample_weights(mc_draws, seed)
    expectations = weights @ costs
    hits = np.abs(expectations - ref_value) <= level
    emp = float(np.mean(hits))
    sigma = math.sqrt(max(emp * (1.0 - emp), 1e-12) / mc_draws)
    diagnostics = {"markov_bound": markov, "empirical_probability": emp, "empirical_sigma": sigma,
                   "mc_mean_expectation": float(np.mean(expectations)), "base_expectation": mean_cost,
                   "ref_value": ref_value, "draws": int(mc_draws), "seed": int(seed)}
    return RobustnessReport(np.atleast_1d(np.asarray(x, dtype=float)), "pac", float(level), confidence=markov,
                            diagnostics=diagnostics)


def prior_from_regularizer_l1(f, cf, x_constraints, grid, max_entropy: bool = False):
    """``bayes.prior_from_regularizer`` with the minimum-L1-residual LP on
    every instance, which the package now runs only when a zero-objective
    feasibility LP over the weights finds no prior within tolerance."""
    from drolab.bayes import MOMENT_TOL, Infeasible, _max_entropy_refine
    from drolab.cost import DecisionSpace

    decisions = list(x_constraints)
    if not decisions:
        raise ValueError("need at least one constraint decision")
    space = DecisionSpace.from_points(decisions)
    h = cost_table(cf, grid, space)
    targets = np.array([f(x) for x in space], dtype=float)
    m = grid.size
    k = len(space)
    n_var = m + 2 * k
    obj = np.concatenate([np.zeros(m), np.ones(2 * k)])
    a_eq = np.zeros((k + 1, n_var))
    a_eq[:k, :m] = h
    a_eq[:k, m : m + k] = np.eye(k)
    a_eq[:k, m + k :] = -np.eye(k)
    a_eq[k, :m] = 1.0
    b_eq = np.concatenate([targets, [1.0]])
    res = solve_lp(obj, a_eq=a_eq, b_eq=b_eq)
    if not res.ok:
        raise LPFailureError(f"moment LP ended with status {res.status!r}")
    w = np.maximum(res.x[:m], 0.0)
    total = w.sum()
    if total <= 0.0:
        raise LPFailureError("moment LP returned a zero weight vector")
    w = w / total
    residual = float(np.max(np.abs(h @ w - targets)))
    if residual > MOMENT_TOL:
        return Infeasible(residual)
    if max_entropy:
        c_full = np.vstack([h, np.ones((1, m))])
        d_full = np.concatenate([targets, [1.0]])
        w = _max_entropy_refine(w, c_full, d_full)
        w = w / w.sum()
    return DiscreteDistribution(grid, w)


def moment_basis_rows(h: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``bayes.prior_from_regularizer`` solves on: an orthonormal
    basis of the row space of ``[h; 1]`` (left singular vectors above
    numpy's ``matrix_rank`` tolerance) applied to ``[h; 1]`` and to
    ``[targets; 1]``."""
    c_full = np.vstack([h, np.ones((1, h.shape[1]))])
    u, s, _ = np.linalg.svd(c_full, full_matrices=False)
    basis = u[:, s > s[0] * max(c_full.shape) * np.finfo(float).eps].T
    return basis @ c_full, basis @ np.concatenate([targets, [1.0]])


def moment_residual_nnls_scipy(h: np.ndarray, targets: np.ndarray) -> float:
    """The every-row max-abs moment residual of SciPy's non-negative least
    squares on :func:`moment_basis_rows`, clamped and renormalised (a zero
    weight vector's own, the sum row's included): the residual an
    ``Infeasible`` verdict of ``bayes.prior_from_regularizer`` carries."""
    x, _ = nnls(*moment_basis_rows(h, targets))
    if x.sum() <= 0.0:
        return float(max(1.0, np.max(np.abs(targets))))
    return float(np.max(np.abs(h @ (x / x.sum()) - targets)))


def moment_residual_highs(h: np.ndarray, targets: np.ndarray) -> float:
    """The least max-abs moment residual any distribution attains, ``min t``
    with ``|h w - targets| <= t``, ``sum w = 1``, ``w >= 0``, by HiGHS."""
    k, m = h.shape
    res = linprog(
        np.concatenate([np.zeros(m), [1.0]]),
        A_ub=np.block([[h, -np.ones((k, 1))], [-h, -np.ones((k, 1))]]),
        b_ub=np.concatenate([targets, -targets]),
        A_eq=np.concatenate([np.ones(m), [0.0]])[None, :],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


_CONFIG_SCHEMA = json.loads((Path(__file__).parent / "data" / "config.schema.json").read_text())


def upper_envelopes_full_walk(c: np.ndarray, dist_pow: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """The breakpoints of ``G(lam) = sum_j w_j max_i (c[k, i] - lam *
    dist_pow[i, j])``, walked with the weights ``w`` on every step, as the
    package walked them before it stopped at the last transition and before
    the grid kept the walk without weights: every walk ends with one more
    crossing pass over all (row, line, atom) cells, which finds no envelope
    left to move."""
    rows, cols = np.arange(c.shape[0])[:, None], np.arange(dist_pow.shape[1])[None, :]
    top = np.max(c, axis=1)
    active = np.argmin(np.where((c == top[:, None])[:, :, None], dist_pow[None], np.inf), axis=1)
    c_act, d_act = c[rows, active], dist_pow[active, cols]
    lam_now = np.zeros(active.shape)
    # (lam, change of a, change of s) per event: the sums at lam = 0, then one
    # (k, s) block per step.
    events = [(np.zeros((c.shape[0], 1)), np.sum(w * c_act, axis=1, keepdims=True),
               np.sum(w * d_act, axis=1, keepdims=True))]
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            # cross[k, i, j]: where line i overtakes the active line of (k, j).
            flatter = dist_pow[None] < d_act[:, None, :]
            slope_gap = d_act[:, None, :] - dist_pow[None]
            cross = np.where(flatter, (c_act[:, None, :] - c[:, :, None]) / slope_gap, np.inf)
            nxt = np.min(cross, axis=1)
            live = np.isfinite(nxt)
            if not live.any():
                break
            pick = np.argmin(np.where(cross == nxt[:, None, :], dist_pow[None], np.inf), axis=1)
            c_new, d_new = c[rows, pick], dist_pow[pick, cols]
            lam_now = np.where(live, np.maximum(nxt, lam_now), lam_now)
            events.append((
                np.where(live, lam_now, np.inf),
                np.where(live, w * (c_new - c_act), 0.0),
                np.where(live, w * (d_new - d_act), 0.0),
            ))
            c_act, d_act = np.where(live, c_new, c_act), np.where(live, d_new, d_act)
    lam, d_a, d_s = (np.concatenate(parts, axis=1) for parts in zip(*events))
    order = np.argsort(lam, axis=1, kind="stable")
    lam, d_a, d_s = (np.take_along_axis(x, order, axis=1) for x in (lam, d_a, d_s))
    pad = np.isinf(lam)
    return np.where(pad, 0.0, lam), np.where(pad, np.inf, np.cumsum(d_a, axis=1)), np.cumsum(d_s, axis=1)


def wasserstein_dual_minimum_gather(lam, a, s, budgets) -> tuple[np.ndarray, np.ndarray]:
    """``divergence._dual_minimum`` as it read the argmin's value and
    multiplier through ``np.take_along_axis``."""
    dual = a[:, :, None] + lam[:, :, None] * (budgets[None, None, :] - s[:, :, None])
    best = np.argmin(dual, axis=1)
    return np.take_along_axis(dual, best[:, None, :], axis=1)[:, 0, :], np.take_along_axis(lam, best, axis=1)


def inexact_cells(c, dist_pow, budgets, lam_best) -> np.ndarray:
    """The cells of a Wasserstein dual read, at multipliers ``lam_best``,
    that ``divergence._resolve_inexact_cells`` flags and solves again."""
    reach = lam_best * ((1 + dist_pow.size) * _UNIT_ROUNDOFF * (float(np.max(dist_pow)) + budgets))
    return reach > _RUNNING_SUM_ERROR_MAX * np.maximum(1.0, np.max(np.abs(c), axis=1))[:, None]


def resolve_inexact_cells_every_breakpoint(center, c, dist_pow, budgets, lam, values, lam_best) -> np.ndarray:
    """``divergence._resolve_inexact_cells`` as it solved a flagged row again
    before the walk: the direct form ``lam * eps**p + sum_j w_j max_i (c_i -
    lam * dist_pow[i, j])`` at every breakpoint of the row at once, one
    (breakpoints x atoms x support) array, and its first least value per
    flagged cell, written in place.  Returns the mask of flagged cells."""
    inexact = inexact_cells(c, dist_pow, budgets, lam_best)
    supp = center.support_indices()
    w, d = center.weights[supp], dist_pow[:, supp]
    for k in np.flatnonzero(inexact.any(axis=1)):
        direct = lam[k][:, None] * budgets[None, :] + (
            np.max(c[k][None, :, None] - lam[k][:, None, None] * d[None], axis=1) @ w
        )[:, None]
        cells = np.flatnonzero(inexact[k])
        pick = np.argmin(direct[:, cells], axis=0)
        values[k, cells] = direct[pick, cells]
        lam_best[k, cells] = lam[k][pick]
    return inexact


def triangle_violated_loop(metric: np.ndarray) -> bool:
    """``SupportGrid``'s triangle check, one pivot ``k`` at a time: some
    ``metric[i, j]`` exceeds ``metric[i, k] + metric[k, j]`` by over 1e-9."""
    for k in range(metric.shape[0]):
        detour = metric[:, k][:, None] + metric[k, :][None, :]
        if np.any(metric > detour + 1e-9):
            return True
    return False


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
    # JSON Schema cannot say that the rows of an array share one length.
    for section, key in (("grid", "atoms"), ("grid", "metric"), ("space", "points")):
        lengths = [len(row) for row in doc[section].get(key) or []]
        for i, length in enumerate(lengths):
            if length != lengths[0]:
                raise ConfigError(f"/{section}/{key}/{i}: {length} entries, row 0 has {lengths[0]}")
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


def radius_cap_chain(kind: DivergenceKind, center: DiscreteDistribution) -> float:
    """``DivergenceKind.radius_cap`` as an if-chain over the kind's fields."""
    if kind.family == "wasserstein":
        return center.grid.diameter
    if kind.generator == "tv":
        return 1.0
    if kind.orientation == "reverse":
        return math.inf
    supp = center.support_indices()
    wmin = float(np.min(center.weights[supp]))
    if kind.generator == "kl":
        return -math.log(wmin)
    return (1.0 - wmin) ** 2 / wmin + (1.0 - wmin)
