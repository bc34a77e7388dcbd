"""Robustness measures of a given decision.

These report how much the expected cost (or the optimizing decision) can
move when the distribution moves: over a fixed ball (absolute), per unit of
divergence (relative), in the small-radius limit (local), across a model set
(solution/objective set variants), or probabilistically under a Dirichlet
prior over distributions (PAC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from drolab.cost import CostFunction, DecisionSpace, cost_table
from drolab.divergence import (
    AmbiguityBall,
    DivergenceKind,
    LazyWitness,
    deviation_table,
    deviations_from,
    extremal_values,
    membership,
)
from drolab.lp import LPFailureError, solve_lp
from drolab.solvers import lipschitz_rate_certificate, rate_profile, satisficing_radius_grid
from drolab.support import DiscreteDistribution, _normalize_rows, mixture, rng_from_seed

LOCAL_SCALE_RANGE = range(4, 13)  # radii: radius cap * 2**-k


@dataclass(frozen=True)
class DirichletPrior:
    """Finite-dimensional Dirichlet prior over the simplex of grid weights.

    Draws are Dirichlet with parameter ``concentration * base.weights``,
    restricted to the base's support; the mean distribution is ``base``.
    """

    base: DiscreteDistribution
    concentration: float

    def __post_init__(self) -> None:
        if not (self.concentration > 0.0 and math.isfinite(self.concentration)):
            raise ValueError("concentration must be a positive finite scalar")

    def sample_weights(self, draws: int, seed) -> np.ndarray:
        rng = rng_from_seed(seed)
        supp = self.base.support_indices()
        alpha = self.concentration * self.base.weights[supp]
        out = np.zeros((draws, self.base.grid.size))
        out[:, supp] = rng.dirichlet(alpha, size=draws)
        return out


@dataclass(frozen=True)
class RobustnessReport:
    """One robustness measurement of a decision.

    A measure's witness is left pending
    (:class:`~drolab.divergence.LazyWitness`): the first read of ``witness``
    builds it, and it is then kept.  ``to_json``, ``dataclasses.replace``,
    :mod:`copy` and pickling all read it, so they build it too.
    """

    x: np.ndarray | None
    kind: str
    measure: float
    radius: float | None = None
    witness: DiscreteDistribution | None = LazyWitness()
    confidence: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __getstate__(self) -> dict:
        # A pickle or copy holds the witness built: a pending one refers to
        # the oracle's local functions.
        return dict(vars(self), witness=self.witness)

    def to_json(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "x": None if self.x is None else np.asarray(self.x, dtype=float).tolist(),
            "measure": self.measure,
            "radius": self.radius,
            "confidence": self.confidence,
            "diagnostics": self.diagnostics,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json(include_grid=False)
        return doc


def _finite_ref(ref_value: float) -> float:
    if not math.isfinite(ref_value):
        raise ValueError(f"reference value must be finite, got {ref_value!r}")
    return float(ref_value)


def absolute_measure(x, ref_value: float, ball: AmbiguityBall, cf: CostFunction) -> RobustnessReport:
    """Smallest L with |expectation - ref_value| <= L over the whole ball.

    Read from the worst-case and best-case cells of one
    :func:`extremal_values` call (the exact dual on every ball kind); ties
    between the two sides go to the high side, as in :func:`deviation_table`.
    """
    ref_value = _finite_ref(ref_value)
    costs = cf.atom_costs(ball.grid, x)[None, :]
    extremal, witnesses = extremal_values(ball.center, ball.kind, costs, [ball.radius])
    dev, witness = deviations_from(extremal, witnesses, ref_value)
    return RobustnessReport(
        np.atleast_1d(np.asarray(x, dtype=float)),
        "absolute",
        float(dev[0, 0]),
        radius=ball.radius,
        witness=partial(witness, 0, 0),
        diagnostics={"max_value": float(extremal[0, 0]), "min_value": float(extremal[1, 0]), "ref_value": ref_value},
    )


def relative_measure(
    x,
    ref_value: float,
    kind: DivergenceKind,
    center: DiscreteDistribution,
    cf: CostFunction,
) -> RobustnessReport:
    """Smallest L with |expectation - ref_value| <= L * divergence, over all P.

    If the center's own expectation misses ``ref_value`` by more than 1e-9
    the ratio diverges as P approaches the center and the measure is +inf.
    Otherwise the measure is the supremum over a log-spaced radius grid, with
    a Lipschitz upper certificate recorded in the diagnostics; 0 over a ball
    that cannot grow (:func:`~drolab.solvers.satisficing_radius_grid`).
    """
    ref_value = _finite_ref(ref_value)
    costs = cf.atom_costs(center.grid, x)
    at_center = float(center.expectation(costs))
    if abs(at_center - ref_value) > 1e-9:
        return RobustnessReport(
            np.atleast_1d(np.asarray(x, dtype=float)),
            "relative",
            math.inf,
            diagnostics={"center_value": at_center, "ref_value": ref_value},
        )
    radii = satisficing_radius_grid(kind, center)
    deviations, witness = deviation_table(center, kind, costs[None, :], radii, ref_value)
    rates, ratios, binding = rate_profile(deviations, 0.0, radii)
    val = float(rates[0])
    certificate = lipschitz_rate_certificate(cf, kind, x)
    return RobustnessReport(
        np.atleast_1d(np.asarray(x, dtype=float)),
        "relative",
        val,
        witness=partial(witness, 0, binding[0]) if radii.size else center,
        diagnostics={
            "radius_grid": radii.tolist(),
            "ratios": ratios[0].tolist(),
            "binding_radius": float(radii[binding[0]]) if radii.size else None,
            "lower_bound": val,
            "upper_certificate": certificate,
            "kind": kind.label(),
        },
    )


def local_measure(
    x_space: DecisionSpace,
    center: DiscreteDistribution,
    ref_value: float,
    cf: CostFunction,
    kind: DivergenceKind,
    variant: str = "objective",
) -> RobustnessReport:
    """Small-radius limit of the per-radius robust value, by extrapolation.

    ``objective``: limit of ``min_x sup_ball |expectation - ref| / radius``.
    ``solution``: limit of ``|robust argmin - nominal argmin| / radius``.
    Evaluated on radii ``cap * 2**-k`` for k = 4..12, where ``cap`` is the
    radius cap, with a first-order Richardson extrapolation.  ``converged``
    is set only when the last two ratios agree to 1e-9 relative: a ratio
    still moving at the smallest radius (a second decision near the best
    nominal value can take over there) can leave the extrapolation far off
    the limit, so such a tail is flagged; the estimate is still returned.
    A ball that cannot grow
    (:func:`~drolab.solvers.satisficing_radius_grid`) gives no radii and 0.
    If every decision's centre value misses ``ref_value`` by more than 1e-9,
    each ratio of the ``objective`` variant diverges as the radius shrinks
    and its measure is +inf, as in :func:`relative_measure`; the smallest
    miss is reported as ``nominal_gap``.
    """
    if variant not in ("objective", "solution"):
        raise ValueError("variant must be 'objective' or 'solution'")
    ref_value = _finite_ref(ref_value)
    table = cost_table(cf, center.grid, x_space)
    nominal = table @ center.weights
    nominal_idx = int(np.argmin(nominal))
    nominal_gap = float(np.min(np.abs(nominal - ref_value)))
    if variant == "objective" and nominal_gap > 1e-9:
        return RobustnessReport(
            None,
            "local_objective",
            math.inf,
            diagnostics={
                "nominal_gap": nominal_gap,
                "ref_value": ref_value,
                "nominal_index": nominal_idx,
                "kind": kind.label(),
            },
        )
    grid = satisficing_radius_grid(kind, center)
    radii = [float(grid[-1]) * 2.0**-k for k in LOCAL_SCALE_RANGE] if grid.size else []
    if variant == "objective":
        devs, _ = deviation_table(center, kind, table, radii, ref_value)
        values = [float(np.min(devs[:, r])) / eps for r, eps in enumerate(radii)]
    else:
        worst = extremal_values(center, kind, table, radii)[0][: len(table)]
        values = [
            float(np.linalg.norm(x_space[int(np.argmin(worst[:, r]))] - x_space[nominal_idx])) / eps
            for r, eps in enumerate(radii)
        ]
    estimate = max(0.0, 2.0 * values[-1] - values[-2]) if values else 0.0
    tail_change = abs(values[-1] - values[-2]) / max(abs(values[-1]), abs(values[-2]), 1e-12) if values else 0.0
    return RobustnessReport(
        None,
        f"local_{variant}",
        float(estimate),
        diagnostics={
            "radii": radii,
            "ratios": values,
            "converged": bool(tail_change <= 1e-9),
            "tail_relative_change": float(tail_change),
            "nominal_index": nominal_idx,
            "kind": kind.label(),
        },
    )


def _wasserstein_dirac_share(ball: AmbiguityBall, index: int) -> float:
    """Largest t with (1 - t) * center + t * Dirac(index) in a W_p ball.

    The only coupling of the centre with the Dirac moves all of its mass
    there, so W_p^p(Dirac, center) = sum_i w_i d_ij^p.  W1 is a norm of the
    signed difference, so a share t of the way costs t times W1(Dirac,
    center).  For p > 1 one LP maximizes t over couplings of the centre with
    the mixture at transport cost <= radius^p: W_p^p is jointly convex, so
    the feasible shares form an interval [0, t*].
    """
    p, w = ball.kind.p, ball.center.weights
    dist_pow = ball.grid.ground_metric**p
    reach, budget = float(w @ dist_pow[:, index]), ball.radius**p
    if reach <= budget:
        return 1.0
    if p == 1.0:
        return ball.radius / reach
    # Variables: the coupling (row-major, mass from centre atom i to atom j)
    # and t.  Rows: the centre's marginals, then the mixture's, which read
    # sum_i pi_ij + t * (w_j - [j == index]) = w_j.  Some w_i > 0 with
    # i != index (reach > 0), so that marginal bounds t by 1.
    m = ball.grid.size
    eye = np.eye(m)
    shift = w - eye[index]
    a_eq = np.vstack([np.hstack([np.repeat(eye, m, axis=1), np.zeros((m, 1))]),
                      np.hstack([np.tile(eye, m), shift[:, None]])])
    objective = np.zeros(m * m + 1)
    objective[-1] = -1.0
    res = solve_lp(objective, a_eq=a_eq, b_eq=np.concatenate([w, w]),
                   a_ub=np.append(dist_pow.reshape(-1), 0.0)[None, :], b_ub=[budget])
    if not res.ok:
        raise LPFailureError(f"toward-Dirac LP ended with status {res.status!r} (m={m}, p={p})")
    return min(max(float(res.x[-1]), 0.0), 1.0)


def _dirac_share(ball: AmbiguityBall, index: int) -> float:
    """Largest share t in [0, 1] with (1 - t) * center + t * Dirac(index) in
    the ball: the furthest ball member on the segment toward that Dirac atom.

    Exact on Wasserstein balls (:func:`_wasserstein_dirac_share`); other
    kinds bisect the share by :func:`membership` to 2**-40.
    """
    if ball.kind.family == "wasserstein":
        return _wasserstein_dirac_share(ball, index)
    target = DiscreteDistribution.dirac(ball.grid, index)
    if membership(ball, target):
        return 1.0
    share, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (share + hi)
        if membership(ball, mixture(mid, target, ball.center)):
            share = mid
        else:
            hi = mid
    return share


def _candidate_values(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``table @ w`` for each weight row ``w``: one matrix-vector product
    per row, stacked, so each row has the bits of its own product, where one
    matrix product may round otherwise."""
    return (table[None] @ weights[:, :, None])[:, :, 0]


def set_robustness(
    ball: AmbiguityBall,
    cf: CostFunction,
    space: DecisionSpace,
    variant: str = "objective",
    budget: int = 100,
    seed: int = 0,
) -> RobustnessReport:
    """Estimated spread of the per-distribution optimum across the ball.

    Evaluates the optimal value (``objective``) or optimizer displacement
    (``solution``) at the center, at every extremal witness, and at ``budget``
    random ball members (the furthest mixtures toward random Dirac atoms
    that stay in the ball).  Reported as a lower-bound estimate; the true
    supremum may be larger.  Every candidate is scored as a weight row: the
    extremal witnesses of both senses come from one batched pass
    (:meth:`~drolab.divergence.Witnesses.weights`), and each random member
    is the row :func:`~drolab.support.mixture` would hold.  The reported
    witness is the first candidate, in the order above with each decision's
    worst case before its best case, that attains the spread; it is the one
    candidate made a distribution, when it is read.
    """
    if variant not in ("objective", "solution"):
        raise ValueError("variant must be 'objective' or 'solution'")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    table = cost_table(cf, ball.grid, space)
    witnesses = extremal_values(ball.center, ball.kind, table, [ball.radius])[1] if ball.radius > 0.0 else None
    rng = rng_from_seed(seed)
    drawn = [int(rng.integers(ball.grid.size)) for _ in range(budget)]
    shares = np.array([_dirac_share(ball, j) if ball.radius > 0.0 else 0.0 for j in drawn])
    accepted = shares > 0.0
    # Each accepted member's weights before normalization, computed as
    # mixture(share, Dirac, centre) computes them.
    mixed = (shares[accepted, None] * np.eye(ball.grid.size)[np.array(drawn)[accepted]]
             + (1.0 - shares[accepted])[:, None] * ball.center.weights)
    # One weight row per candidate: the centre, each decision's worst-case
    # then best-case witness, the random members.
    blocks = [ball.center.weights[None, :]]
    if witnesses is not None:
        blocks.append(witnesses.weights(0).reshape(2, len(table), -1).swapaxes(0, 1).reshape(-1, ball.grid.size))
    blocks.append(_normalize_rows(mixed.copy()))
    weights = np.concatenate(blocks)
    values = _candidate_values(table, weights)
    best_idx = np.argmin(values, axis=1)
    if variant == "objective":
        spreads = np.abs(values[np.arange(len(values)), best_idx] - values[0, best_idx[0]])
    else:
        spreads = np.array([float(np.linalg.norm(space[i] - space[best_idx[0]])) for i in best_idx])
    first = int(np.argmax(spreads))
    extremal = 2 * len(space) if witnesses is not None else 0
    witness: DiscreteDistribution | partial | None = None
    if spreads[first] > 0.0:
        if first == 0:
            witness = ball.center
        elif first <= extremal:
            k, side = divmod(first - 1, 2)
            witness = partial(witnesses, k + side * len(table), 0)
        else:
            witness = partial(DiscreteDistribution, ball.grid, mixed[first - 1 - extremal])
    return RobustnessReport(
        None,
        f"{variant}_set",
        float(spreads[first]),
        radius=ball.radius,
        witness=witness,
        diagnostics={
            "evaluations": len(weights),
            "random_accepted": len(mixed),
            "budget": budget,
            "seed": seed,
            "estimate_is_lower_bound": True,
        },
    )


def pac_robustness(
    prior: DirichletPrior,
    cf: CostFunction,
    x,
    ref_value: float,
    level: float,
    mc_draws: int = 10_000,
    seed: int = 0,
) -> RobustnessReport:
    """Probability that a decision is robust at level L under the prior.

    Returns the exact Markov lower bound
    ``max(0, 1 - (E_base h(x) + |ref_value|) / L)`` as ``confidence``: for a
    nonnegative cost ``|E_P h - ref| <= E_P h + |ref|``, and by the
    mean-measure identity E over the prior of E_P h equals E_base h.  It
    comes together with ``Pr[|E_P h(x) - ref_value| <= L]`` as
    ``empirical_probability`` in the diagnostics.

    E_P h(x) is a convex combination of the costs on the prior's support, so
    the level band decides the probability when every such cost lies within
    L of ``ref_value`` (exactly 1) or all of them lie beyond the band on the
    same side (exactly 0).  That value is reported without sampling, with
    ``empirical_sigma`` 0, ``draws`` 0 and ``mc_mean_expectation`` None.
    Otherwise the probability is a Monte-Carlo estimate over ``mc_draws``
    seeded Dirichlet draws, with its standard error and the draws' mean of
    E_P h.
    """
    if not (level > 0.0 and math.isfinite(level)):
        raise ValueError(f"robustness level must be positive and finite, got {level!r}")
    if mc_draws < 1:
        raise ValueError(f"need at least one Monte-Carlo draw, got {mc_draws!r}")
    ref_value = _finite_ref(ref_value)
    if not cf.nonneg:
        raise ValueError("the PAC bound requires a cost flagged nonnegative")
    costs = cf.atom_costs(prior.base.grid, x)
    if np.min(costs) < -1e-12:
        raise ValueError(
            f"cost {cf.name!r} attains {np.min(costs)} < 0; the bound needs a nonnegative cost"
        )
    mean_cost = float(prior.base.expectation(costs))
    markov = max(0.0, 1.0 - (mean_cost + abs(ref_value)) / level)
    gaps = costs[prior.base.support_indices()] - ref_value
    if np.all(np.abs(gaps) <= level):
        emp, sigma, mc_mean, draws = 1.0, 0.0, None, 0
    elif np.all(gaps > level) or np.all(gaps < -level):
        emp, sigma, mc_mean, draws = 0.0, 0.0, None, 0
    else:
        weights = prior.sample_weights(mc_draws, seed)
        expectations = weights @ costs
        hits = np.abs(expectations - ref_value) <= level
        emp = float(np.mean(hits))
        sigma = math.sqrt(max(emp * (1.0 - emp), 1e-12) / mc_draws)
        mc_mean, draws = float(np.mean(expectations)), int(mc_draws)
    return RobustnessReport(
        np.atleast_1d(np.asarray(x, dtype=float)),
        "pac",
        float(level),
        confidence=markov,
        diagnostics={
            "markov_bound": markov,
            "empirical_probability": emp,
            "empirical_sigma": sigma,
            "mc_mean_expectation": mc_mean,
            "base_expectation": mean_cost,
            "ref_value": ref_value,
            "draws": draws,
            "seed": int(seed),
        },
    )
