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

import numpy as np

from drolab.cost import CostFunction, DecisionSpace, cost_table
from drolab.divergence import (
    AmbiguityBall,
    DivergenceKind,
    deviation_table,
    deviations_from,
    extremal_values,
    membership,
)
from drolab.solvers import lipschitz_rate_certificate, rate_profile, satisficing_radius_grid
from drolab.support import DiscreteDistribution, mixture, rng_from_seed

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
    """One robustness measurement of a decision."""

    x: np.ndarray | None
    kind: str
    measure: float
    radius: float | None = None
    witness: DiscreteDistribution | None = None
    confidence: float | None = None
    diagnostics: dict = field(default_factory=dict)

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

    Read from one worst-case and one best-case cell of
    :func:`extremal_values` (the exact dual on every ball kind); ties between
    the two sides go to the high side, as in :func:`deviation_table`.
    """
    ref_value = _finite_ref(ref_value)
    costs = cf.atom_costs(ball.grid, x)[None, :]
    hi, lo = (extremal_values(ball.center, ball.kind, costs, [ball.radius], s) for s in ("max", "min"))
    dev, witness = deviations_from(hi, lo, ref_value)
    return RobustnessReport(
        np.atleast_1d(np.asarray(x, dtype=float)),
        "absolute",
        float(dev[0, 0]),
        radius=ball.radius,
        witness=witness(0, 0),
        diagnostics={"max_value": float(hi[0][0, 0]), "min_value": float(lo[0][0, 0]), "ref_value": ref_value},
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
        witness=witness(0, binding[0]) if radii.size else center,
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
    radius cap, with a first-order Richardson extrapolation; a non-convergent
    tail (last relative change above 10%) is flagged but the estimate is
    still returned.  A ball that cannot grow
    (:func:`~drolab.solvers.satisficing_radius_grid`) gives no radii and 0.
    """
    if variant not in ("objective", "solution"):
        raise ValueError("variant must be 'objective' or 'solution'")
    ref_value = _finite_ref(ref_value)
    table = cost_table(cf, center.grid, x_space)
    nominal_idx = int(np.argmin(table @ center.weights))
    grid = satisficing_radius_grid(kind, center)
    radii = [float(grid[-1]) * 2.0**-k for k in LOCAL_SCALE_RANGE] if grid.size else []
    if variant == "objective":
        devs, _ = deviation_table(center, kind, table, radii, ref_value)
        values = [float(np.min(devs[:, r])) / eps for r, eps in enumerate(radii)]
    else:
        worst, _ = extremal_values(center, kind, table, radii, "max")
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
            "converged": bool(tail_change <= 0.10),
            "tail_relative_change": float(tail_change),
            "nominal_index": nominal_idx,
            "kind": kind.label(),
        },
    )


def _toward_dirac(ball: AmbiguityBall, index: int) -> DiscreteDistribution | None:
    """Furthest ball member on the segment from the center to a Dirac atom."""
    target = DiscreteDistribution.dirac(ball.grid, index)
    if ball.kind.family == "wasserstein" and ball.kind.p == 1.0:
        # W1 is a norm of the signed difference, so moving a share t of the
        # way to the Dirac moves t times W1(Dirac, center) = sum_i w_i d_ij.
        reach = float(ball.center.weights @ ball.grid.ground_metric[:, index])
        return target if reach <= ball.radius else mixture(ball.radius / reach, target, ball.center)
    if membership(ball, target):
        return target
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if membership(ball, mixture(mid, target, ball.center)):
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        return None
    return mixture(lo, target, ball.center)


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
    supremum may be larger.  The witnesses of each sense come from one
    batched pass (:meth:`~drolab.divergence.Witnesses.weights`), and the
    reported witness is the first candidate, in the order above with each
    decision's worst case before its best case, that attains the spread.
    """
    if variant not in ("objective", "solution"):
        raise ValueError("variant must be 'objective' or 'solution'")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    table = cost_table(cf, ball.grid, space)
    witnesses = []
    if ball.radius > 0.0:
        witnesses = [extremal_values(ball.center, ball.kind, table, [ball.radius], s)[1] for s in ("max", "min")]
    rng = rng_from_seed(seed)
    members: list[DiscreteDistribution] = []
    for _ in range(budget):
        j = int(rng.integers(ball.grid.size))
        cand = _toward_dirac(ball, j) if ball.radius > 0.0 else None
        if cand is not None:
            members.append(cand)
    # One weight row per candidate: the centre, each decision's worst-case
    # then best-case witness, the random members.
    blocks = [ball.center.weights[None, :]]
    if witnesses:
        blocks.append(np.stack([w.weights(0) for w in witnesses], axis=1).reshape(-1, ball.grid.size))
    blocks.extend(cand.weights[None, :] for cand in members)
    weights = np.concatenate(blocks)
    # Row by row, as a single matrix product may round differently.
    values = np.array([table @ w for w in weights])
    best_idx = np.argmin(values, axis=1)
    if variant == "objective":
        spreads = np.abs(values[np.arange(len(values)), best_idx] - values[0, best_idx[0]])
    else:
        spreads = np.array([float(np.linalg.norm(space[i] - space[best_idx[0]])) for i in best_idx])
    first = int(np.argmax(spreads))
    extremal = 2 * len(space) if witnesses else 0
    witness: DiscreteDistribution | None = None
    if spreads[first] > 0.0:
        if first == 0:
            witness = ball.center
        elif first <= extremal:
            k, side = divmod(first - 1, 2)
            witness = witnesses[side](k, 0)
        else:
            witness = members[first - 1 - extremal]
    return RobustnessReport(
        None,
        f"{variant}_set",
        float(spreads[first]),
        radius=ball.radius,
        witness=witness,
        diagnostics={
            "evaluations": len(weights),
            "random_accepted": len(members),
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
    ``max(0, 1 - (E_base h(x) + ref_value) / L)`` (using the mean-measure
    identity E over the prior of E_P h equals E_base h, valid for
    nonnegative costs) as ``confidence``, together with the Monte-Carlo
    estimate of ``Pr[|E_P h(x) - ref_value| <= L]`` over Dirichlet draws in
    the diagnostics.
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
    markov = max(0.0, 1.0 - (mean_cost + ref_value) / level)
    weights = prior.sample_weights(mc_draws, seed)
    expectations = weights @ costs
    hits = np.abs(expectations - ref_value) <= level
    emp = float(np.mean(hits))
    sigma = math.sqrt(max(emp * (1.0 - emp), 1e-12) / mc_draws)
    return RobustnessReport(
        np.atleast_1d(np.asarray(x, dtype=float)),
        "pac",
        float(level),
        confidence=markov,
        diagnostics={
            "markov_bound": markov,
            "empirical_probability": emp,
            "empirical_sigma": sigma,
            "mc_mean_expectation": float(np.mean(expectations)),
            "base_expectation": mean_cost,
            "ref_value": ref_value,
            "draws": int(mc_draws),
            "seed": int(seed),
        },
    )
