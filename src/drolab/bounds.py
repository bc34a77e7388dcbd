"""Generalization-gap measurement and deviation-bound verification.

Each operation pairs an observed gap (true expected cost versus nominal
expected cost at some decision) with the bound an inequality promises for it,
and flags whether the bound held.  Given valid Lipschitz metadata and exact
ball oracles these are theorems, so a single ``holds=False`` on a finite
bound is a defect worth failing a suite over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from drolab.cost import CostFunction, DecisionSpace, MissingLipschitzDataError, cost_table, expected_cost
from drolab.divergence import AmbiguityBall, DivergenceKind, membership, transport_memo, wasserstein
from drolab.solvers import Solution, solve_absolute_dro, solve_minmax_dro, solve_robust_satisficing, solve_saa
from drolab.support import DiscreteDistribution, derive_seed, empirical, sample

HOLDS_SLACK = 1e-9


class HypothesisViolationError(ValueError):
    """A bound was requested outside its hypothesis (e.g. P0 not in the ball)."""


@dataclass(frozen=True)
class GapRecord:
    """True versus nominal expected cost at one decision."""

    x: np.ndarray
    true_value: float
    nominal_value: float

    @property
    def gap(self) -> float:
        return self.true_value - self.nominal_value

    @property
    def abs_gap(self) -> float:
        return abs(self.gap)


@dataclass(frozen=True)
class BoundRecord:
    """One checked inequality: ``observed <= bound`` (within 1e-9)."""

    kind: str
    bound: float
    observed: float
    holds: bool
    one_sided: bool
    ingredients: dict = field(default_factory=dict)
    degenerate: bool = False


def _record(kind: str, bound: float, observed: float, one_sided: bool, ingredients: dict,
            degenerate: bool = False) -> BoundRecord:
    holds = bool(observed <= bound + HOLDS_SLACK)
    return BoundRecord(kind, float(bound), float(observed), holds, one_sided, ingredients, degenerate)


def _rate_times_distance(rate: float, distance: float) -> float:
    # A zero distance pins the deviation to zero even under an infinite rate.
    if distance == 0.0:
        return 0.0
    return rate * distance


def _mean_lip_in_x(p0: DiscreteDistribution, cf: CostFunction) -> float:
    if cf.lip_in_x is None:
        raise MissingLipschitzDataError(f"cost {cf.name!r} declares no Lipschitz data in the decision")
    vals = np.array([cf.lip_in_x(p0.grid.atoms[j]) for j in range(p0.grid.size)])
    return float(p0.weights @ vals)


def uniform_bound(
    p0: DiscreteDistribution,
    pbar: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    order: float = 1.0,
) -> list[tuple[GapRecord, BoundRecord]]:
    """Per-decision deviation bound ``L(x) * W_order(p0, pbar)``.

    The order-1 distance gives the tight version; any higher order is also
    valid since Wasserstein distances increase with the order.
    """
    if cf.lip_in_xi is None:
        raise MissingLipschitzDataError(f"cost {cf.name!r} declares no Lipschitz data in the atom")
    dist = wasserstein(p0, pbar, order)
    table = cost_table(cf, p0.grid, space)
    true_vals = table @ p0.weights
    nominal_vals = table @ pbar.weights
    out = []
    for k, x in enumerate(space):
        gap = GapRecord(x, float(true_vals[k]), float(nominal_vals[k]))
        lip = float(cf.lip_in_xi(x))
        rec = _record(
            "uniform",
            lip * dist,
            gap.abs_gap,
            one_sided=False,
            ingredients={"lipschitz": lip, "distance": dist, "order": order},
        )
        out.append((gap, rec))
    return out


def minmax_one_sided_bound(
    p0: DiscreteDistribution,
    ball: AmbiguityBall,
    cf: CostFunction,
    space: DecisionSpace,
) -> tuple[GapRecord, BoundRecord, Solution]:
    """True cost of the worst-case-optimal decision versus the min-max value."""
    if not membership(ball, p0):
        raise HypothesisViolationError(
            "the true distribution must lie in the ball for the one-sided bound to apply"
        )
    sol = solve_minmax_dro(ball, cf, space)
    true_val = expected_cost(p0, cf, sol.x)
    nominal_val = expected_cost(ball.center, cf, sol.x)
    gap = GapRecord(sol.x, true_val, nominal_val)
    rec = _record(
        "minmax_one_sided",
        sol.objective_value,
        true_val,
        one_sided=True,
        ingredients={"worst_case_value": sol.objective_value, "radius": ball.radius},
    )
    return gap, rec, sol


def absolute_bound(
    p0: DiscreteDistribution,
    ball: AmbiguityBall,
    cf: CostFunction,
    space: DecisionSpace,
) -> tuple[list[tuple[GapRecord, BoundRecord]], Solution]:
    """Gap bounds built from the absolute-deviation solver over the ball.

    Emits the nominal-model record (gap at the nominal optimizer against
    ``|x_nom - x_rob| * E_p0 L(xi) + L*``) and the robust-model record (gap
    between the true and least-favorable expectations at the robust decision
    against ``2 L*``).
    """
    if not membership(ball, p0):
        raise HypothesisViolationError(
            "the true distribution must lie in the ball for the absolute bounds to apply"
        )
    mean_lip = _mean_lip_in_x(p0, cf)
    sol = solve_absolute_dro(ball, cf, space)
    nominal_sol = solve_saa(ball.center, cf, space)
    x_nom, x_rob = nominal_sol.x, sol.x
    displacement = float(np.linalg.norm(x_nom - x_rob))
    l_star = float(sol.measure)

    gap_nom = GapRecord(x_nom, expected_cost(p0, cf, x_nom), expected_cost(ball.center, cf, x_nom))
    rec_nom = _record(
        "absolute_nominal",
        displacement * mean_lip + l_star,
        gap_nom.abs_gap,
        one_sided=False,
        ingredients={
            "displacement": displacement,
            "mean_lip_in_x": mean_lip,
            "l_star": l_star,
            "radius": ball.radius,
        },
    )
    witness_val = expected_cost(sol.witness, cf, x_rob)
    gap_rob = GapRecord(x_rob, expected_cost(p0, cf, x_rob), witness_val)
    rec_rob = _record(
        "absolute_dro",
        2.0 * l_star,
        gap_rob.abs_gap,
        one_sided=False,
        ingredients={"l_star": l_star, "radius": ball.radius},
    )
    return [(gap_nom, rec_nom), (gap_rob, rec_rob)], sol


def relative_bound(
    p0: DiscreteDistribution,
    pbar: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    kind: DivergenceKind,
) -> tuple[list[tuple[GapRecord, BoundRecord]], Solution]:
    """Gap bounds built from the two-sided deviation-rate solver.

    The rate measure is sandwiched (grid lower bound, Lipschitz upper
    certificate); the certificate side enters the bounds so that ``holds``
    stays sound.  An infinite certificate yields infinite bounds flagged
    degenerate.
    """
    sol = solve_robust_satisficing(pbar, cf, space, kind, sided="two", target_slack=0.0)
    return relative_bound_at(p0, pbar, cf, space, kind, sol), sol


def relative_bound_at(
    p0: DiscreteDistribution,
    pbar: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    kind: DivergenceKind,
    sol: Solution,
) -> list[tuple[GapRecord, BoundRecord]]:
    """The records of :func:`relative_bound` at ``sol``, the two-sided
    zero-slack robust-satisficing solution around ``pbar`` (for callers
    that solve it together with other satisficing models)."""
    mean_lip = _mean_lip_in_x(p0, cf)
    l_upper = float(sol.diagnostics["upper_certificate"])
    degenerate = not math.isfinite(l_upper)
    nominal_sol = solve_saa(pbar, cf, space)
    x_nom, x_rob = nominal_sol.x, sol.x
    displacement = float(np.linalg.norm(x_nom - x_rob))
    dist_center = kind.distance(p0, pbar)

    gap_nom = GapRecord(x_nom, expected_cost(p0, cf, x_nom), expected_cost(pbar, cf, x_nom))
    rec_nom = _record(
        "relative_nominal",
        displacement * mean_lip + _rate_times_distance(l_upper, dist_center),
        gap_nom.abs_gap,
        one_sided=False,
        ingredients={
            "displacement": displacement,
            "mean_lip_in_x": mean_lip,
            "l_star_lower": float(sol.measure),
            "l_star_upper": l_upper,
            "distance_to_center": dist_center,
        },
        degenerate=degenerate,
    )
    witness = sol.witness if sol.witness is not None else pbar
    dist_witness = kind.distance(p0, witness)
    gap_rob = GapRecord(x_rob, expected_cost(p0, cf, x_rob), expected_cost(witness, cf, x_rob))
    rec_rob = _record(
        "relative_dro",
        _rate_times_distance(l_upper, dist_witness),
        gap_rob.abs_gap,
        one_sided=False,
        ingredients={
            "l_star_lower": float(sol.measure),
            "l_star_upper": l_upper,
            "distance_to_witness": dist_witness,
        },
        degenerate=degenerate,
    )
    return [(gap_nom, rec_nom), (gap_rob, rec_rob)]


_EXPECTED_KINDS = ("uniform", "absolute", "relative")


def expected_bounds(
    p0: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    which: str,
    n: int,
    replications: int,
    seed: int,
    kind: DivergenceKind | None = None,
) -> tuple[dict, list[dict]]:
    """Monte-Carlo means of gaps and bounds across freshly sampled datasets.

    For every replication a fresh size-n dataset is drawn from ``p0``, the
    empirical distribution plays the nominal role, and the chosen bound suite
    runs; ball radii are set to the exact divergence from ``p0`` so the
    membership hypothesis holds on the closed ball.  Returns a summary (per
    check: mean gap, mean bound, standard error of the difference, and
    whether ``mean gap <= mean bound + 3 sigma``) plus one CSV-ready row per
    emitted record.
    """
    if which not in _EXPECTED_KINDS:
        raise ValueError(f"which must be one of {_EXPECTED_KINDS}")
    if replications < 30:
        raise ValueError("need at least 30 replications for the expected-bound summary")
    kind = kind or DivergenceKind.wasserstein_order(1.0)
    rows: list[dict] = []
    diffs: dict[str, list[tuple[float, float, bool]]] = {}  # check -> (gap, bound, holds) per record

    def push(rep_seed: int, gap: GapRecord, rec: BoundRecord, check: str) -> None:
        rows.append(
            {
                "kind": rec.kind,
                "n": n,
                "seed": rep_seed,
                "x_star": gap.x,
                "gap": rec.observed,
                "bound": rec.bound,
                "holds": rec.holds,
                "ingredients": rec.ingredients,
            }
        )
        diffs.setdefault(check, []).append((rec.observed, rec.bound, rec.holds))

    for rep in range(replications):
        rep_seed = derive_seed(seed, n, rep)
        pbar = empirical(sample(p0, n, rep_seed))
        with transport_memo():  # the absolute suite asks for W(p0, pbar) twice
            if which == "uniform":
                for k, (gap, rec) in enumerate(uniform_bound(p0, pbar, cf, space)):
                    push(rep_seed, gap, rec, f"uniform@x{k}")
            elif which == "absolute":
                radius = kind.distance(p0, pbar)
                ball = AmbiguityBall(pbar, radius, kind)
                pairs, _ = absolute_bound(p0, ball, cf, space)
                for gap, rec in pairs:
                    push(rep_seed, gap, rec, rec.kind)
            else:
                pairs, _ = relative_bound(p0, pbar, cf, space, kind)
                for gap, rec in pairs:
                    push(rep_seed, gap, rec, rec.kind)

    summary: dict = {"which": which, "n": n, "replications": replications, "checks": {}}
    for check, triples in diffs.items():
        arr = np.array(triples, dtype=float)
        finite = np.isfinite(arr[:, 1])
        mean_gap = float(np.mean(arr[:, 0]))
        mean_bound = float(np.mean(arr[finite, 1])) if np.any(finite) else math.inf
        delta = arr[finite, 0] - arr[finite, 1]
        sigma = float(np.std(delta, ddof=1) / math.sqrt(delta.size)) if delta.size > 1 else 0.0
        ok = mean_gap <= mean_bound + 3.0 * sigma + HOLDS_SLACK if math.isfinite(mean_bound) else True
        summary["checks"][check] = {
            "mean_gap": mean_gap,
            "mean_bound": mean_bound,
            "sigma": sigma,
            "expected_holds": bool(ok),
            "all_holds": bool(np.all(arr[:, 2])),
        }
    return summary, rows


def w1_concentration(
    p0: DiscreteDistribution,
    ns,
    replications: int,
    seed: int,
    order: float = 1.0,
) -> dict[int, dict[str, float]]:
    """Median and mean transport distance of the empirical distribution by n.

    The empirical concentration substitute for radius selection: medians
    shrink as the sample grows.
    """
    out: dict[int, dict[str, float]] = {}
    for n in ns:
        dists = []
        for rep in range(replications):
            rep_seed = derive_seed(seed, n, rep)
            dists.append(wasserstein(empirical(sample(p0, n, rep_seed)), p0, order))
        arr = np.array(dists)
        out[int(n)] = {"median": float(np.median(arr)), "mean": float(np.mean(arr))}
    return out
