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
from drolab.divergence import AmbiguityBall, DivergenceKind, membership, wasserstein
from drolab.solvers import Solution, solve_absolute_dro, solve_minmax_dro, solve_saa, solve_satisficing_models
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
    ingredients: dict = field(default_factory=dict)
    degenerate: bool = False


def _record(kind: str, bound: float, observed: float, ingredients: dict, degenerate: bool = False) -> BoundRecord:
    holds = bool(observed <= bound + HOLDS_SLACK)
    return BoundRecord(kind, float(bound), float(observed), holds, ingredients, degenerate)


def _rate_times_distance(rate: float, distance: float) -> float:
    # A zero distance pins the deviation to zero even under an infinite rate.
    if distance == 0.0:
        return 0.0
    return rate * distance


def _nominal_record(
    kind: str,
    p0: DiscreteDistribution,
    center: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    x_rob: np.ndarray,
    term: float,
    ingredients: dict,
    degenerate: bool = False,
) -> tuple[GapRecord, BoundRecord]:
    """The gap at the nominal (SAA) optimizer around ``center`` against
    ``|x_nom - x_rob| * E_p0 L(xi) + term``, where ``term`` bounds the
    deviation at the robust decision ``x_rob``."""
    if cf.lip_in_x is None:
        raise MissingLipschitzDataError(f"cost {cf.name!r} declares no Lipschitz data in the decision")
    mean_lip = float(p0.weights @ np.array([cf.lip_in_x(p0.grid.atoms[j]) for j in range(p0.grid.size)]))
    x_nom = solve_saa(center, cf, space).x
    displacement = float(np.linalg.norm(x_nom - x_rob))
    gap = GapRecord(x_nom, expected_cost(p0, cf, x_nom), expected_cost(center, cf, x_nom))
    rec = _record(
        kind,
        displacement * mean_lip + term,
        gap.abs_gap,
        {"displacement": displacement, "mean_lip_in_x": mean_lip, **ingredients},
        degenerate,
    )
    return gap, rec


def uniform_bound(
    p0: DiscreteDistribution,
    pbar: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
) -> list[tuple[GapRecord, BoundRecord]]:
    """Per-decision deviation bound ``L(x) * W1(p0, pbar)``."""
    if cf.lip_in_xi is None:
        raise MissingLipschitzDataError(f"cost {cf.name!r} declares no Lipschitz data in the atom")
    dist = wasserstein(p0, pbar, 1.0)
    table = cost_table(cf, p0.grid, space)
    true_vals = table @ p0.weights
    nominal_vals = table @ pbar.weights
    out = []
    for k, x in enumerate(space):
        gap = GapRecord(x, float(true_vals[k]), float(nominal_vals[k]))
        lip = float(cf.lip_in_xi(x))
        rec = _record("uniform", lip * dist, gap.abs_gap, {"lipschitz": lip, "distance": dist, "order": 1.0})
        out.append((gap, rec))
    return out


def minmax_one_sided_bound(
    p0: DiscreteDistribution,
    ball: AmbiguityBall,
    cf: CostFunction,
    space: DecisionSpace,
) -> tuple[list[tuple[GapRecord, BoundRecord]], Solution]:
    """True cost of the worst-case-optimal decision versus the min-max value."""
    if not membership(ball, p0):
        raise HypothesisViolationError(
            "the true distribution must lie in the ball for the one-sided bound to apply"
        )
    sol = solve_minmax_dro(ball, cf, space)
    true_val = expected_cost(p0, cf, sol.x)
    gap = GapRecord(sol.x, true_val, expected_cost(ball.center, cf, sol.x))
    rec = _record(
        "minmax_one_sided",
        sol.objective_value,
        true_val,
        {"worst_case_value": sol.objective_value, "radius": ball.radius},
    )
    return [(gap, rec)], sol


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
    sol = solve_absolute_dro(ball, cf, space)
    l_star = float(sol.measure)
    nominal = _nominal_record(
        "absolute_nominal", p0, ball.center, cf, space, sol.x, l_star, {"l_star": l_star, "radius": ball.radius}
    )
    gap_rob = GapRecord(sol.x, expected_cost(p0, cf, sol.x), expected_cost(sol.witness, cf, sol.x))
    rec_rob = _record("absolute_dro", 2.0 * l_star, gap_rob.abs_gap, {"l_star": l_star, "radius": ball.radius})
    return [nominal, (gap_rob, rec_rob)], sol


def relative_bound(
    p0: DiscreteDistribution,
    pbar: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    kind: DivergenceKind,
    sided: str = "two",
    target_slack: float = 0.0,
) -> tuple[list[tuple[GapRecord, BoundRecord]], Solution]:
    """Gap bounds built from the two-sided deviation-rate solver.

    The records read the two-sided zero-slack robust-satisficing model
    around ``pbar``; the returned solution is the ``(sided, target_slack)``
    model, solved with it from the same extremal sweeps.  The rate measure
    is sandwiched (grid lower bound, Lipschitz upper certificate); the
    certificate side enters the bounds so that ``holds`` stays sound.  An
    infinite certificate yields infinite bounds flagged degenerate.
    """
    models = [("two", 0.0)] if (sided, target_slack) == ("two", 0.0) else [("two", 0.0), (sided, target_slack)]
    solutions = solve_satisficing_models(pbar, cf, space, kind, models)
    zero_slack, sol = solutions[0], solutions[-1]
    l_lower, l_upper = float(zero_slack.measure), float(zero_slack.diagnostics["upper_certificate"])
    degenerate = not math.isfinite(l_upper)
    x_rob, witness = zero_slack.x, zero_slack.witness
    dist_center = kind.distance(p0, pbar)
    nominal = _nominal_record(
        "relative_nominal",
        p0,
        pbar,
        cf,
        space,
        x_rob,
        _rate_times_distance(l_upper, dist_center),
        {"l_star_lower": l_lower, "l_star_upper": l_upper, "distance_to_center": dist_center},
        degenerate,
    )
    dist_witness = kind.distance(p0, witness)
    gap_rob = GapRecord(x_rob, expected_cost(p0, cf, x_rob), expected_cost(witness, cf, x_rob))
    rec_rob = _record(
        "relative_dro",
        _rate_times_distance(l_upper, dist_witness),
        gap_rob.abs_gap,
        {"l_star_lower": l_lower, "l_star_upper": l_upper, "distance_to_witness": dist_witness},
        degenerate,
    )
    return [nominal, (gap_rob, rec_rob)], sol


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
    membership hypothesis holds on the closed ball.  A replication whose
    radius is infinite (a forward-KL divergence from a sample that misses an
    atom of ``p0``) has no ball and emits no records; the summary counts it
    under ``skipped``.  Returns a summary (per check: mean gap, mean bound,
    standard error of the difference, and whether
    ``mean gap <= mean bound + 3 sigma``) plus one CSV-ready row per emitted
    record.
    """
    if which not in _EXPECTED_KINDS:
        raise ValueError(f"which must be one of {_EXPECTED_KINDS}")
    if replications < 30:
        raise ValueError("need at least 30 replications for the expected-bound summary")
    kind = kind or DivergenceKind.wasserstein_order(1.0)
    rows: list[dict] = []
    diffs: dict[str, list[tuple[float, float, bool]]] = {}  # check -> (gap, bound, holds) per record
    skipped = 0

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
        if which == "uniform":
            pairs = uniform_bound(p0, pbar, cf, space)
        elif which == "absolute":
            radius = kind.distance(p0, pbar)
            if not math.isfinite(radius):  # e.g. a forward-KL sample that misses an atom of p0
                skipped += 1
                continue
            pairs, _ = absolute_bound(p0, AmbiguityBall(pbar, radius, kind), cf, space)
        else:
            pairs, _ = relative_bound(p0, pbar, cf, space, kind)
        for k, (gap, rec) in enumerate(pairs):
            push(rep_seed, gap, rec, f"uniform@x{k}" if which == "uniform" else rec.kind)

    summary: dict = {"which": which, "n": n, "replications": replications, "skipped": skipped, "checks": {}}
    for check, triples in diffs.items():
        arr = np.array(triples, dtype=float)
        mean_gap = float(np.mean(arr[:, 0]))
        mean_bound = float(np.mean(arr[:, 1]))
        # Gaps and bounds average over the same rows; one infinite bound
        # makes the mean bound infinite, which holds with an infinite sigma.
        sigma, ok = math.inf, True
        if math.isfinite(mean_bound):
            delta = arr[:, 0] - arr[:, 1]
            sigma = float(np.std(delta, ddof=1) / math.sqrt(delta.size)) if delta.size > 1 else 0.0
            ok = mean_gap <= mean_bound + 3.0 * sigma + HOLDS_SLACK
        summary["checks"][check] = {
            "mean_gap": mean_gap,
            "mean_bound": mean_bound,
            "sigma": sigma,
            "expected_holds": bool(ok),
            "all_holds": bool(np.all(arr[:, 2])),
        }
    return summary, rows
