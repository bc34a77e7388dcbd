"""Decision-finding models over a finite decision grid.

Outer minimization is exhaustive search over the decision space, so every
equivalence identity between these models can be checked without optimizer
error; ties always break toward the lowest decision index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from drolab import bayes as _bayes
from drolab.cost import CostFunction, DecisionSpace, Regularizer, cost_table
from drolab.divergence import (
    AmbiguityBall,
    DivergenceKind,
    absolute_deviation,
    deviation_table,
    deviations_from,
    extremal_values,
)
from drolab.support import DiscreteDistribution, SampleSet

SATISFICING_RADII = 40
SATISFICING_RADIUS_FLOOR = 1e-4

# Rows whose dual absolute deviation exceeds the dual minimum by more than
# this, relative to max(1, |minimum|, largest |cost|), are not re-solved by
# the coupling LP.  The LP and the dual agree to 1e-9 relative (pinned in the
# tests), so such a row can neither attain the LP minimum nor tie with it.
ABSOLUTE_SCREEN_MARGIN = 1e-7


@dataclass(frozen=True)
class Solution:
    """Outcome of one decision model.

    ``objective_value`` is the model's own optimum (expected cost for SAA
    variants, worst-case value for min-max, the measure itself for the
    deviation-minimizing models); ``measure`` and ``witness`` are populated
    by the robust models.
    """

    x: np.ndarray
    x_index: int
    objective_value: float
    method: str
    witness: DiscreteDistribution | None = None
    measure: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_json(self, include_witness_grid: bool = False) -> dict:
        doc: dict = {
            "method": self.method,
            "x": self.x.tolist(),
            "x_index": self.x_index,
            "objective_value": self.objective_value,
            "measure": self.measure,
            "diagnostics": self.diagnostics,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json(include_grid=include_witness_grid)
        return doc


def _argmin_lowest(values: np.ndarray) -> tuple[int, int]:
    """First index attaining the minimum, plus the number of exact ties."""
    idx = int(np.argmin(values))
    ties = int(np.sum(values == values[idx]))
    return idx, ties


def nominal_values(center: DiscreteDistribution, cf: CostFunction, space: DecisionSpace) -> np.ndarray:
    return cost_table(cf, center.grid, space) @ center.weights


def solve_saa(data: DiscreteDistribution, cf: CostFunction, space: DecisionSpace) -> Solution:
    """Minimize the expected cost under ``data`` over the decision grid."""
    values = nominal_values(data, cf, space)
    idx, ties = _argmin_lowest(values)
    return Solution(space[idx], idx, float(values[idx]), "saa", diagnostics={"ties": ties})


def solve_regularized_saa(
    data: DiscreteDistribution,
    cf: CostFunction,
    f: Regularizer,
    lam: float,
    space: DecisionSpace,
) -> Solution:
    """Minimize expected cost plus ``lam`` times the regularizer."""
    if lam < 0:
        raise ValueError("regularization weight must be >= 0")
    values = nominal_values(data, cf, space) + lam * np.array([f(x) for x in space])
    idx, ties = _argmin_lowest(values)
    return Solution(space[idx], idx, float(values[idx]), "reg_saa", diagnostics={"ties": ties, "lambda": lam})


def solve_bayes_dp(
    prior: DiscreteDistribution,
    alpha: float,
    data: SampleSet,
    cf: CostFunction,
    space: DecisionSpace,
    beta: float | None = None,
) -> Solution:
    """SAA under the posterior-mean mixture of prior and empirical weights.

    The mixture weight on the prior is ``alpha / (alpha + n)`` unless an
    explicit ``beta`` override is supplied.
    """
    spec = _bayes.PriorSpec(prior, alpha=None if beta is not None else alpha, beta=beta)
    blended = _bayes.dp_posterior_mean(spec, data)
    sol = solve_saa(blended, cf, space)
    diag = dict(sol.diagnostics)
    if beta is not None:
        diag["beta"] = beta
    else:
        diag["beta"] = 1.0 if math.isinf(alpha) else alpha / (alpha + data.n)
    return Solution(sol.x, sol.x_index, sol.objective_value, "bayes_dp", diagnostics=diag)


def _search_ball(ball: AmbiguityBall, cf: CostFunction, space: DecisionSpace, method: str, sided: str) -> Solution:
    # The solution minimizes the worst-case value (one-sided) or the largest
    # deviation from the best nominal value (two-sided) and reports it as the measure.
    table = cost_table(cf, ball.grid, space)
    ref = float(np.min(table @ ball.center.weights))
    if sided == "one":
        worst, witness = extremal_values(ball.center, ball.kind, table, [ball.radius], "max")
        values = worst[:, 0]
    elif ball.kind.family == "wasserstein" and ball.radius > 0.0:
        # The exact dual ranks every row; only rows within the screen margin
        # of its minimum go through absolute_deviation's coupling LP.  The LP
        # stays for its rounding-picked side on exact up/down ties, which
        # recorded references (the benchmark's seed-0 gaps) depend on.  A row
        # outside the margin cannot attain or tie the LP minimum, so leaving
        # it at +inf gives the argmin, ties and witness of an LP on every row.
        dual, _ = deviation_table(ball.center, ball.kind, table, [ball.radius], ref, "two")
        low = float(np.min(dual))
        margin = ABSOLUTE_SCREEN_MARGIN * max(1.0, abs(low), float(np.max(np.abs(table))))
        values = np.full(len(table), np.inf)
        witnesses = {}
        for k in np.flatnonzero(dual[:, 0] <= low + margin).tolist():
            values[k], witnesses[k] = absolute_deviation(ball, table[k], ref)[:2]

        def witness(k: int, r: int) -> DiscreteDistribution:
            return witnesses[k]
    else:
        deviations, witness = deviation_table(ball.center, ball.kind, table, [ball.radius], ref, "two")
        values = deviations[:, 0]

    idx, ties = _argmin_lowest(values)
    diagnostics = {"ties": ties, "nominal_ref": ref, "radius": ball.radius, "kind": ball.kind.label()}
    return Solution(space[idx], idx, float(values[idx]), method, witness(idx, 0), float(values[idx]), diagnostics)


def solve_minmax_dro(ball: AmbiguityBall, cf: CostFunction, space: DecisionSpace) -> Solution:
    """Minimize the worst-case expected cost over the ball.

    The reported measure is the worst-case value minus the best nominal value
    at the ball's center (the one-sided deviation the solution guarantees).
    """
    sol = _search_ball(ball, cf, space, "minmax_dro", "one")
    return replace(sol, measure=sol.objective_value - sol.diagnostics["nominal_ref"])


def solve_absolute_dro(ball: AmbiguityBall, cf: CostFunction, space: DecisionSpace) -> Solution:
    """Minimize the largest two-sided deviation from the best nominal value.

    The deviation of every decision over the ball comes exactly from the
    batched dual of :func:`deviation_table`; the solution minimizes it and
    carries the binding extremal distribution as witness.  On a
    positive-radius Wasserstein ball the decisions within
    :data:`ABSOLUTE_SCREEN_MARGIN` of the dual minimum are solved again by
    :func:`absolute_deviation`'s coupling LP, whose values pick the decision,
    the ties and the witness, because references recorded with the LP (the
    benchmark's seed-0 gaps) depend on its rounding-picked side when the up
    and down deviations tie exactly.
    The LP and the dual agree far inside the margin, so the result is the
    one an LP on every decision gives.
    """
    return _search_ball(ball, cf, space, "absolute_dro", "two")


def satisficing_radius_grid(kind: DivergenceKind, center: DiscreteDistribution) -> np.ndarray:
    cap = kind.radius_cap(center)
    if not math.isfinite(cap):
        raise ValueError(f"{kind.label()} balls never stop growing, so they have no radius grid")
    return np.geomspace(cap * SATISFICING_RADIUS_FLOOR, cap, SATISFICING_RADII)


def deviation_rate_profile(
    center: DiscreteDistribution,
    table: np.ndarray,
    ref: float,
    slack: float,
    kind: DivergenceKind,
    sided: str,
    radii: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[int, int], DiscreteDistribution]]:
    """Per cost row, the supremum over the radius grid of (deviation - slack) / radius.

    Returns the suprema floored at 0, the rows-by-radii ratios, the index of
    each row's binding radius (the first that attains the supremum) and the
    witness of a (row, radius) cell, as :func:`deviation_table` gives it.
    """
    deviations, witness = deviation_table(center, kind, table, radii, ref, sided)
    return (*_rate_profile(deviations, slack, radii), witness)


def _rate_profile(
    deviations: np.ndarray, slack: float, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ratios = (deviations - slack) / radii
    binding = np.argmax(ratios, axis=1)
    rates = np.maximum(ratios[np.arange(binding.size), binding], 0.0)
    return rates, ratios, binding


def lipschitz_rate_certificate(cf: CostFunction, kind: DivergenceKind, x) -> float:
    # Deviations per unit Wasserstein distance never exceed the cost's grid
    # Lipschitz constant; no analogous finite cap exists for phi balls.
    if kind.family == "wasserstein" and cf.lip_in_xi is not None:
        return float(cf.lip_in_xi(x))
    return math.inf


def solve_robust_satisficing(
    center: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    kind: DivergenceKind,
    sided: str = "one",
    target_slack: float = 0.0,
) -> Solution:
    """Minimize the deviation-per-divergence rate subject to a nominal target.

    With target ``min_x nominal + target_slack``, only decisions meeting the
    target at zero divergence are feasible; among them the solution minimizes
    the supremum over a log-spaced radius grid of
    ``(deviation beyond the target) / radius``.  The reported measure is that
    grid supremum (a certified lower bound); diagnostics carry the grid, the
    per-radius ratios at the solution, and a Lipschitz upper certificate.
    """
    return solve_satisficing_models(center, cf, space, kind, [(sided, target_slack)])[0]


def solve_satisficing_models(
    center: DiscreteDistribution,
    cf: CostFunction,
    space: DecisionSpace,
    kind: DivergenceKind,
    models: list[tuple[str, float]],
) -> list[Solution]:
    """:func:`solve_robust_satisficing` for each ``(sided, target_slack)`` model.

    The models share one worst-case sweep of :func:`extremal_values` and, if
    any is two-sided, one best-case sweep, both over the decisions that meet
    the loosest target (a superset of every model's feasible set).  A cell's
    extremal value and witness do not depend on the other rows of its table,
    so each solution is bit-identical to the model solved alone.
    """
    for sided, target_slack in models:
        if sided not in ("one", "two"):
            raise ValueError("sided must be 'one' or 'two'")
        if target_slack < 0:
            raise ValueError("target slack must be >= 0")
    table = cost_table(cf, center.grid, space)
    nominal = table @ center.weights
    ref = float(np.min(nominal))
    feasible = [np.flatnonzero(nominal <= ref + target_slack + 1e-12) for _, target_slack in models]
    if min(f.size for f in feasible) == 0:
        raise RuntimeError("no decision meets the nominal target; this cannot happen for slack >= 0")
    rows = max(feasible, key=len)
    radii = satisficing_radius_grid(kind, center)
    hi = extremal_values(center, kind, table[rows], radii, "max")
    two_sided = any(sided == "two" for sided, _ in models)
    lo = extremal_values(center, kind, table[rows], radii, "min") if two_sided else None
    solutions = []
    for (sided, target_slack), model_rows in zip(models, feasible):
        deviations, witness = deviations_from(hi, lo if sided == "two" else None, ref)
        at = np.searchsorted(rows, model_rows)
        rates, ratios, binding = _rate_profile(deviations[at], target_slack, radii)
        best = int(np.argmin(rates))
        best_idx, best_val = int(model_rows[best]), float(rates[best])
        certificate = lipschitz_rate_certificate(cf, kind, space[best_idx])
        solutions.append(Solution(
            space[best_idx],
            best_idx,
            best_val,
            "satisficing",
            witness=witness(int(at[best]), binding[best]),
            measure=best_val,
            diagnostics={
                "sided": sided,
                "target_slack": target_slack,
                "nominal_ref": ref,
                "feasible_count": int(model_rows.size),
                "radius_grid": radii.tolist(),
                "ratios": ratios[best].tolist(),
                "binding_radius": float(radii[binding[best]]),
                "lower_bound": best_val,
                "upper_certificate": certificate,
                "kind": kind.label(),
            },
        ))
    return solutions
