"""Posterior-mean mixtures and regularizer/prior conversions.

A Dirichlet-process-style prior with concentration ``alpha`` and prior
estimate ``P`` has posterior mean ``alpha/(alpha+n) * P + n/(alpha+n) * Pn``
after n observations.  Conversely, any regularizer that matches the expected
cost under some distribution at every decision grid point turns a regularized
empirical model into such a mixture model; the matching distribution is found
by a moment-feasibility LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from drolab.cost import CostFunction, DecisionSpace, Regularizer, cost_table, expected_cost
from drolab.lp import LPFailureError, solve_lp
from drolab.support import DiscreteDistribution, SampleSet, SupportGrid, empirical, mixture

MOMENT_TOL = 1e-8


@dataclass(frozen=True)
class PriorSpec:
    """Prior estimate plus exactly one of concentration ``alpha`` / weight ``beta``."""

    prior_estimate: DiscreteDistribution
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if (self.alpha is None) == (self.beta is None):
            raise ValueError("specify exactly one of alpha and beta")
        if self.alpha is not None and not (self.alpha >= 0.0):
            raise ValueError("concentration alpha must be >= 0 (inf allowed)")
        if self.beta is not None and not (0.0 <= self.beta <= 1.0):
            raise ValueError("mixture weight beta must lie in [0, 1]")


@dataclass(frozen=True)
class Infeasible:
    """Certified verdict that no distribution reproduces the moments."""

    residual: float


def lambda_from_beta(beta: float) -> float:
    """Regularization weight matching a mixture weight: ``beta / (1 - beta)``."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return beta / (1.0 - beta)


def beta_from_lambda(lam: float) -> float:
    """Mixture weight matching a regularization weight: ``lam / (1 + lam)``."""
    if lam < 0.0:
        raise ValueError("lambda must be >= 0")
    return lam / (1.0 + lam)


def dp_posterior_mean(spec: PriorSpec, data: SampleSet | None) -> DiscreteDistribution:
    """Mixture of the prior estimate and the empirical distribution.

    The prior weight is ``alpha / (alpha + n)`` (``alpha=inf`` returns the
    prior exactly) or the explicit ``beta`` override.
    """
    if spec.beta is not None:
        beta = spec.beta
    else:
        if spec.alpha == 0.0:
            beta = 0.0
        elif math.isinf(spec.alpha):
            return spec.prior_estimate
        else:
            if data is None:
                raise ValueError("the concentration form needs observed data (n >= 1)")
            beta = spec.alpha / (spec.alpha + data.n)
    if beta == 1.0:
        return spec.prior_estimate
    if data is None:
        raise ValueError("a mixture with weight on the empirical side needs data")
    return mixture(beta, spec.prior_estimate, empirical(data))


def _project_to_moments(w: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    correction, *_ = np.linalg.lstsq(c, c @ w - d, rcond=None)
    return w - correction


def _max_entropy_refine(w0: np.ndarray, c: np.ndarray, d: np.ndarray, steps: int = 50) -> np.ndarray:
    """A few projected-gradient entropy steps from an LP vertex.

    Moves inside the moment polytope toward larger entropy, keeping the
    moment residual within tolerance; falls back to the vertex on failure.
    """
    w = w0.copy()
    best = w0
    best_entropy = float(-np.sum(w0[w0 > 0] * np.log(w0[w0 > 0])))
    null_proj = np.eye(c.shape[1]) - np.linalg.pinv(c) @ c
    for _ in range(steps):
        grad = -(np.log(np.maximum(w, 1e-12)) + 1.0)
        direction = null_proj @ grad
        norm = float(np.max(np.abs(direction)))
        if norm < 1e-12:
            break
        step = 0.1 / norm
        falling = direction < -1e-15
        if np.any(falling):
            step = min(step, float(np.min(w[falling] / -direction[falling])) * 0.9)
        if step <= 0.0:
            break
        w = np.maximum(w + step * direction, 0.0)
        w = np.maximum(_project_to_moments(w, c, d), 0.0)
        total = w.sum()
        if total <= 0:
            break
        residual = float(np.max(np.abs(c @ w - d)))
        if residual > MOMENT_TOL:
            break
        entropy = float(-np.sum(w[w > 0] * np.log(w[w > 0])))
        if entropy > best_entropy:
            best_entropy = entropy
            best = w.copy()
    return best


def prior_from_regularizer(
    f: Regularizer,
    cf: CostFunction,
    x_constraints,
    grid: SupportGrid,
    max_entropy: bool = False,
) -> DiscreteDistribution | Infeasible:
    """Find weights whose expected cost reproduces ``f`` at the constraint decisions.

    Solves the moment-feasibility program ``w >= 0, sum w = 1,
    sum_j w_j h(x_k, xi_j) = f(x_k)`` for all constraint points, via a
    minimum-L1-residual LP.  Returns a distribution when the residual is
    within 1e-8 at every constraint, otherwise an :class:`Infeasible` verdict
    carrying the certified minimum residual.  ``max_entropy=True`` nudges the
    LP vertex toward the maximum-entropy representative.
    """
    decisions = list(x_constraints)
    if not decisions:
        raise ValueError("need at least one constraint decision")
    space = DecisionSpace.from_points(decisions)
    h = cost_table(cf, grid, space)
    targets = np.array([f(x) for x in space], dtype=float)
    m = grid.size
    k = len(space)
    # Variables: w (m), then residual splits s+ and s- (k each).
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


def regularizer_from_prior(prior: DiscreteDistribution, cf: CostFunction) -> Regularizer:
    """The regularizer induced by a prior: ``f(x) = E_prior h(x, xi)``."""
    return Regularizer(lambda x: expected_cost(prior, cf, x))
