"""Posterior-mean mixtures and regularizer/prior conversions.

A Dirichlet-process-style prior with concentration ``alpha`` and prior
estimate ``P`` has posterior mean ``alpha/(alpha+n) * P + n/(alpha+n) * Pn``
after n observations.  Conversely, any regularizer that matches the expected
cost under some distribution at every decision grid point turns a regularized
empirical model into such a mixture model.  The matching distribution is found
by a moment-feasibility LP over the weights alone, which reads an orthonormal
basis of the moment rows rather than the rows themselves (the k + 1 rows of
k decisions over m atoms have rank at most m, however large k is).
Residuals and verdicts are still checked on every row: only when that LP
finds no weights within tolerance does a minimum-L1-residual LP over all the
rows run, whose vertex either reproduces the moments or gives the
:class:`Infeasible` verdict and its residual.
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

    def weight(self, n: int) -> float:
        """The prior's weight after ``n >= 1`` observations: ``beta``, or
        ``alpha / (alpha + n)``, which is 1 at ``alpha=inf``."""
        if self.beta is not None:
            return self.beta
        return 1.0 if math.isinf(self.alpha) else self.alpha / (self.alpha + n)


@dataclass(frozen=True)
class Infeasible:
    """Verdict of :func:`prior_from_regularizer` that no distribution was
    found to reproduce the moments.

    ``residual`` is the max-abs moment residual at the vertex the
    minimum-L1-residual LP returns (clamped and renormalised), which exceeds
    :data:`MOMENT_TOL`.  That LP minimizes the residuals' sum, not their
    largest entry, so this is not the smallest max-abs residual any
    distribution attains.
    """

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
    """Mixture of the prior estimate and the empirical distribution, with
    weight :meth:`PriorSpec.weight` on the prior; without data, only a weight
    of 1 (``alpha=inf`` or ``beta=1``) has a posterior mean, the prior.
    """
    if data is None:
        if spec.beta == 1.0 or spec.alpha == math.inf:
            return spec.prior_estimate
        raise ValueError("a mixture with weight on the empirical side needs data")
    beta = spec.weight(data.n)
    return spec.prior_estimate if beta == 1.0 else mixture(beta, spec.prior_estimate, empirical(data))


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


def _lp_weights(x: np.ndarray, h: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float] | None:
    """An LP's weights clamped at 0 and renormalised, with the max-abs moment
    residual they leave; None for a zero weight vector."""
    w = np.maximum(x, 0.0)
    total = w.sum()
    if total <= 0.0:
        return None
    w = w / total
    return w, float(np.max(np.abs(h @ w - targets)))


def _min_l1_weights(h: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """The vertex of ``min sum |h w - f|`` over the simplex, and its residual."""
    k, m = h.shape
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
    found = _lp_weights(res.x[:m], h, targets)
    if found is None:
        raise LPFailureError("moment LP returned a zero weight vector")
    return found


def prior_from_regularizer(
    f: Regularizer,
    cf: CostFunction,
    x_constraints,
    grid: SupportGrid,
    max_entropy: bool = False,
) -> DiscreteDistribution | Infeasible:
    """Find weights whose expected cost reproduces ``f`` at the constraint decisions.

    Solves the moment-feasibility program ``w >= 0, sum w = 1,
    sum_j w_j h(x_k, xi_j) = f(x_k)`` for all constraint points.  A
    zero-objective LP over the weights alone runs first, on an orthonormal
    basis of the row space of ``[h; 1]`` (the left singular vectors above
    numpy's ``matrix_rank`` tolerance), so its equality rows are as many as
    the system's rank, not one per decision.  When its vertex, clamped at 0
    and renormalised, reproduces every moment of every row within
    :data:`MOMENT_TOL` it is the answer.  Otherwise, or when that LP finds
    no vertex, a minimum-L1-residual LP over all the rows (with ``2k`` more
    columns for the residual splits) decides: its vertex is returned when
    its residual is within tolerance, and an :class:`Infeasible` verdict
    carrying that residual when it is not.
    ``max_entropy=True`` nudges the vertex toward the maximum-entropy
    representative.
    """
    decisions = list(x_constraints)
    if not decisions:
        raise ValueError("need at least one constraint decision")
    space = DecisionSpace.from_points(decisions)
    h = cost_table(cf, grid, space)
    targets = f.values(space)
    m = grid.size
    c_full = np.vstack([h, np.ones((1, m))])
    d_full = np.concatenate([targets, [1.0]])
    # An orthonormal basis of the row space, at numpy's matrix_rank tolerance.
    u, s, _ = np.linalg.svd(c_full, full_matrices=False)
    basis = u[:, s > s[0] * max(c_full.shape) * np.finfo(float).eps].T
    res = solve_lp(np.zeros(m), a_eq=basis @ c_full, b_eq=basis @ d_full)
    found = _lp_weights(res.x, h, targets) if res.ok else None
    if found is None or found[1] > MOMENT_TOL:
        found = _min_l1_weights(h, targets)
        if found[1] > MOMENT_TOL:
            return Infeasible(found[1])
    w = found[0]
    if max_entropy:
        w = _max_entropy_refine(w, c_full, d_full)
        w = w / w.sum()
    return DiscreteDistribution(grid, w)


def regularizer_from_prior(prior: DiscreteDistribution, cf: CostFunction) -> Regularizer:
    """The regularizer induced by a prior: ``f(x) = E_prior h(x, xi)``.

    Its batched form reads a whole decision grid from one cost table, one
    dot per row, so each value has the bits of the one-decision form.
    """

    def values(space: DecisionSpace) -> np.ndarray:
        return np.array([prior.weights @ row for row in cost_table(cf, prior.grid, space)])

    return Regularizer(lambda x: expected_cost(prior, cf, x), values)
