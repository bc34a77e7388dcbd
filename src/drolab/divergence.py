"""Statistical similarity measures, ambiguity balls, and extremal oracles.

Wasserstein distances are computed exactly as transport linear programs over
the shared grid.  Worst-case and best-case expectations over Wasserstein
balls come from the finite strong dual, a convex piecewise-linear function of
one multiplier minimized exactly at its breakpoints; over forward KL balls
they come from the exponential-tilting dual, whose multiplier is the root of
a one-dimensional equation found by safeguarded Newton steps.  Both are
batched over cost rows and radii, and :func:`extremal_values` returns a
table's worst and best cases together, stacked as the ``2k`` rows of one
pass over the signed table ``[c; -c]``.  Each exact result is kept on the
distribution it was computed from (its ``_memo``), as arrays or floats only:
a distance on its second argument; on a centre, each (kind, table, radii)
pass and the Wasserstein dual's breakpoints of each signed table; so a
repeated instance costs no second solve.  The witnesses that attain the
values are batched too: one pass builds every row's witness at a radius
(:meth:`Witnesses.weights`), and a single cell's witness is the one-row case
of the same builder.  The largest two-sided deviation of an expectation over
a ball, which every robustness measure and the absolute-DRO model read, is
:func:`deviation_table`: the two halves of one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from drolab.lp import LPFailureError, solve_lp
from drolab.support import DiscreteDistribution, GridMismatchError, SupportGrid, _normalize_rows

_PHI_GENERATORS = ("kl", "chi2", "tv")
DIVERGENCE_KINDS = ("wasserstein", *_PHI_GENERATORS)
ORIENTATIONS = ("forward", "reverse")
_MEMBERSHIP_SLACK = 1e-10


def _phi(generator: str, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if generator == "kl":
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = t[pos] * np.log(t[pos])
        return out
    if generator == "chi2":
        return (t - 1.0) ** 2
    if generator == "tv":
        return 0.5 * np.abs(t - 1.0)
    raise ValueError(f"unknown phi generator {generator!r}")


# lim phi(t)/t as t -> inf: the cost per unit of mass placed where the
# reference distribution has none.
_PHI_SLOPE_AT_INFINITY = {"kl": math.inf, "chi2": math.inf, "tv": 0.5}


@dataclass(frozen=True)
class DivergenceKind:
    """Which similarity measure a ball uses.

    ``family`` is ``"wasserstein"`` (with finite order ``p >= 1``) or
    ``"phi"`` (with a built-in generator).  Phi-divergences are not symmetric;
    ``orientation="forward"`` measures ``F_phi(q || center)`` and
    ``"reverse"`` swaps the arguments.
    """

    family: str
    p: float = 1.0
    generator: str = "kl"
    orientation: str = "forward"

    def __post_init__(self) -> None:
        if self.family not in ("wasserstein", "phi"):
            raise ValueError(f"unknown divergence family {self.family!r}")
        if self.family == "wasserstein":
            if not (math.isfinite(self.p) and self.p >= 1.0):
                raise ValueError("Wasserstein order must be finite and >= 1")
        else:
            if self.generator not in _PHI_GENERATORS:
                raise ValueError(f"unknown phi generator {self.generator!r}")
            if self.orientation not in ORIENTATIONS:
                raise ValueError("orientation must be 'forward' or 'reverse'")

    @classmethod
    def wasserstein_order(cls, p: float = 1.0) -> "DivergenceKind":
        return cls("wasserstein", p=float(p))

    @classmethod
    def from_json(cls, doc: dict | None) -> "DivergenceKind":
        """Build ``{"kind", "p", "orientation"}``; a missing document means W1."""
        doc = doc or {"kind": "wasserstein"}
        kind = doc["kind"]
        if kind not in DIVERGENCE_KINDS:
            raise ValueError(f"unknown divergence kind {kind!r}; available: {list(DIVERGENCE_KINDS)}")
        if kind == "wasserstein":
            return cls.wasserstein_order(doc.get("p", 1.0))
        return cls("phi", generator=kind, orientation=doc.get("orientation", "forward"))

    @classmethod
    def kl(cls, orientation: str = "forward") -> "DivergenceKind":
        return cls("phi", generator="kl", orientation=orientation)

    @classmethod
    def chi2(cls, orientation: str = "forward") -> "DivergenceKind":
        return cls("phi", generator="chi2", orientation=orientation)

    @classmethod
    def tv(cls, orientation: str = "forward") -> "DivergenceKind":
        return cls("phi", generator="tv", orientation=orientation)

    def distance(self, q: DiscreteDistribution, center: DiscreteDistribution) -> float:
        if self.family == "wasserstein":
            return wasserstein(q, center, self.p)
        if self.orientation == "forward":
            return phi_divergence(q, center, self.generator)
        return phi_divergence(center, q, self.generator)

    def radius_cap(self, center: DiscreteDistribution) -> float:
        """A radius at which the ball has stopped growing.

        For Wasserstein balls this is the grid diameter.  A forward phi
        divergence is convex in ``q``, so its largest finite value sits at a
        Dirac on a support atom ``j``: ``-log w_j`` for KL and ``1/w_j - 1``
        for chi-square, largest at the smallest support weight.  TV never
        exceeds 1 in either orientation.  Reverse KL and reverse chi-square
        grow without bound as ``q`` empties an atom the centre holds, so
        their balls never stop growing and the cap is ``inf``.
        """
        if self.family == "wasserstein":
            return center.grid.diameter
        if self.generator == "tv":
            return 1.0
        if self.orientation == "reverse":
            return math.inf
        supp = center.support_indices()
        wmin = float(np.min(center.weights[supp]))
        if self.generator == "kl":
            return -math.log(wmin)
        return (1.0 - wmin) ** 2 / wmin + (1.0 - wmin)

    @property
    def has_ball_oracle(self) -> bool:
        """Whether :func:`extremal_expectation` solves balls of this kind."""
        return self.family == "wasserstein" or (self.generator == "kl" and self.orientation == "forward")

    def label(self) -> str:
        if self.family == "wasserstein":
            return f"wasserstein-{self.p:g}"
        suffix = "" if self.orientation == "forward" else "-rev"
        return f"{self.generator}{suffix}"


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling between two distributions on the grid."""

    matrix: np.ndarray  # (m, m), entry ij moves mass from atom i of a to atom j of b
    cost: float  # sum of matrix * ground_metric**order
    order: float

    def validate(self, a: DiscreteDistribution, b: DiscreteDistribution, tol: float = 1e-9) -> None:
        rows = self.matrix.sum(axis=1)
        cols = self.matrix.sum(axis=0)
        if np.max(np.abs(rows - a.weights)) > tol or np.max(np.abs(cols - b.weights)) > tol:
            raise LPFailureError("transport plan marginals drifted beyond tolerance")
        if np.min(self.matrix) < -tol:
            raise LPFailureError("transport plan has negative mass")
        expected = float(np.sum(self.matrix * a.grid.ground_metric**self.order))
        if abs(expected - self.cost) > max(1e-9, 1e-9 * abs(self.cost)):
            raise LPFailureError("transport plan cost is inconsistent")


@dataclass(frozen=True)
class AmbiguityBall:
    """All distributions within ``radius`` of ``center`` under ``kind``."""

    center: DiscreteDistribution
    radius: float
    kind: DivergenceKind

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("ball radius must be finite and >= 0")

    @property
    def grid(self) -> SupportGrid:
        return self.center.grid


def _require_same_grid(a: DiscreteDistribution, b: DiscreteDistribution) -> None:
    if not a.grid.same_as(b.grid):
        raise GridMismatchError("distributions live on different grids")


def _check_transport(a: DiscreteDistribution, b: DiscreteDistribution, p: float) -> None:
    _require_same_grid(a, b)
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("order must be finite and >= 1")


def optimal_transport(a: DiscreteDistribution, b: DiscreteDistribution, p: float = 1.0) -> TransportPlan:
    """Solve the transport LP between ``a`` and ``b`` with cost ``d**p``.

    The LP is :func:`~drolab.lp.solve_lp`'s transportation form: row sums
    (mass leaving atom i of ``a``) ``a.weights``, column sums ``b.weights``.
    It pivots on the basis tree, with no constraint matrix, and keeps the
    dense tableau's Bland pivots and bits, which the seed-0 benchmark
    reference pins (ROADMAP item 1).
    """
    _check_transport(a, b, p)
    m = a.grid.size
    cost = (a.grid.ground_metric**p).reshape(-1)
    res = solve_lp(cost, marginals=(a.weights, b.weights))
    if not res.ok:
        raise LPFailureError(
            f"transport LP ended with status {res.status!r} on a balanced instance (m={m}, p={p})"
        )
    # The LP can leave tiny negative entries, which are clamped.  The cost is
    # the returned plan's, by solve_lp's own dot product, so it is the LP's
    # objective bit for bit unless an entry was clamped.
    matrix = np.maximum(res.x.reshape(m, m), 0.0)
    plan = TransportPlan(matrix, float(cost @ matrix.reshape(-1)), p)
    plan.validate(a, b)
    return plan


def wasserstein(a: DiscreteDistribution, b: DiscreteDistribution, p: float = 1.0) -> float:
    """Order-p Wasserstein distance: p-th root of the optimal transport cost.

    ``b`` keeps every distance it is asked for, keyed by the order and the
    weights of ``a`` (the grids are equal), so a repeated instance returns the
    identical float without a second solve for as long as ``b`` lives.
    """
    _check_transport(a, b, p)
    key = ("wasserstein", float(p), a.weights.tobytes())
    found = b._memo.get(key)
    if found is None:
        # The LP's cost can round below zero, whose fractional power is complex.
        found = b._memo[key] = max(optimal_transport(a, b, p).cost, 0.0) ** (1.0 / p)
    return found


def phi_divergence(a: DiscreteDistribution, b: DiscreteDistribution, generator: str = "kl") -> float:
    """``sum_j b_j phi(a_j / b_j)`` with the convention ``0 * phi(0/0) = 0``.

    Mass of ``a`` outside the support of ``b`` contributes at the generator's
    slope at infinity, so the KL and chi-square divergences of a
    non-absolutely-continuous ``a`` are ``+inf`` while TV stays finite.
    """
    _require_same_grid(a, b)
    if generator not in _PHI_GENERATORS:
        raise ValueError(f"unknown phi generator {generator!r}")
    aw, bw = a.weights, b.weights
    pos = bw > 0.0
    total = float(np.sum(bw[pos] * _phi(generator, aw[pos] / bw[pos])))
    escaped = float(np.sum(aw[~pos]))
    if escaped > 0.0:
        slope = _PHI_SLOPE_AT_INFINITY[generator]
        total = total + slope * escaped if math.isfinite(slope) else math.inf
    return total


def membership(ball: AmbiguityBall, q: DiscreteDistribution) -> bool:
    """Whether ``q`` lies in the closed ball (within a 1e-10 slack)."""
    _require_same_grid(ball.center, q)
    return ball.kind.distance(q, ball.center) <= ball.radius + _MEMBERSHIP_SLACK


def _upper_envelopes(c: np.ndarray, dist_pow: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Breakpoints of ``G(lam) = sum_j w_j max_i (c[k, i] - lam * dist_pow[i, j])``.

    Walks every per-atom upper envelope from ``lam = 0`` upward at once, over
    all cost rows ``k`` and centre atoms ``j``: the active line hands over to
    the flattest line that overtakes it first, so each envelope takes at most
    ``m - 1`` steps.  Returns per row, in increasing ``lam`` (starting at 0),
    the breakpoints and the intercept ``a`` and slope ``s`` sums with
    ``G(lam) = a - lam * s`` there; rows with fewer breakpoints are padded
    with ``lam = 0`` and ``a = inf``.
    """
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


def _dual_breakpoints(
    center: DiscreteDistribution, p: float, c: np.ndarray, dist_pow: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:func:`_upper_envelopes` of the signed cost table ``c`` (both senses
    of a table, stacked by :func:`_signed_pass`) over the support of
    ``center``, walked once per (order, table) for as long as ``center``
    lives, so it serves every radius grid.  The centre's weights and metric
    are its own, so the order and the table's shape and bytes key its memo;
    every later call shares the arrays, which are therefore read-only.  Two
    threads that miss on one key at once both walk and store equal arrays.
    """
    key = ("wasserstein_breakpoints", float(p), c.shape, c.tobytes())
    found = center._memo.get(key)
    if found is None:
        supp = center.support_indices()
        found = _upper_envelopes(c, dist_pow[:, supp], center.weights[supp])
        for arr in found:
            arr.setflags(write=False)
        center._memo[key] = found
    return found


def _wasserstein_witness(
    center: DiscreteDistribution, c: np.ndarray, dist_pow: np.ndarray, budget: float, lam: np.ndarray
) -> np.ndarray:
    """Primal optima for the dual optima ``lam[k]`` of the cost rows ``c[k]``
    (maximized), as unnormalized weights, one row per cost row.

    Every centre atom moves to an atom that attains its max in the dual
    objective at ``lam``: the nearest such atom, or the farthest, so that the
    transport budget is spent exactly when ``lam > 0``.  At most one atom's
    mass per row is split between the two.  One pass over (rows, atoms,
    support); a row's weights do not depend on the other rows.
    """
    supp = center.support_indices()
    w = center.weights[supp]
    d = dist_pow[:, supp]
    vals = c[:, :, None] - lam[:, None, None] * d
    top = np.max(vals, axis=1, keepdims=True)
    scale = np.maximum(np.maximum(1.0, np.max(np.abs(c), axis=1)), lam * float(np.max(d)))
    near = vals >= top - (1e-12 * scale)[:, None, None]
    cols = np.arange(supp.size)
    nearest = np.argmin(np.where(near, d, np.inf), axis=1)
    farthest = np.argmax(np.where(near, d, -np.inf), axis=1)
    # Share of each atom's mass sent to the farthest choice, spending what
    # the nearest choices leave of the budget in support order.
    extra = w * (d[farthest, cols] - d[nearest, cols])
    need = budget - np.sum(w * d[nearest, cols], axis=1, keepdims=True)
    before = np.concatenate([np.zeros((c.shape[0], 1)), np.cumsum(extra, axis=1)[:, :-1]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = np.clip(np.where(extra > 0.0, (need - before) / extra, 0.0), 0.0, 1.0)
    frac = np.where((lam > 0.0)[:, None], frac, 0.0)
    rows = np.arange(c.shape[0])[:, None]
    q = np.zeros((c.shape[0], center.grid.size))
    np.add.at(q, (rows, nearest), w * (1.0 - frac))
    np.add.at(q, (rows, farthest), w * frac)
    return q


def _wasserstein_values(
    center: DiscreteDistribution, p: float, c: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Wasserstein-p extremal values of the cost rows ``c`` (maximized) at
    each radius, and the dual optimum ``lam`` of each cell, for
    :func:`_wasserstein_witnesses`."""
    # Strong dual (Mohajerin Esfahani & Kuhn 2018, Thm 4.2; Gao & Kleywegt
    # 2023): v(eps) = min_{lam >= 0} lam * eps**p + G(lam) is convex and
    # piecewise linear in lam, so its minimum sits at lam = 0 or at a
    # breakpoint of G, and one breakpoint set per row serves every radius
    # and every later call on the same centre.
    dist_pow = center.grid.ground_metric**p
    budgets = radii**p
    lam, a, s = _dual_breakpoints(center, p, c, dist_pow)
    dual = a[:, :, None] + lam[:, :, None] * (budgets[None, None, :] - s[:, :, None])
    best = np.argmin(dual, axis=1)
    values = np.take_along_axis(dual, best[:, None, :], axis=1)[:, 0, :]
    values[:, radii >= center.grid.diameter] = np.max(c, axis=1)[:, None]
    return values, np.take_along_axis(lam, best, axis=1)


def _wasserstein_witnesses(
    center: DiscreteDistribution, p: float, c: np.ndarray, radii: np.ndarray, lam: np.ndarray
) -> Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]:
    """The witness builder of :func:`_wasserstein_values`' cells, from their
    dual optima ``lam[k, r]``."""
    dist_pow = center.grid.ground_metric**p
    budgets = radii**p
    covers = radii >= center.grid.diameter

    def witnesses(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        if covers[r]:
            # The ball covers the whole simplex; a Dirac at the best atom wins.
            q = np.zeros((rows.size, center.grid.size))
            q[np.arange(rows.size), np.argmax(c[rows], axis=1)] = 1.0
        else:
            q = _wasserstein_witness(center, c[rows], dist_pow, float(budgets[r]), lam[rows, r])
        return q, np.zeros(rows.size, dtype=bool)

    return witnesses


def _log_sum_exp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis, computed as SciPy computes
    it: the largest terms leave the sum and come back through ``log1p``, so
    one dominant term keeps full precision."""
    top = np.max(a, axis=-1, keepdims=True)
    is_top = a == top
    count = np.sum(is_top, axis=-1, keepdims=True, dtype=float)
    rest = np.sum(np.exp(np.where(is_top, -np.inf, a - top)), axis=-1, keepdims=True) / count
    return (np.log1p(rest) + np.log(count) + top)[..., 0]


# A guard on bracket doublings plus Newton or bisection steps per cell; on
# random instances no cell took more than 26.
_KL_MAX_STEPS = 2000


def _kl_tilt_roots(w: np.ndarray, s: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``KL(tilt || w) = eps`` in ``theta = 1/lam`` for every row of
    ``s`` (costs minus their top value, on the support of ``w``) at once.

    The tilt ``t ~ w * exp(theta * s)`` has ``KL = theta * E_t[s] - log Z``,
    increasing from 0 with ``dKL/dtheta = theta * Var_t(s)``.  From the
    small-radius guess ``sqrt(2 eps / Var_w(s))`` the upper end of the
    bracket ``[0, theta_hi]`` doubles until ``KL >= eps``; then Newton steps
    run, with a bisection step whenever one leaves the bracket.  A cell
    stops once ``KL - eps`` is within its own rounding error or a step no
    longer moves ``theta``, or while still unbracketed once all tilt mass off
    the top atoms has underflowed, so that no larger ``theta`` can raise its
    KL.  Every operation acts on each row alone, so a cell's bits do not
    depend on the other cells.  Returns ``theta`` and ``log Z`` there.
    """
    n = eps.size
    log_w = np.log(w)
    theta, log_z = np.empty(n), np.empty(n)
    rounding = 4.0 * np.finfo(float).eps
    var_w = np.sum(w * (s - np.sum(w * s, axis=1, keepdims=True)) ** 2, axis=1)
    th = np.sqrt(2.0 * eps / np.maximum(var_w, np.finfo(float).tiny))
    lo, hi = np.zeros(n), np.full(n, np.inf)
    active = np.arange(n)
    for _ in range(_KL_MAX_STEPS):
        sa = s[active]
        a = log_w + th[:, None] * sa
        lz = _log_sum_exp(a)
        t = np.exp(a - lz[:, None])
        mean = np.sum(t * sa, axis=1)
        f = th * mean - lz - eps[active]
        noise = rounding * (1.0 + th * np.sum(t * np.abs(sa), axis=1) + np.abs(lz))
        below = f < 0.0
        lo, hi = np.where(below, th, lo), np.where(below, hi, th)
        slope = th * np.sum(t * (sa - mean[:, None]) ** 2, axis=1)
        newton = th - np.divide(f, slope, out=np.full(f.shape, np.inf), where=slope > 0.0)
        bracketed = np.isfinite(hi)
        nxt = np.where(bracketed, np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi)), 2.0 * th)
        stuck = ~bracketed & (np.sum(np.where(sa < 0.0, t, 0.0), axis=1) == 0.0)
        theta[active], log_z[active] = th, lz
        keep = ~((np.abs(f) <= noise) | (nxt == th) | stuck)
        active, th, lo, hi = active[keep], nxt[keep], lo[keep], hi[keep]
        if active.size == 0:
            break
    return theta, log_z


def _kl_values(center: DiscreteDistribution, c: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, ...]:
    """Forward-KL extremal values of the cost rows ``c`` (maximized) at each
    radius, and what :func:`_kl_witnesses` needs: per cell the root ``theta``
    and whether the ball is saturated, per row whether it is flat, its top
    atoms on the support and their mass, and its costs minus their top."""
    # Exponential-tilting dual (Hu & Hong 2013): v(eps) = min_{lam > 0}
    # lam * eps + lam * log E_center exp(c / lam), attained where the tilt's
    # KL equals eps.  Flat rows keep the centre.  Once eps reaches -log of
    # the centre's mass on the top atoms, the centre conditioned on them
    # attains the top cost.  Radius-0 cells are left to the caller.
    supp = center.support_indices()
    w = center.weights[supp]
    cs = c[:, supp]
    top = np.max(cs, axis=1)
    shifted = cs - top[:, None]
    flat = top - np.min(cs, axis=1) < 1e-15
    arg_top = cs >= (top - 1e-15)[:, None]
    top_mass = np.array([float(np.sum(w[row])) for row in arg_top])
    # math.log, as radius_cap takes it: a satisficing radius grid ends at
    # exactly this radius when the top atom is the lightest one.
    sat_eps = np.array([-math.log(mass) for mass in top_mass])
    saturated = ~flat[:, None] & (radii[None, :] >= sat_eps[:, None])
    rows, cols = np.nonzero(~flat[:, None] & ~saturated & (radii > 0.0)[None, :])
    eps = radii[cols]
    root, log_z = _kl_tilt_roots(w, shifted[rows], eps)
    theta = np.full(saturated.shape, np.nan)
    theta[rows, cols] = root
    values = np.repeat(top[:, None], radii.size, axis=1)
    values[flat] = np.array([center.expectation(row) for row in c[flat]])[:, None]
    lam = 1.0 / root
    values[rows, cols] = lam * eps + lam * log_z + top[rows]
    return values, theta, saturated, flat, arg_top, top_mass, shifted


def _kl_witnesses(
    center: DiscreteDistribution, theta: np.ndarray, saturated: np.ndarray, flat: np.ndarray,
    arg_top: np.ndarray, top_mass: np.ndarray, shifted: np.ndarray,
) -> Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]:
    """The witness builder of :func:`_kl_values`' cells, from its arrays."""
    supp = center.support_indices()
    w = center.weights[supp]

    def witnesses(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        # The tilted centre, or the centre conditioned on the top atoms once
        # saturated; flat rows keep the centre itself.
        sat, tilt = saturated[rows, r], ~flat[rows] & ~saturated[rows, r]
        a = np.log(w) + theta[rows[tilt], r][:, None] * shifted[rows[tilt]]
        on_supp = np.zeros((rows.size, w.size))
        on_supp[tilt] = np.exp(a - _log_sum_exp(a)[:, None])
        on_supp[sat] = np.where(arg_top[rows[sat]], w / top_mass[rows[sat], None], 0.0)
        q = np.zeros((rows.size, center.grid.size))
        q[:, supp] = on_supp
        return q, flat[rows]

    return witnesses


def _signed_pass(
    center: DiscreteDistribution, kind: DivergenceKind, c: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The ball oracle's arrays for the signed table ``[c; -c]``: its values,
    then its witness builder's inputs, each with ``2 * len(c)`` rows, the
    worst case of ``c`` on top and the worst case of ``-c`` below.  Solved
    once per (kind, table, radii) for as long as ``center`` lives: the kind
    itself, the table's shape and bytes and the radii's bytes key its memo,
    which keeps arrays only (a function closing over ``center`` would tie
    the centre into a reference cycle).  Every later call shares the arrays,
    which are therefore read-only.  Two threads that miss
    on one key at once both solve and store equal arrays.
    """
    key = ("extremal", kind, c.shape, c.tobytes(), radii.tobytes())
    found = center._memo.get(key)
    if found is None:
        signed = np.concatenate([c, -c])
        if kind.family == "wasserstein":
            found = _wasserstein_values(center, kind.p, signed, radii)
        else:
            found = _kl_values(center, signed, radii)
        for arr in found:
            arr.setflags(write=False)
        center._memo[key] = found
    return found


@dataclass(frozen=True)
class Witnesses:
    """The distributions attaining a table of :func:`extremal_values`.

    ``witnesses(k, r)`` is a member of the ball of radius index ``r`` that
    attains row ``k``'s extremal value, and ``witnesses.weights(r)`` is the
    rows-by-atoms matrix of every row's witness weights at that radius.  Both
    come from one builder batched over rows, so row ``k`` of ``weights(r)``
    equals ``witnesses(k, r).weights`` bit for bit.
    """

    center: DiscreteDistribution
    rows: int
    # (row indices, radius index) -> (unnormalized weights, one row each, and
    # which rows are the centre itself; those rows' weights are ignored)
    build: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]

    def __call__(self, k: int, r: int) -> DiscreteDistribution:
        q, at_center = self.build(np.array([k]), r)
        return self.center if at_center[0] else DiscreteDistribution(self.center.grid, q[0])

    def weights(self, r: int) -> np.ndarray:
        q, at_center = self.build(np.arange(self.rows), r)
        q[~at_center] = _normalize_rows(q[~at_center])
        q[at_center] = self.center.weights
        return q


def extremal_values(
    center: DiscreteDistribution, kind: DivergenceKind, table, radii
) -> tuple[np.ndarray, Witnesses]:
    """Worst-case and best-case expectations of every row of a k-by-m cost
    table over the balls of several radii around ``center``.

    Returns ``values[i, r]``, the worst case of cost row ``i`` over the ball
    of radius ``radii[r]``, with its best case in row ``k + i``, and the
    :class:`Witnesses` attaining those ``2k`` rows: ``witnesses(i, r)`` for
    one cell, ``witnesses.weights(r)`` for every row at one radius.
    Wasserstein balls are solved exactly through the finite strong dual
    ``min_{lam>=0} lam*eps**p + sum_j w_j max_i (c_i - lam*d_ij**p)``, with
    one set of dual breakpoints per row shared by all radii.  Forward KL
    balls are solved through the exponential-tilting dual of
    :func:`extremal_expectation`, one vectorised root search over every
    (row, radius) cell that has no closed form.  Either oracle solves the
    signed table ``[c; -c]`` in one pass (:func:`_signed_pass`), whose upper
    half is the worst case and whose negated lower half is the best case,
    and the centre keeps the pass for its (kind, table, radii): a later call
    with that table and those radii solves nothing, and the Wasserstein
    breakpoints, kept per table, serve every other radius grid.  A cell's
    value and witness do not depend on the other cells in the table.
    Witnesses are built only for the cells asked for.  Radius 0 gives the
    centre's expectation and the centre itself.
    """
    c = np.asarray(table, dtype=float)
    if c.ndim != 2 or c.shape[1] != center.grid.size:
        raise ValueError(f"need one cost per atom ({center.grid.size}) in each row, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("costs must be finite")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.ndim != 1 or not np.all(np.isfinite(radii) & (radii >= 0.0)):
        raise ValueError("ball radii must be finite and >= 0")
    at_center = radii == 0.0
    if not np.all(at_center) and not kind.has_ball_oracle:
        raise ValueError("extremal expectations are implemented for Wasserstein balls and forward KL balls")
    k = c.shape[0]
    if kind.has_ball_oracle:
        values, *parts = _signed_pass(center, kind, c, radii)
        if kind.family == "wasserstein":
            ball_witnesses = _wasserstein_witnesses(center, kind.p, np.concatenate([c, -c]), radii, *parts)
        else:
            ball_witnesses = _kl_witnesses(center, *parts)
        values = np.concatenate([values[:k], -values[k:]])
    else:  # every radius is 0, checked above
        values, ball_witnesses = np.empty((2 * k, radii.size)), None
    if at_center.any():
        values[:, at_center] = np.tile([center.expectation(row) for row in c], 2)[:, None]

    def build(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        if at_center[r]:
            return np.zeros((rows.size, center.grid.size)), np.ones(rows.size, dtype=bool)
        return ball_witnesses(rows, r)

    return values, Witnesses(center, 2 * k, build)


def extremal_expectation(
    ball: AmbiguityBall, costs, sense: str = "max"
) -> tuple[float, DiscreteDistribution]:
    """Worst-case (``sense="max"``) or best-case expectation of per-atom costs.

    One cell of :func:`extremal_values`.  Wasserstein balls are solved exactly
    through the finite strong dual; the witness moves each centre atom to an
    atom attaining its max at the dual optimum, spending the transport budget
    exactly, and attains the value to 1e-9.  KL balls go through the
    exponential-tilting dual ``min_{lam>0} lam*eps + lam*log E_center exp(c/lam)``;
    the returned value is the dual at the root of ``KL(tilt) = eps`` and the
    witness is the tilted center.  Against a per-ball bracketed root search
    (Brent's method, kept in the tests) on 201,280 random cells, with radii
    from 1e-6 to past saturation and cost scales from 1e-3 to 1e3, the
    values agreed to 3.2e-11 and the witnesses attained them to 2.2e-11,
    both relative to ``max(1, |value|)``; no witness's KL exceeded the
    radius by more than 2.8e-14.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    c = np.asarray(costs, dtype=float)
    if c.shape != (ball.grid.size,):
        raise ValueError(f"need one cost per atom ({ball.grid.size}), got shape {c.shape}")
    values, witness = extremal_values(ball.center, ball.kind, c[None, :], [ball.radius])
    row = 0 if sense == "max" else 1
    return float(values[row, 0]), witness(row, 0)


def deviation_table(
    center: DiscreteDistribution, kind: DivergenceKind, table, radii, ref: float
) -> tuple[np.ndarray, Callable[[int, int], DiscreteDistribution]]:
    """Largest deviation of each cost row's expectation from ``ref``, in
    either direction, over the ball of each radius; ties go to the high side.
    Returns the rows-by-radii deviations and the binding witness of a cell,
    both from one :func:`extremal_values` call.
    """
    return deviations_from(*extremal_values(center, kind, table, radii), ref)


def deviations_from(
    values: np.ndarray, witnesses: Witnesses, ref: float
) -> tuple[np.ndarray, Callable[[int, int], DiscreteDistribution]]:
    """:func:`deviation_table` from an :func:`extremal_values` result: the
    worst-case half's excess over ``ref`` against the best-case half's
    shortfall, and the witness of the binding side."""
    k = len(values) // 2
    up, down = values[:k] - ref, ref - values[k:]
    high = up >= down

    def witness(i: int, r: int) -> DiscreteDistribution:
        return witnesses(i if high[i, r] else k + i, r)

    return np.maximum(up, down), witness
