"""Statistical similarity measures, ambiguity balls, and extremal oracles.

Every divergence kind is one entry of ``_KINDS``: its distance, its radius
cap and its ball oracle, if it has one.  Wasserstein distances are exact
transport linear programs over the shared grid.  The ball oracles, exact for
Wasserstein-p (the finite strong dual, minimized at its breakpoints) and for
forward KL (the exponential-tilting dual, solved by safeguarded Newton
steps), are batched over cost rows and radii: :func:`extremal_values` reads a
table's worst and best cases, and the witnesses attaining them, from one
pass, and :func:`deviation_table` the largest two-sided deviation, which
every robustness measure and the absolute-DRO model read.  Exact results are
kept on the distribution they were computed from (its ``_memo``), so a
repeated instance, or a table made of rows of a solved one, costs no second
solve.  The Wasserstein dual's per-atom envelopes depend on the cost table
and the metric alone, and the centre's weights only weigh them, so their
walk is kept on the grid (its ``_memo``), over the atoms walked so far: a
later centre on the grid and table walks only the support atoms no centre
has walked, and weighs the rest.  The cost tables that callers pass in are
kept in turn on their cost function (:func:`drolab.cost.cost_table`), so a
repeated report builds no table either.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from drolab.lp import LPFailureError, solve_lp
from drolab.support import DiscreteDistribution, GridMismatchError, SupportGrid, _normalize_rows


# Each phi-divergence generator, shared by both orientations: phi, and
# lim phi(t)/t as t -> inf, the cost per unit of mass placed where the
# reference distribution has none.  KL's phi is t log t, with 0 log 0 = 0.
_GENERATORS = {
    "kl": (lambda t: t * np.log(np.where(t > 0.0, t, 1.0)), math.inf),
    "chi2": (lambda t: (t - 1.0) ** 2, math.inf),
    "tv": (lambda t: 0.5 * np.abs(t - 1.0), 0.5),
}
DIVERGENCE_KINDS = ("wasserstein", *_GENERATORS)
ORIENTATIONS = ("forward", "reverse")
# The one optional field of a divergence document that each kind reads: the
# Wasserstein order, or a phi-divergence's orientation.
DIVERGENCE_FIELD = {"wasserstein": "p", **dict.fromkeys(_GENERATORS, "orientation")}
_MEMBERSHIP_SLACK = 1e-10


def _phi(generator: str, t: np.ndarray) -> np.ndarray:
    if generator not in _GENERATORS:
        raise ValueError(f"unknown phi generator {generator!r}")
    return _GENERATORS[generator][0](np.asarray(t, dtype=float))


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
            key = "wasserstein"
        else:
            if self.generator not in _GENERATORS:
                raise ValueError(f"unknown phi generator {self.generator!r}")
            if self.orientation not in ORIENTATIONS:
                raise ValueError("orientation must be 'forward' or 'reverse'")
            key = self.generator if self.orientation == "forward" else f"{self.generator}-rev"
        # The kind's entry in ``_KINDS``, which every other method reads.
        object.__setattr__(self, "_key", key)

    @classmethod
    def wasserstein_order(cls, p: float = 1.0) -> "DivergenceKind":
        return cls("wasserstein", p=float(p))

    @classmethod
    def from_json(cls, doc: dict | None, ball: bool = False) -> "DivergenceKind":
        """Build ``{"kind", "p"}`` or ``{"kind", "orientation"}`` (see
        ``DIVERGENCE_FIELD``); a missing document means W1.  With ``ball``, a
        kind without a ball oracle is rejected."""
        doc = doc or {"kind": "wasserstein"}
        kind = doc["kind"]
        if kind not in DIVERGENCE_KINDS:
            raise ValueError(f"unknown divergence kind {kind!r}; available: {list(DIVERGENCE_KINDS)}")
        out = (cls.wasserstein_order(doc.get("p", 1.0)) if kind == "wasserstein"
               else cls("phi", generator=kind, orientation=doc.get("orientation", "forward")))
        if ball and not out.has_ball_oracle:
            raise ValueError(f"{out.label()} balls have no extremal-expectation oracle")
        return out

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
        return _KINDS[self._key].distance(self, q, center)

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
        return _KINDS[self._key].radius_cap(center)

    @property
    def has_ball_oracle(self) -> bool:
        """Whether :func:`extremal_expectation` solves balls of this kind."""
        return _KINDS[self._key].values is not None

    def label(self) -> str:
        return f"wasserstein-{self.p:g}" if self.family == "wasserstein" else self._key


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
    identical float without a second solve for as long as ``b`` lives.  Equal
    weights are at distance 0 with no LP: the LP's reduced-cost tolerance
    would pass a plan that moves mass between near-coincident atoms.
    """
    _check_transport(a, b, p)
    if np.array_equal(a.weights, b.weights):
        return 0.0
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
    aw, bw = a.weights, b.weights
    pos = bw > 0.0
    total = float(np.sum(bw[pos] * _phi(generator, aw[pos] / bw[pos])))
    escaped = float(np.sum(aw[~pos]))
    if escaped > 0.0:
        slope = _GENERATORS[generator][1]
        total = total + slope * escaped if math.isfinite(slope) else math.inf
    return total


def membership(ball: AmbiguityBall, q: DiscreteDistribution) -> bool:
    """Whether ``q`` lies in the closed ball (within a 1e-10 slack)."""
    _require_same_grid(ball.center, q)
    return ball.kind.distance(q, ball.center) <= ball.radius + _MEMBERSHIP_SLACK


def _envelope_walk(c: np.ndarray, dist_pow: np.ndarray) -> tuple[np.ndarray, ...]:
    """The steps of the per-atom upper envelopes ``max_i (c[k, i] - lam *
    dist_pow[i, j])`` of the cost rows ``c`` over the metric columns
    ``dist_pow``, one per atom ``j`` walked.

    Walks every envelope from ``lam = 0`` upward at once, over all rows and
    columns: the active line hands over to the flattest line that overtakes
    it first, so each envelope takes at most ``m - 1`` steps.  Each (row,
    column) is walked alone, and no centre weight enters.  Returns the
    number of steps per (row, column), and the (rows, 3, steps, columns)
    events: per step the multiplier ``lam`` where it happens and the
    changes of intercept and slope it makes.  Step 0 is the first active
    line, at ``lam = 0``, as changes from nothing; steps past a column's
    last read ``lam = inf`` and no change.
    """
    rows, cols = np.arange(c.shape[0])[:, None], np.arange(dist_pow.shape[1])[None, :]
    top = np.max(c, axis=1)
    active = np.argmin(np.where((c == top[:, None])[:, :, None], dist_pow[None], np.inf), axis=1)
    c_act, d_act = c[rows, active], dist_pow[active, cols]
    lam_now = np.zeros(active.shape)
    # (lam, change of intercept, change of slope) per step, each (k, columns).
    events = [(lam_now, c_act, d_act)]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Each atom's own line is flat (the metric's diagonal is 0), so an
        # envelope can still move exactly while its active slope is > 0.
        while d_act.any():
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
                np.where(live, c_new - c_act, 0.0),
                np.where(live, d_new - d_act, 0.0),
            ))
            c_act, d_act = np.where(live, c_new, c_act), np.where(live, d_new, d_act)
    events = np.array(events).transpose(2, 1, 0, 3)
    return np.sum(np.isfinite(events[:, 0, 1:]), axis=1), events


def _with_columns(
    entry: tuple[np.ndarray, ...], c: np.ndarray, dist_pow: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, ...]:
    """A grid entry, :func:`_envelope_walk`'s arrays over every atom with
    ``-1`` steps at an atom not walked, with the atoms ``cols`` walked as
    well: new arrays, as deep as the deeper walk."""
    count, events = entry
    steps, walked = _envelope_walk(c, dist_pow[:, cols])
    count = count.copy()
    count[:, cols] = steps
    k, _, depth, m = events.shape
    out = np.empty((k, 3, max(depth, walked.shape[2]), m))
    out[:, 0], out[:, 1:] = np.inf, 0.0
    out[:, :, :depth] = events
    out[:, :, :walked.shape[2], cols] = walked
    return count, out


def _grid_envelopes(
    grid: SupportGrid, p: float, c: np.ndarray, dist_pow: np.ndarray, supp: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The :func:`_envelope_walk` arrays of the signed cost table ``c`` over
    the atoms of ``grid``, walked at least at the atoms ``supp``, from the
    grid's entry for the order and table (:func:`_kept`; a table made of
    rows of a kept table is gathered from it).  The walk depends on the table and the metric alone,
    so every centre on the grid shares the entry.  Only the atoms of
    ``supp`` that the entry has not walked are walked, and the entry is
    replaced by one that holds them too, so no centre walks more columns
    than its own support."""
    key = ("wasserstein_envelopes", float(p))
    k, m = c.shape
    # A new entry starts from no atom walked.
    entry = _kept(grid, key, lambda: _with_columns((np.full((k, m), -1), np.zeros((k, 3, 0, m))), c, dist_pow, supp), c)
    missing = supp[np.any(entry[0][:, supp] < 0, axis=0)]
    if missing.size:
        entry = _keep(grid, (key, c.shape, c.tobytes()), _with_columns(entry, c, dist_pow, missing))
    return entry


def _weighted_envelopes(entry: tuple[np.ndarray, ...], supp: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Breakpoints of ``G(lam) = sum_j w_j max_i (c[k, i] - lam *
    dist_pow[i, j])`` over the support ``supp`` of weights ``w``, from the
    grid's envelope walk ``entry`` of ``c`` (:func:`_grid_envelopes`).

    Returns per row, in increasing ``lam`` (starting at 0), the breakpoints
    and the intercept ``a`` and slope ``s`` sums with ``G(lam) = a - lam *
    s`` there; rows with fewer breakpoints are padded with ``lam = 0`` and
    ``a = inf``.  The events are the sums at ``lam = 0``, then one
    ``|supp|``-wide block per step, up to the most steps any support
    column has, stably sorted by ``lam``.
    """
    count, events = entry
    k = count.shape[0]
    events = np.take(events[:, :, :1 + int(np.max(count[:, supp], initial=0))], supp, axis=3)
    # Per row, a flat run of events for each of lam and the weighted changes
    # of a and s.  The sums at lam = 0 add C-ordered runs of |supp|, as a
    # walk weighted step by step did: np.sum rounds an F-ordered copy
    # otherwise.
    flat = np.empty((3, k, 1 + (events.shape[2] - 1) * supp.size))
    flat[0, :, 0] = 0.0
    flat[1:, :, 0] = np.sum(w * np.ascontiguousarray(events[:, 1:, 0]), axis=2).T
    flat[0, :, 1:] = events[:, 0, 1:].reshape(k, -1)
    flat[1:, :, 1:] = (w * events[:, 1:, 1:]).reshape(k, 2, -1).transpose(1, 0, 2)
    order = np.argsort(flat[0], axis=1, kind="stable")
    lam, *sums = flat[:, np.arange(k)[:, None], order]
    pad = np.isinf(lam)
    return np.where(pad, 0.0, lam), np.where(pad, np.inf, np.cumsum(sums[0], axis=1)), np.cumsum(sums[1], axis=1)


def _kept(
    owner, key: tuple, solve: Callable[[], tuple], table: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """``solve()``'s arrays, kept in ``owner``'s memo (a centre's or a
    grid's) under ``key`` for as long as ``owner`` lives, so a later call
    with that key solves nothing.  The memo keeps arrays only (a function
    closing over a centre would tie it into a reference cycle); every later
    call shares them, so they are read-only.  Two threads that miss on one
    key at once both solve and store equal arrays.

    With a ``table``, whose row ``i`` alone decides row ``i`` of every
    array, the table's shape and bytes complete the key.  A table whose
    every row is, byte for byte, a row of a table kept under the same
    ``key`` is served from it: those rows of its arrays are gathered, and
    nothing new is kept.  An entry may be replaced by a fuller one under its
    own key (:func:`_keep`): a grid's envelope entry gains the columns that
    a later centre walks (:func:`_grid_envelopes`).  Two threads that extend
    one grid entry at once may each drop the other's columns, which a later
    centre walks again, to the same bits.
    """
    full = key if table is None else (key, table.shape, table.tobytes())
    found = owner._memo.get(full)
    if found is not None:
        return found
    if table is not None:
        rows = _row_bytes(full[2], table.shape[1])
        for kept_key, kept in list(owner._memo.items()):
            if kept_key[0] == key:
                where = {row: i for i, row in enumerate(_row_bytes(kept_key[2], table.shape[1]))}
                at = [where.get(row) for row in rows]
                if None not in at:
                    return tuple(arr[at] for arr in kept)
    return _keep(owner, full, solve())


def _keep(owner, full: tuple, arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """``arrays``, made read-only and kept in ``owner``'s memo under ``full``."""
    for arr in arrays:
        arr.setflags(write=False)
    owner._memo[full] = arrays
    return arrays


def _row_bytes(data: bytes, m: int) -> list[bytes]:
    """The bytes of each row of an ``m``-column float table from its bytes."""
    width = 8 * m
    return [data[i:i + width] for i in range(0, len(data), width)]


def _dual_breakpoints(
    center: DiscreteDistribution, p: float, c: np.ndarray, dist_pow: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:func:`_weighted_envelopes` of the signed cost table ``c`` (both
    senses of a table, stacked by :func:`_signed_pass`) over the support of
    ``center``, weighted once per (order, table) for as long as ``center``
    lives, so it serves every radius grid.  The envelope walk it weighs is
    the grid's (:func:`_grid_envelopes`), shared with every other centre on
    the grid; the weights are the centre's own, so the order and the table
    key it.  A table made of rows of a kept table of the same order is
    gathered from it with no weighting (:func:`_kept`); its rows keep that
    table's pad columns, at ``a = inf``, which no dual minimum picks.
    """
    supp = center.support_indices()
    return _kept(center, ("wasserstein_breakpoints", float(p)),
                 lambda: _weighted_envelopes(_grid_envelopes(center.grid, p, c, dist_pow, supp), supp,
                                             center.weights[supp]), c)


def _wasserstein_values(
    center: DiscreteDistribution, kind: DivergenceKind, c: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Wasserstein-p extremal values of the cost rows ``c`` (maximized) at
    each radius, and the dual optimum ``lam`` of each cell, for
    :func:`_wasserstein_witnesses`."""
    # Strong dual (Mohajerin Esfahani & Kuhn 2018, Thm 4.2; Gao & Kleywegt
    # 2023): v(eps) = min_{lam >= 0} lam * eps**p + G(lam) is convex and
    # piecewise linear in lam, so its minimum sits at lam = 0 or at a
    # breakpoint of G, and one breakpoint set per row serves every radius
    # and every later call on the same centre.
    dist_pow = center.grid.ground_metric**kind.p
    budgets = radii**kind.p
    lam, a, s = _dual_breakpoints(center, kind.p, c, dist_pow)
    values, lam_best = _dual_minimum(lam, a, s, budgets)
    _resolve_inexact_cells(center, c, dist_pow, budgets, lam, values, lam_best)
    values[:, radii >= center.grid.diameter] = np.max(c, axis=1)[:, None]
    return values, lam_best


def _dual_minimum(lam: np.ndarray, a: np.ndarray, s: np.ndarray, budgets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The least of each row's dual values ``a + lam * (budget - s)`` over
    its breakpoints, at each budget, and the breakpoint ``lam`` that attains
    it, the first one on a tie.  The value is the argmin's own element, not
    ``min``'s: on a row whose least values are +0.0 and -0.0 the two read
    zeros of opposite signs."""
    dual = a[:, :, None] + lam[:, :, None] * (budgets[None, None, :] - s[:, :, None])
    best = np.argmin(dual, axis=1)
    rows = np.arange(lam.shape[0])[:, None]
    return dual[rows, best, np.arange(budgets.size)], lam[rows, best]


# The largest share of a row's cost scale, max(1, max |c|), that the rounding
# of a Wasserstein dual value read from the breakpoints' running sums may
# reach through its multiplier; cells above it are solved again on the direct
# form.  On the benchmark's workloads no cell's bound reaches 1/900 of it.
_RUNNING_SUM_ERROR_MAX = 1e-10
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _resolve_inexact_cells(
    center: DiscreteDistribution, c: np.ndarray, dist_pow: np.ndarray, budgets: np.ndarray,
    lam: np.ndarray, values: np.ndarray, lam_best: np.ndarray,
) -> None:
    """Solve again, in place, the cells of :func:`_wasserstein_values` whose
    value the running sums ``a - lam * s`` may carry too much rounding into:
    ``s`` sums up to ``max dist_pow`` over up to ``1 + m**2`` terms, so a
    large dual optimum ``lam`` leaves up to ``(1 + m**2) * u * lam * (max
    dist_pow + eps**p)``, ``u`` the unit roundoff.  A cell above
    :data:`_RUNNING_SUM_ERROR_MAX` of its row's cost scale walks the direct
    form ``H(lam) = lam * eps**p + sum_j w_j max_i (c_i - lam * dist_pow[i,
    j])``, convex and within the costs' range at the optimum, over its row's
    distinct breakpoints from the pick: left while ``H`` does not rise (a tie
    keeps the least), then right while it falls, to the minimum of ``H``.
    """
    reach = lam_best * ((1 + dist_pow.size) * _UNIT_ROUNDOFF * (float(np.max(dist_pow)) + budgets))
    if float(np.max(reach)) <= _RUNNING_SUM_ERROR_MAX:
        return  # within every row's bound: a cost scale is at least 1
    inexact = reach > _RUNNING_SUM_ERROR_MAX * np.maximum(1.0, np.max(np.abs(c), axis=1))[:, None]
    supp = center.support_indices()
    w, d = center.weights[supp], dist_pow[:, supp]
    for k in np.flatnonzero(inexact.any(axis=1)):
        steps = np.unique(lam[k])
        direct = lambda i, r: steps[i] * budgets[r] + np.max(c[k][:, None] - steps[i] * d, axis=0) @ w
        for r in np.flatnonzero(inexact[k]):
            i = int(np.searchsorted(steps, lam_best[k, r]))
            best = direct(i, r)
            for step, better in ((-1, np.less_equal), (1, np.less)):
                while 0 <= i + step < steps.size and better(h := direct(i + step, r), best):
                    i, best = i + step, h
            values[k, r], lam_best[k, r] = best, steps[i]


def _wasserstein_witnesses(
    center: DiscreteDistribution, kind: DivergenceKind, c: np.ndarray, radii: np.ndarray, lam: np.ndarray
) -> Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]:
    """The witness builder of :func:`_wasserstein_values`' cells: primal
    optima for their dual optima ``lam[k, r]``, as unnormalized weights.

    Every centre atom moves to an atom that attains its max in the dual
    objective at ``lam``: the nearest such atom, or the farthest, so that the
    transport budget is spent exactly when ``lam > 0``.  At most one atom's
    mass per row is split between the two.  One pass over (rows, atoms,
    support); a row's weights do not depend on the other rows.
    """
    supp = center.support_indices()
    w = center.weights[supp]
    d = (center.grid.ground_metric**kind.p)[:, supp]
    budgets = radii**kind.p
    covers = radii >= center.grid.diameter
    cols = np.arange(supp.size)

    def witnesses(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        q = np.zeros((rows.size, center.grid.size))
        if covers[r]:
            # The ball covers the whole simplex; a Dirac at the best atom wins.
            q[np.arange(rows.size), np.argmax(c[rows], axis=1)] = 1.0
            return q, np.zeros(rows.size, dtype=bool)
        cr, lr = c[rows], lam[rows, r]
        vals = cr[:, :, None] - lr[:, None, None] * d
        top = np.max(vals, axis=1, keepdims=True)
        scale = np.maximum(np.maximum(1.0, np.max(np.abs(cr), axis=1)), lr * float(np.max(d)))
        near = vals >= top - (1e-12 * scale)[:, None, None]
        nearest = np.argmin(np.where(near, d, np.inf), axis=1)
        farthest = np.argmax(np.where(near, d, -np.inf), axis=1)
        # Share of each atom's mass sent to the farthest choice, spending what
        # the nearest choices leave of the budget in support order.
        extra = w * (d[farthest, cols] - d[nearest, cols])
        need = float(budgets[r]) - np.sum(w * d[nearest, cols], axis=1, keepdims=True)
        before = np.concatenate([np.zeros((rows.size, 1)), np.cumsum(extra, axis=1)[:, :-1]], axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            frac = np.clip(np.where(extra > 0.0, (need - before) / extra, 0.0), 0.0, 1.0)
        frac = np.where((lr > 0.0)[:, None], frac, 0.0)
        at = np.arange(rows.size)[:, None]
        np.add.at(q, (at, nearest), w * (1.0 - frac))
        np.add.at(q, (at, farthest), w * frac)
        return q, np.zeros(rows.size, dtype=bool)

    return witnesses


# A guard on bracket, Newton and bisection steps per cell; on 2,400 random
# rows at radii from 5e-324 to 1 no cell took more than 14.
_KL_MAX_STEPS = 2000


def _kl_tilt_roots(w: np.ndarray, s: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``KL(tilt || w) = eps`` in ``theta = 1/lam`` for every row of
    ``s`` (costs minus their top value, on the support of ``w``) at once.

    The tilt ``t = w * exp(theta * s) / Z`` has ``KL = theta * E_t[s] -
    log Z``, increasing from 0 with ``dKL/dtheta = theta * Var_t(s)``.  As
    ``s <= 0``, 0 on the top atoms, ``Z`` is at least their mass and at most
    1, so one ``exp`` per cell and step forms it and ``log Z`` is finite.
    From the guess ``sqrt(2 eps / Var_w(s))``, raised to the least normal
    double if below it, ``theta`` rises until ``KL >= eps`` closes the
    bracket ``[theta_lo, theta_hi]``: by the Newton step where it moves up,
    capped at twice ``theta``, and else by doubling.  Then Newton steps run,
    with a bisection step whenever one leaves the bracket.  A cell stops
    once ``KL - eps`` is within its own rounding error or a step no longer
    moves ``theta``, or while still unbracketed once all tilt mass off the
    top atoms has underflowed, so that no larger ``theta`` can raise its
    KL.  Every
    operation acts on each row alone, so a cell's bits do not depend on the
    other cells.  Returns ``theta`` and ``log Z`` there.
    """
    n = eps.size
    theta, log_z = np.empty(n), np.empty(n)
    rounding, tiny = 4.0 * np.finfo(float).eps, np.finfo(float).tiny
    var_w = np.sum(w * (s - np.sum(w * s, axis=1, keepdims=True)) ** 2, axis=1)
    th = np.maximum(np.sqrt(2.0 * eps / np.maximum(var_w, tiny)), tiny)
    lo, hi = np.zeros(n), np.full(n, np.inf)
    # The unfinished cells and their rows; compressed only when one finishes.
    active, sa, off_top, ea = np.arange(n), s, s < 0.0, eps
    for _ in range(_KL_MAX_STEPS):
        u = w * np.exp(th[:, None] * sa)
        z = np.sum(u, axis=1)
        lz = np.log(z)
        t = u / z[:, None]
        mean = np.sum(t * sa, axis=1)
        f = (th_mean := th * mean) - lz - ea
        noise = rounding * (1.0 - th_mean + np.abs(lz))
        below = f < 0.0
        lo, hi = np.where(below, th, lo), np.where(below, hi, th)
        slope = th * np.sum(t * (sa - mean[:, None]) ** 2, axis=1)
        newton = th - np.divide(f, slope, out=np.full(f.shape, np.inf), where=slope > 0.0)
        bracketed = np.isfinite(hi)
        step_up = np.where(newton > th, np.minimum(newton, 2.0 * th), 2.0 * th)
        nxt = np.where(bracketed, np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi)), step_up)
        stuck = ~bracketed & (np.sum(np.where(off_top, t, 0.0), axis=1) == 0.0)
        theta[active], log_z[active] = th, lz
        keep = ~((np.abs(f) <= noise) | (nxt == th) | stuck)
        th = nxt
        if not keep.all():
            active, sa, off_top, ea = active[keep], sa[keep], off_top[keep], ea[keep]
            th, lo, hi = th[keep], lo[keep], hi[keep]
        if active.size == 0:
            break
    return theta, log_z


def _kl_values(
    center: DiscreteDistribution, kind: DivergenceKind, c: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, ...]:
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
    top_mass = np.sum(np.where(arg_top, w, 0.0), axis=1)
    # math.log, as radius_cap takes it: a satisficing radius grid ends at
    # exactly this radius when the top atom is the lightest one.
    sat_eps = -np.fromiter(map(math.log, top_mass), float, top_mass.size)
    saturated = ~flat[:, None] & (radii[None, :] >= sat_eps[:, None])
    rows, cols = np.nonzero(~flat[:, None] & ~saturated & (radii > 0.0)[None, :])
    eps = radii[cols]
    root, log_z = _kl_tilt_roots(w, shifted[rows], eps)
    theta = np.full(saturated.shape, np.nan)
    theta[rows, cols] = root
    values = np.repeat(top[:, None], radii.size, axis=1)
    values[flat] = np.array([center.expectation(row) for row in c[flat]])[:, None]
    # Where theta * (c - E_w[c]) < 1, the dual centred on E_w[c] keeps the excess
    # that top + (eps + log Z) / theta cancels away; the clip keeps expm1 finite.
    mean = np.sum(cs * w, axis=1)
    spread = root[:, None] * (cs - mean[:, None])[rows]
    centred = mean[rows] + (eps + np.log1p(np.sum(w * np.expm1(np.minimum(spread, 1.0)), axis=1))) / root
    values[rows, cols] = np.where(np.max(spread, axis=1) < 1.0, centred, top[rows] + (eps + log_z) / root)
    return values, theta, saturated, flat, arg_top, top_mass, shifted


def _kl_witnesses(
    center: DiscreteDistribution, kind: DivergenceKind, c: np.ndarray, radii: np.ndarray, theta: np.ndarray,
    saturated: np.ndarray, flat: np.ndarray, arg_top: np.ndarray, top_mass: np.ndarray, shifted: np.ndarray,
) -> Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]:
    """The witness builder of :func:`_kl_values`' cells, from its arrays."""
    supp = center.support_indices()
    w = center.weights[supp]

    def witnesses(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        # The tilted centre, or the centre conditioned on the top atoms once
        # saturated; flat rows keep the centre itself.
        sat, tilt = saturated[rows, r], ~flat[rows] & ~saturated[rows, r]
        u = w * np.exp(theta[rows[tilt], r][:, None] * shifted[rows[tilt]])
        on_supp = np.zeros((rows.size, w.size))
        on_supp[tilt] = u / np.sum(u, axis=1, keepdims=True)
        on_supp[sat] = np.where(arg_top[rows[sat]], w / top_mass[rows[sat], None], 0.0)
        q = np.zeros((rows.size, center.grid.size))
        q[:, supp] = on_supp
        return q, flat[rows]

    return witnesses


def _at_lightest(cap: Callable[[float], float]) -> Callable[[DiscreteDistribution], float]:
    """The cap ``cap(w)`` of a forward phi divergence whose largest finite
    value is at the Dirac on the lightest support atom, of weight ``w``."""
    return lambda center: cap(float(np.min(center.weights[center.support_indices()])))


def _forward(kind: DivergenceKind, q: DiscreteDistribution, center: DiscreteDistribution) -> float:
    return phi_divergence(q, center, kind.generator)


def _reverse(kind: DivergenceKind, q: DiscreteDistribution, center: DiscreteDistribution) -> float:
    return phi_divergence(center, q, kind.generator)


# One divergence kind: its distance ``(kind, q, center)``, its radius cap
# ``(center)`` and its ball oracle, if any: ``values(center, kind, signed,
# radii)`` solves a signed table (see _signed_pass), and ``witnesses(center,
# kind, signed, radii, *arrays)`` makes the witness builder of its cells from
# the arrays after the values.
_Kind = namedtuple("_Kind", "distance radius_cap values witnesses", defaults=(None, None))
# Every kind a DivergenceKind can be, under its ``_key``; nothing else tells
# the kinds apart.  Entries look the module's functions up when they run, so
# a rebound name (a tracer's, a test's spy) is the one called.
_KINDS = {
    "wasserstein": _Kind(
        lambda kind, q, center: wasserstein(q, center, kind.p), lambda center: center.grid.diameter,
        lambda *args: _wasserstein_values(*args), lambda *args: _wasserstein_witnesses(*args),
    ),
    "kl": _Kind(
        _forward, _at_lightest(lambda w: -math.log(w)),
        lambda *args: _kl_values(*args), lambda *args: _kl_witnesses(*args),
    ),
    "kl-rev": _Kind(_reverse, lambda center: math.inf),
    "chi2": _Kind(_forward, _at_lightest(lambda w: (1.0 - w) ** 2 / w + (1.0 - w))),
    "chi2-rev": _Kind(_reverse, lambda center: math.inf),
    "tv": _Kind(_forward, lambda center: 1.0),
    "tv-rev": _Kind(_reverse, lambda center: 1.0),
}


def _signed_pass(
    center: DiscreteDistribution, kind: DivergenceKind, c: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The ball oracle's arrays for the signed table ``[c; -c]``: its values,
    then its witness builder's inputs, each with ``2 * len(c)`` rows, the
    worst case of ``c`` on top and the worst case of ``-c`` below.  Solved
    once per (kind, radii, signed table) for as long as ``center`` lives,
    or gathered from a kept pass of the same kind and radii (:func:`_kept`):
    the kind itself, the radii's bytes and the signed table key it.
    """
    signed = np.concatenate([c, -c])
    return _kept(center, ("extremal", kind, radii.tobytes()),
                 lambda: _KINDS[kind._key].values(center, kind, signed, radii), signed)


@dataclass(frozen=True)
class Witnesses:
    """The distributions attaining a table of :func:`extremal_values`.

    ``witnesses(k, r)`` builds the member of the ball of radius index ``r``
    that attains row ``k``'s extremal value, and ``witnesses.weights(r)`` is
    the rows-by-atoms matrix of every row's witness weights at that radius.
    Both come from one builder batched over rows, so row ``k`` of
    ``weights(r)`` equals ``witnesses(k, r).weights`` bit for bit.  Nothing
    is built until one of them is called, and each call builds its cells
    anew; a result that may never read its witness holds the cell as
    ``partial(witnesses, k, r)``, which the first read of its ``witness``
    builds (:class:`LazyWitness`).
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


class LazyWitness:
    """The ``witness`` field of a result (``solvers.Solution``,
    ``robustness.RobustnessReport``), set as the field's default: None.

    The constructor takes a distribution, None or a pending witness: a
    :func:`functools.partial` that builds it when called, such as the
    :class:`Witnesses` cell ``partial(witnesses, k, r)``.  The first read of
    the field builds a pending witness and keeps it, so a result whose
    witness is never read builds none.  :func:`dataclasses.replace`,
    :mod:`copy` and pickling all read the field, so they build it too.  Two
    threads reading one pending witness may both build it; they get equal
    bits.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the default, as dataclasses reads it from the class
        held = obj.__dict__[self.name]
        if isinstance(held, partial):
            held = obj.__dict__[self.name] = held()
        return held

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


def extremal_values(
    center: DiscreteDistribution, kind: DivergenceKind, table, radii
) -> tuple[np.ndarray, Witnesses]:
    """Worst-case and best-case expectations of every row of a k-by-m cost
    table over the balls of several radii around ``center``.

    Returns ``values[i, r]``, the worst case of cost row ``i`` over the ball
    of radius ``radii[r]``, with its best case in row ``k + i``, and the
    :class:`Witnesses` attaining those ``2k`` rows: ``witnesses(i, r)`` for
    one cell, ``witnesses.weights(r)`` for every row at one radius.  The
    kind's oracle solves the signed table ``[c; -c]`` in one pass
    (:func:`_signed_pass`), whose upper half is the worst case and whose
    negated lower half is the best case.  The centre keeps the pass for its
    (kind, radii, table), and the Wasserstein breakpoints of the table for
    its order, which serve every other radius grid; a table whose rows are
    all rows of a kept table is read from that table's arrays, with no new
    work and no new entry.  The grid keeps the envelope walk those
    breakpoints weigh, per order and table, so another centre on the grid
    walks only the support atoms that no centre walked before it.  A cell's
    value and witness do not depend on the other cells in the table.
    Witnesses are built only for the cells asked for, when they are asked
    for.  Radius 0 gives the centre's expectation and the centre itself,
    and is the only radius a kind without an oracle admits.
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
    oracle = _KINDS[kind._key].witnesses
    if not np.all(at_center) and oracle is None:
        raise ValueError("extremal expectations are implemented for Wasserstein balls and forward KL balls")
    k = c.shape[0]
    if oracle is not None:
        values, *parts = _signed_pass(center, kind, c, radii)
        values = np.concatenate([values[:k], -values[k:]])
    else:  # every radius is 0, checked above
        values = np.empty((2 * k, radii.size))
    if at_center.any():
        values[:, at_center] = np.tile([center.expectation(row) for row in c], 2)[:, None]

    def build(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        if at_center[r]:
            return np.zeros((rows.size, center.grid.size)), np.ones(rows.size, dtype=bool)
        return oracle(center, kind, np.concatenate([c, -c]), radii, *parts)(rows, r)

    return values, Witnesses(center, 2 * k, build)


def extremal_expectation(
    ball: AmbiguityBall, costs, sense: str = "max"
) -> tuple[float, DiscreteDistribution]:
    """Worst-case (``sense="max"``) or best-case expectation of per-atom costs.

    One cell of :func:`extremal_values`.  Wasserstein balls are solved exactly
    through the finite strong dual; the rounding that the breakpoints'
    running sums add to the value through a large multiplier stays within
    1e-10 of the row's cost scale, ``max(1, max |c|)`` (a cell whose bound
    exceeds that walks the dual's direct form, term by term, from the
    multiplier the running sums picked to its minimum, see
    :func:`_resolve_inexact_cells`), and the witness moves each centre atom
    to an atom attaining its max at the dual optimum, spending the transport
    budget exactly, and attains the value to 1e-9.  KL balls go through the
    exponential-tilting dual ``min_{lam>0} lam*eps + lam*log E_center exp(c/lam)``;
    the returned value is the dual at the root of ``KL(tilt) = eps`` and the
    witness is the tilted center.  Against a per-ball bracketed root search
    (Brent's method, kept in the tests) on 195,408 random cells, with radii
    from 1e-6 to past saturation and cost scales from 1e-3 to 1e3, the
    values agreed to 1.7e-11 and the witnesses attained them to 6.1e-11,
    both relative to ``max(1, |value|)``; no witness's KL exceeded the
    radius by more than 7.8e-15.  Against a multiple-precision root (also
    in the tests), on 1,800 random rows at radii from 1e-300 to 1 and cost
    scales from 1e-3 to 1e3, the values agreed to 4.5e-16 of the row's cost
    scale, ``max(1, max |c|)``; relative to ``max(1, |value|)`` that reads
    up to 1.5e-13, where the value is much smaller than the costs.
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
