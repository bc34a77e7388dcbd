"""A fixed piece of work that measures how fast this machine runs right now.

The benchmark runs on a few virtual cores of a shared host.  Other tenants
slow every core down in phases, by up to 1.8x, and the phases last from
fractions of a second to minutes, so the mean speed over one run differs from
the next run's by more than the bounds the benchmark fixes.  While ops run,
a ``Pacer`` therefore times one solve of a fixed LP every ``PERIOD_S``
seconds, and each op's time is scaled to the speed at which that solve takes
``PACE_REF_S``: an op on a slowed host is slower and so are the solves timed
during it, and the two cancel.

The kernel is the kind of work drolab spends its time on: Bland-rule simplex
pivots over a small numpy tableau, with Python loops over rows and columns.
It is a frozen copy that this benchmark owns, solving a fixed LP, so no change
to the library moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PACE_REF_S = 0.003  # about the mean solve_once() on a shared 2-vCPU Intel Xeon VM (2.0 GHz)
PERIOD_S = 0.1  # wall time between two samples
MIN_SAMPLES = 5  # an op with fewer samples inside it also uses the ones before it
_ATOMS = 14
RADIUS = 1.5
_TOL = 1e-9
P0 = np.random.default_rng(12345).dirichlet(np.full(_ATOMS, 2.0))
COSTS = np.sin(1.3 * np.arange(_ATOMS)) + 0.1 * np.arange(_ATOMS)
POINTS = np.arange(_ATOMS, dtype=float)


def _ball_lp() -> tuple[np.ndarray, list[int], np.ndarray]:
    """Tableau of max E_q[COSTS] over q within W1 distance RADIUS of P0 on the
    line POINTS, in the variables of the transport plan from P0.  The plan that
    keeps P0 in place is a feasible basis, so no phase 1 runs."""
    m = _ATOMS
    nv = m * m
    tableau = np.zeros((m + 1, nv + 2))
    for i in range(m):
        tableau[i, i * m:(i + 1) * m] = 1.0
        tableau[i, -1] = P0[i]
    tableau[m, :nv] = np.abs(POINTS[:, None] - POINTS[None, :]).ravel()
    tableau[m, nv] = 1.0  # slack of the transport budget
    tableau[m, -1] = RADIUS
    costs = np.concatenate([-np.tile(COSTS, m), [0.0]])
    basis = [i * m + i for i in range(m)] + [nv]
    return tableau, basis, costs


def _pivot(tableau: np.ndarray, basis: list[int], costs: np.ndarray) -> None:
    m = tableau.shape[0]
    ncols = tableau.shape[1] - 1
    while True:
        reduced = costs - costs[basis] @ tableau[:, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return
        col = tableau[:, entering]
        leaving, best = -1, np.inf
        for i in range(m):
            if col[i] > _TOL:
                ratio = tableau[i, -1] / col[i]
                if ratio < best - _TOL or (abs(ratio - best) <= _TOL and leaving >= 0 and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        tableau[leaving, :] /= tableau[leaving, entering]
        for i in range(m):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i, :] -= tableau[i, entering] * tableau[leaving, :]
        basis[leaving] = entering


_TABLEAU, _BASIS, _COSTS = _ball_lp()


def solve_once() -> float:
    """Optimal value of the fixed LP: the worst-case expectation of COSTS."""
    tableau, basis = _TABLEAU.copy(), list(_BASIS)
    _pivot(tableau, basis, _COSTS)
    return -float(_COSTS[basis] @ tableau[:, -1])


class Pacer:
    """While active, times ``solve_once()`` every ``PERIOD_S`` seconds of wall
    time from a SIGALRM handler, so the samples see the machine as the code
    running meanwhile sees it.

    A Python signal handler runs between two bytecodes of the main thread, so a
    sample lies wholly inside or wholly outside any interval the main thread
    times; ``add_op`` takes the samples inside an op's interval out of its time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each solve
        self.scales: list[float] = []  # per op: PACE_REF_S / mean sample time

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        solve_once()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "Pacer":
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def add_op(self, start: float, end: float) -> float:
        """Record the op that ran from ``start`` to ``end``: append its scale
        and return its seconds without the samples taken inside it."""
        inside = [b - a for a, b in self.samples if start <= a and b <= end]
        before = [b - a for a, b in self.samples if b <= end]
        self.scales.append(PACE_REF_S / statistics.fmean(before[-max(MIN_SAMPLES, len(inside)):]))
        return end - start - sum(inside)

    def mean_sample_s(self) -> float:
        return statistics.fmean(b - a for a, b in self.samples)
