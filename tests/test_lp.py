"""The dense simplex against known optima, an independent solver, and the
loop-by-loop Bland simplex it must reproduce bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from _oracles import bland_lp_reference, rational_weights
from conftest import random_grid
from drolab.lp import solve_lp


def _assert_same_result(mine, ref):
    assert (mine.status, mine.iterations) == (ref.status, ref.iterations)
    if ref.x is None:
        assert mine.x is None and mine.value is None and ref.value is None
        return
    assert np.array_equal(mine.x, ref.x)
    assert mine.x.tobytes() == ref.x.tobytes()  # sign bits of zeros too
    assert np.float64(mine.value).tobytes() == np.float64(ref.value).tobytes()


def _solve_checked(c, **blocks):
    """``solve_lp``'s result, checked bit for bit against the loop reference."""
    mine = solve_lp(c, **blocks)
    _assert_same_result(mine, bland_lp_reference(c, **blocks))
    return mine


def test_known_two_variable_lp():
    # min -x - 2y s.t. x + y <= 4, x <= 2, x, y >= 0: optimum (0, 4), value -8.
    # Each unit of the shared budget x + y <= 4 earns 2 on y but 1 on x, and
    # x <= 2 does not bind y, so the whole budget goes to y.
    res = _solve_checked([-1.0, -2.0], a_ub=[[1.0, 1.0], [1.0, 0.0]], b_ub=[4.0, 2.0])
    assert res.ok
    assert res.value == pytest.approx(-8.0, abs=1e-9)
    assert res.x == pytest.approx([0.0, 4.0], abs=1e-9)


def test_equality_constraints():
    # min x + y s.t. x + 2y = 3
    res = _solve_checked([1.0, 1.0], a_eq=[[1.0, 2.0]], b_eq=[3.0])
    assert res.ok
    assert res.value == pytest.approx(1.5, abs=1e-9)


def test_infeasible_detected():
    res = _solve_checked([1.0], a_eq=[[1.0]], b_eq=[1.0], a_ub=[[1.0]], b_ub=[0.5])
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = _solve_checked([-1.0], a_ub=[[-1.0]], b_ub=[1.0])
    assert res.status == "unbounded"


def test_negative_rhs_rows_handled():
    # x >= 2 encoded as -x <= -2; minimize x.
    res = _solve_checked([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
    assert res.ok
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_redundant_equalities():
    res = _solve_checked(
        [1.0, 2.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],  # second row is twice the first
        b_eq=[1.0, 2.0],
    )
    assert res.ok
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_degenerate_transport_does_not_cycle():
    # Dirac-to-Dirac transport: heavily degenerate basis.
    m = 4
    a = np.zeros(m)
    a[0] = 1.0
    b = np.zeros(m)
    b[3] = 1.0
    cost = np.arange(m * m, dtype=float)
    a_eq = np.zeros((2 * m, m * m))
    for i in range(m):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[m + j, j::m] = 1.0
    res = _solve_checked(cost, a_eq=a_eq, b_eq=np.concatenate([a, b]))
    assert res.ok
    assert res.value == pytest.approx(cost[3], abs=1e-9)


@pytest.mark.parametrize("trial", range(30))
def test_random_lps_match_reference_solver(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(1, 4))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.uniform(0.5, 2.0, size=m_ub)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    # Build a feasible equality rhs from a random nonnegative point.
    x0 = rng.uniform(0.0, 1.0, size=n)
    b_eq = a_eq @ x0 if m_eq else None
    b_ub = np.maximum(b_ub, a_ub @ x0 + 0.1)

    mine = solve_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if ref.status == 3:
        assert mine.status == "unbounded"
    else:
        assert ref.status == 0
        assert mine.ok
        assert mine.value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)


def test_solution_feasibility_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = 6
        a_eq = rng.uniform(0, 1, size=(2, n))
        x0 = rng.uniform(0, 1, size=n)
        b_eq = a_eq @ x0
        c = rng.normal(size=n)
        res = solve_lp(c, a_eq=a_eq, b_eq=b_eq)
        assert res.ok
        assert np.max(np.abs(a_eq @ res.x - b_eq)) < 1e-8
        assert np.min(res.x) >= -1e-12


def _weights(rng, m, empty, rational):
    """A weight vector with ``empty`` zero atoms; rational ones tie often."""
    w = rational_weights(rng, m, 4) if rational else rng.dirichlet(np.ones(m))
    w[rng.choice(m, size=min(empty, m - 1), replace=False)] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


def _transport_lp(rng, m, dim, p, empty, rational):
    metric = random_grid(rng, m, dim).ground_metric
    eye = np.eye(m)
    a_eq = np.vstack([np.repeat(eye, m, axis=1), np.tile(eye, m)])
    b_eq = np.concatenate([_weights(rng, m, empty, rational), _weights(rng, m, empty, rational)])
    return {"c": (metric**p).reshape(-1), "a_eq": a_eq, "b_eq": b_eq}


def _ball_coupling_lp(rng, m, dim, p, empty, rational):
    # Extremal expectation over a Wasserstein ball: tied integer costs, the
    # centre's column marginals, and one budget row scaled by the diameter.
    metric = random_grid(rng, m, dim).ground_metric
    costs = rng.integers(-2, 3, size=m).astype(float)
    dist_pow = metric**p
    scale = float(np.max(dist_pow))
    budget = (float(rng.choice([0.0, 0.05, 0.3, 0.7, 1.2])) * float(np.max(metric))) ** p
    sign = float(rng.choice([-1.0, 1.0]))
    return {
        "c": sign * np.repeat(costs, m),
        "a_eq": np.tile(np.eye(m), m),
        "b_eq": _weights(rng, m, empty, rational),
        "a_ub": (dist_pow / scale).reshape(1, -1),
        "b_ub": [budget / scale],
    }


def _moment_lp(rng, m, dim, p, empty, rational):
    # Minimum-L1-residual moment matching, as in bayes.prior_from_regularizer:
    # weights w, then residual splits s+ and s-; targets are attainable or not.
    k = int(rng.integers(1, 4))
    h = rng.integers(0, 4, size=(k, m)).astype(float)
    targets = h @ _weights(rng, m, empty, rational) if rng.random() < 0.5 else rng.uniform(0.0, 4.0, size=k)
    a_eq = np.zeros((k + 1, m + 2 * k))
    a_eq[:k, :m] = h
    a_eq[:k, m : m + k] = np.eye(k)
    a_eq[:k, m + k :] = -np.eye(k)
    a_eq[k, :m] = 1.0
    return {"c": np.concatenate([np.zeros(m), np.ones(2 * k)]), "a_eq": a_eq, "b_eq": np.concatenate([targets, [1.0]])}


def _general_lp(rng, m, dim, p, empty, rational):
    # Small integer data: feasible, infeasible and unbounded instances, rows
    # with negative right-hand sides, and equalities repeated as multiples.
    n = m + 1
    lp = {"c": rng.integers(-3, 4, size=n).astype(float)}
    if rng.random() < 0.7:
        a_eq = rng.integers(-2, 3, size=(int(rng.integers(1, 3)), n)).astype(float)
        b_eq = a_eq @ rng.integers(0, 3, size=n) if rng.random() < 0.8 else rng.integers(-3, 4, size=len(a_eq))
        if rng.random() < 0.5:
            a_eq = np.vstack([a_eq, 2.0 * a_eq[:1]])
            b_eq = np.concatenate([b_eq, 2.0 * b_eq[:1]])
        lp.update(a_eq=a_eq, b_eq=b_eq.astype(float))
    if "a_eq" not in lp or rng.random() < 0.7:
        a_ub = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), n)).astype(float)
        lp.update(a_ub=a_ub, b_ub=rng.integers(-2, 5, size=len(a_ub)).astype(float))
    return lp


_FAMILIES = {"transport": _transport_lp, "ball": _ball_coupling_lp, "moment": _moment_lp, "general": _general_lp}


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(_FAMILIES)),
    m=st.integers(2, 6),
    dim=st.sampled_from([1, 2]),
    p=st.sampled_from([1.0, 2.0]),
    empty=st.integers(0, 2),
    rational=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_bitwise_equal_to_loop_reference(seed, family, m, dim, p, empty, rational):
    lp = _FAMILIES[family](np.random.default_rng(seed), m, dim, p, empty, rational)
    _assert_same_result(solve_lp(**lp), bland_lp_reference(**lp))
