"""The dense simplex against known optima, an independent solver, and the
loop-by-loop Bland simplex it must reproduce bit for bit; the transportation
form against the same loop on its dense constraint blocks."""

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


def _transport_blocks(a, b) -> dict:
    """The dense constraint blocks of the transportation form with marginals
    ``(a, b)``: row sums, then column sums, of the flattened coupling."""
    a_eq = np.vstack([np.repeat(np.eye(len(a)), len(b), axis=1), np.tile(np.eye(len(b)), len(a))])
    return {"a_eq": a_eq, "b_eq": np.concatenate([a, b])}


def _reference(lp: dict):
    """The loop reference's result, on the dense blocks of a transportation form."""
    lp = dict(lp)
    marginals = lp.pop("marginals", None)
    if marginals is not None:
        lp.update(_transport_blocks(*marginals))
    return bland_lp_reference(**lp)


def _solve_checked(c, **blocks):
    """``solve_lp``'s result, checked bit for bit against the loop reference."""
    mine = solve_lp(c, **blocks)
    _assert_same_result(mine, _reference({"c": c, **blocks}))
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
    # Dirac-to-Dirac transport: heavily degenerate basis, in both forms.
    m = 4
    a = np.zeros(m)
    a[0] = 1.0
    b = np.zeros(m)
    b[3] = 1.0
    cost = np.arange(m * m, dtype=float)
    for blocks in (_transport_blocks(a, b), {"marginals": (a, b)}):
        res = _solve_checked(cost, **blocks)
        assert res.ok
        assert res.value == pytest.approx(cost[3], abs=1e-9)


@pytest.mark.parametrize("excess, status", [(1e-12, "optimal"), (1e-7, "infeasible"), (0.1, "infeasible")])
def test_unbalanced_marginals_are_infeasible_as_in_the_dense_solve(excess, status):
    a = np.array([0.25, 0.75, 0.0])
    b = np.array([0.5, 0.5 + excess])
    assert _solve_checked(np.arange(6.0), marginals=(a, b)).status == status


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
    blocks = _transport_blocks(_weights(rng, m, empty, rational), _weights(rng, m, empty, rational))
    return {"c": (metric**p).reshape(-1), **blocks}


def _marginals_lp(rng, m, dim, p, empty, rational):
    # The transport LP in the transportation form, from one atom up and from
    # ma supply atoms to mb demand atoms of one grid; one instance in four
    # moves no mass (a == b, an optimal cost of 0).
    ma, mb = (int(k) for k in rng.integers(1, m + 1, size=2))
    a = _weights(rng, ma, empty, rational)
    if rng.random() < 0.25:
        mb, b = ma, a.copy()
    else:
        b = _weights(rng, mb, empty, rational)
    metric = random_grid(rng, max(ma, mb), dim).ground_metric[:ma, :mb]
    return {"c": (metric**p).reshape(-1), "marginals": (a, b)}


def _near_tied_transport(seed: int) -> dict:
    """A transport LP whose ratio tests see right-hand sides a few 1e-11
    apart: within the pivot tolerance of each other, but not all within it
    of the first, so the scan order decides the leaving row."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    a, b = (rational_weights(rng, m, 4) + rng.integers(0, 3, size=m) * 6e-11 for _ in range(2))
    metric = random_grid(rng, m, int(rng.integers(1, 3))).ground_metric
    return {"c": (metric ** float(rng.choice([1.0, 2.0]))).reshape(-1), "marginals": (a, b)}


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
    family=st.sampled_from(sorted(_FAMILIES) + ["marginals"]),
    m=st.integers(2, 6),
    dim=st.sampled_from([1, 2]),
    p=st.sampled_from([1.0, 2.0]),
    empty=st.integers(0, 2),
    rational=st.booleans(),
)
@settings(max_examples=250, deadline=None)
def test_bitwise_equal_to_loop_reference(seed, family, m, dim, p, empty, rational):
    # The transportation form takes one objective, so the stack test below
    # draws from the other families only.
    lp = {**_FAMILIES, "marginals": _marginals_lp}[family](np.random.default_rng(seed), m, dim, p, empty, rational)
    _assert_same_result(solve_lp(**lp), _reference(lp))


def test_transport_ratio_test_scans_near_ties_in_row_order():
    for seed in range(200):
        lp = _near_tied_transport(seed)
        _assert_same_result(solve_lp(**lp), _reference(lp))


def _assert_rows_are_lone_solves(batched, lone, phase1):
    """A stacked solve against the lone solves of its rows: the same bytes
    row for row, and phase 1's pivots counted once."""
    assert batched.ok and batched.x.shape[0] == batched.value.shape[0] == len(lone)
    assert batched.iterations == phase1 + sum(res.iterations - phase1 for res in lone)
    for row, res in enumerate(lone):
        assert batched.x[row].tobytes() == res.x.tobytes()
        assert batched.value[row].tobytes() == np.float64(res.value).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(_FAMILIES)),
    m=st.integers(2, 6),
    dim=st.sampled_from([1, 2]),
    p=st.sampled_from([1.0, 2.0]),
    empty=st.integers(0, 2),
    rational=st.booleans(),
    k=st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_objective_stack_rows_equal_lone_solves(seed, family, m, dim, p, empty, rational, k):
    rng = np.random.default_rng(seed)
    lp = _FAMILIES[family](rng, m, dim, p, empty, rational)
    # The family's objective, its negation, and small integers (which can
    # make the program unbounded), over the one feasible set.
    c = np.asarray(lp.pop("c"), dtype=float)
    stack = np.array([c, -c, rng.integers(-3, 4, size=c.size).astype(float)][:k])
    batched = solve_lp(stack, **lp)
    lone = [solve_lp(row.copy(), **lp) for row in stack]
    # Phase 2 makes no pivot on a zero objective, so this counts phase 1.
    phase1 = solve_lp(np.zeros(stack.shape[1]), **lp).iterations
    if lone[0].status == "infeasible":
        assert (batched.status, batched.x, batched.value, batched.iterations) == ("infeasible", None, None, phase1)
        return
    if not all(res.ok for res in lone):
        assert (batched.status, batched.x, batched.value) == ("unbounded", None, None)
        assert batched.iterations == phase1 + sum(res.iterations - phase1 for res in lone)
        return
    _assert_rows_are_lone_solves(batched, lone, phase1)


def _line_transport(m: int, n: int, seed: int) -> dict:
    """The W1 transport LP between a Dirichlet law on ``m`` line atoms and
    the empirical law of ``n`` draws from it, which misses some atoms."""
    rng = np.random.default_rng(seed)
    atoms = np.linspace(-3.0, 3.0, m)
    p0 = rng.dirichlet(np.full(m, 2.0))
    empirical = rng.multinomial(n, p0) / n
    return {"c": np.abs(atoms[:, None] - atoms[None, :]).reshape(-1), "marginals": (p0, empirical)}


@pytest.mark.parametrize("m, n, seed", [(12, 10, 0), (12, 10, 1), (16, 10, 2), (16, 40, 3)])
def test_line_transport_at_workload_sizes_matches_loop_reference(m, n, seed):
    lp = _line_transport(m, n, seed)
    assert np.any(lp["marginals"][1] == 0.0)
    assert _solve_checked(**lp).ok


def test_coupling_lp_stack_at_workload_size_matches_loop_reference():
    # The absolute-DRO screen's LP on a 16-atom line: newsvendor costs
    # (b = 2, c = 1) at a decision inside the support, W1 radius 0.7.
    m = 16
    atoms = np.arange(m, dtype=float)
    center = np.random.default_rng(3).dirichlet(np.full(m, 2.0))
    costs = np.maximum(2.0 * (atoms - 7.5), 7.5 - atoms)
    metric = np.abs(atoms[:, None] - atoms[None, :])
    scale = float(np.max(metric))
    blocks = {"a_eq": np.tile(np.eye(m), m), "b_eq": center, "a_ub": (metric / scale).reshape(1, -1), "b_ub": [0.7 / scale]}
    obj = np.repeat(costs, m)
    batched = solve_lp(np.multiply.outer([-1.0, 1.0], obj), **blocks)
    lone = [_solve_checked(sign * obj, **blocks) for sign in (-1.0, 1.0)]
    _assert_rows_are_lone_solves(batched, lone, solve_lp(np.zeros(m * m), **blocks).iterations)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "a_eq", "b_eq", "a_ub", "b_ub"])
def test_non_finite_data_rejected(bad, where):
    lp = {"c": [1.0, 2.0], "a_eq": [[1.0, 1.0]], "b_eq": [1.0], "a_ub": [[1.0, 0.0]], "b_ub": [0.5]}
    lp[where] = np.full(np.shape(lp[where]), bad)
    with pytest.raises(ValueError, match="LP data must be finite"):
        solve_lp(**lp)


@pytest.mark.parametrize("shape", [(1, 1, 2), (0, 2)])
def test_objective_not_a_vector_or_stack_rejected(shape):
    with pytest.raises(ValueError, match=r"\(k, n\) stack of k >= 1"):
        solve_lp(np.ones(shape), a_eq=[[1.0, 1.0]], b_eq=[1.0])


@pytest.mark.parametrize(
    "blocks",
    [{"a_eq": [[1.0, 1.0]], "b_eq": [1.0]}, {"a_ub": [[1.0, 0.0]], "b_ub": [0.5]}, {"b_eq": [1.0]}],
)
def test_marginals_with_constraint_blocks_rejected(blocks):
    with pytest.raises(ValueError, match="marginals replace the constraint blocks"):
        solve_lp([1.0, 2.0], marginals=([1.0], [0.5, 0.5]), **blocks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_non_finite_marginals_rejected(bad, side):
    marginals = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    marginals[side][1] = bad
    with pytest.raises(ValueError, match="LP data must be finite"):
        solve_lp(np.ones(4), marginals=marginals)


@pytest.mark.parametrize("side", [0, 1])
def test_negative_marginals_rejected(side):
    marginals = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    marginals[side] = np.array([1.5, -0.5])
    with pytest.raises(ValueError, match="marginals must be nonnegative"):
        solve_lp(np.ones(4), marginals=marginals)


@pytest.mark.parametrize("n", [3, 5])
def test_objective_length_not_the_coupling_size_rejected(n):
    with pytest.raises(ValueError, match=r"len\(a\) \* len\(b\)"):
        solve_lp(np.ones(n), marginals=([0.5, 0.5], [0.5, 0.5]))


def test_objective_stack_rejected_in_transportation_form():
    with pytest.raises(ValueError, match="one objective vector"):
        solve_lp(np.ones((2, 4)), marginals=([0.5, 0.5], [0.5, 0.5]))
