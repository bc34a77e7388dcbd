"""Decision models: SAA variants, min-max, absolute deviation, satisficing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import absolute_dro_lp_sweep, kl_extremal_brentq, simplex_grid, w1_dual_vertices, w1_from_dual_many
from conftest import assert_pending_witness, binding_cell, random_ball_instance, random_distribution, random_grid, witness_builds
from drolab import solvers
from drolab.bayes import beta_from_lambda, regularizer_from_prior
from drolab.cost import CostFunction, DecisionSpace, Regularizer, cost_table, expected_cost, make_cost
from drolab.divergence import AmbiguityBall, DivergenceKind, deviation_table, extremal_expectation, extremal_values
from drolab.solvers import (
    _coupling_lp_deviation,
    satisficing_radius_grid,
    solve_absolute_dro,
    solve_bayes_dp,
    solve_minmax_dro,
    solve_regularized_saa,
    solve_robust_satisficing,
    solve_saa,
    solve_satisficing_models,
)
from drolab.support import DiscreteDistribution, SampleSet, SupportGrid, empirical, sample

W1 = DivergenceKind.wasserstein_order(1.0)


class TestSolveSAA:
    def test_weighted_median(self):
        grid = SupportGrid.euclidean([[0.0], [1.0]])
        data = DiscreteDistribution(grid, [1 / 3, 2 / 3])
        space = DecisionSpace.from_points([0.0, 1.0])
        sol = solve_saa(data, make_cost("absolute"), space)
        assert sol.x == pytest.approx([1.0])

    def test_dirac_data_matches_atom(self, line_grid):
        data = DiscreteDistribution.dirac(line_grid, 1)
        space = DecisionSpace.from_points([0.0, 1.0, 3.0])
        sol = solve_saa(data, make_cost("squared", grid=line_grid, space=space), space)
        assert sol.x == pytest.approx([1.0])
        assert sol.objective_value == pytest.approx(0.0)

    def test_constant_cost_breaks_ties_low(self, line_grid):
        cf = CostFunction("const", lambda x, xi: 3.5)
        space = DecisionSpace.interval(0, 1, 5)
        sol = solve_saa(DiscreteDistribution.uniform(line_grid), cf, space)
        assert sol.x_index == 0
        assert sol.objective_value == pytest.approx(3.5)
        assert sol.diagnostics["ties"] == 5


class TestSolveRegularizedSAA:
    def test_zero_weight_reduces_to_saa(self, line_grid):
        data = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        f = Regularizer(lambda x: float(np.sum(x**2)))
        assert (
            solve_regularized_saa(data, make_cost("absolute"), f, 0.0, space).x_index
            == solve_saa(data, make_cost("absolute"), space).x_index
        )

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_weight_must_be_finite_and_nonnegative(self, line_grid, lam):
        data = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        f = Regularizer(lambda x: 0.0)
        with pytest.raises(ValueError, match="regularization weight must be finite and >= 0"):
            solve_regularized_saa(data, make_cost("absolute"), f, lam, DecisionSpace.interval(0, 3, 7))

    def test_large_weight_follows_regularizer(self, line_grid):
        data = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        f = Regularizer(lambda x: float((x[0] - 2.0) ** 2))
        sol = solve_regularized_saa(data, make_cost("absolute"), f, 1e9, space)
        assert sol.x == pytest.approx([2.0])

    def test_matches_mixture_model_after_rescaling(self, line_grid):
        rng = np.random.default_rng(0)
        space = DecisionSpace.interval(0, 3, 9)
        cf = make_cost("absolute")
        for trial in range(10):
            prior = random_distribution(rng, line_grid)
            data = sample(DiscreteDistribution(line_grid, [0.2, 0.3, 0.5]), 12, seed=100 + trial)
            lam = float(rng.uniform(0.1, 3.0))
            f = regularizer_from_prior(prior, cf)
            reg = solve_regularized_saa(empirical(data), cf, f, lam, space)
            mix = solve_bayes_dp(prior, 0.0, data, cf, space, beta=beta_from_lambda(lam))
            assert reg.x_index == mix.x_index
            # Value identity after the affine rescaling by (1 - beta).
            beta = beta_from_lambda(lam)
            assert mix.objective_value == pytest.approx((1 - beta) * reg.objective_value, abs=1e-10)


class TestSolveBayesDP:
    def test_zero_concentration_is_saa(self, line_grid):
        data = sample(DiscreteDistribution(line_grid, [0.2, 0.3, 0.5]), 30, seed=5)
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        assert (
            solve_bayes_dp(DiscreteDistribution.uniform(line_grid), 0.0, data, cf, space).x_index
            == solve_saa(empirical(data), cf, space).x_index
        )

    def test_missing_data_with_concentration_form_rejected(self, line_grid):
        from drolab.bayes import PriorSpec, dp_posterior_mean

        with pytest.raises(ValueError, match="data"):
            dp_posterior_mean(PriorSpec(DiscreteDistribution.uniform(line_grid), alpha=2.0), None)

    def test_infinite_concentration_trusts_the_prior(self, line_grid):
        prior = DiscreteDistribution.dirac(line_grid, 2)
        data = SampleSet(line_grid, [0] * 6)
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        sol = solve_bayes_dp(prior, math.inf, data, cf, space)
        assert sol.x == pytest.approx([3.0])
        assert sol.diagnostics["beta"] == 1.0

    def test_equal_weight_mixture_averages_objectives(self, line_grid):
        prior = DiscreteDistribution.dirac(line_grid, 0)
        data = SampleSet(line_grid, [2] * 4)
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        sol = solve_bayes_dp(prior, 4.0, data, cf, space)  # alpha = n -> beta = 1/2
        emp = empirical(data)
        for k, x in enumerate(space):
            blended = 0.5 * expected_cost(prior, cf, x) + 0.5 * expected_cost(emp, cf, x)
            if k == sol.x_index:
                assert sol.objective_value == pytest.approx(blended, abs=1e-12)


class TestSolveMinmaxDRO:
    def test_zero_radius_is_saa_on_center(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        ball = AmbiguityBall(center, 0.0, W1)
        sol = solve_minmax_dro(ball, cf, space)
        saa = solve_saa(center, cf, space)
        assert sol.x_index == saa.x_index
        assert sol.objective_value == pytest.approx(saa.objective_value)
        assert sol.measure == pytest.approx(0.0, abs=1e-12)

    def test_huge_radius_is_pure_minimax(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 13)
        cf = make_cost("absolute")
        ball = AmbiguityBall(center, line_grid.diameter, W1)
        sol = solve_minmax_dro(ball, cf, space)
        table = cost_table(cf, line_grid, space)
        oracle_values = table.max(axis=1)
        oracle_idx = int(np.argmin(oracle_values))
        assert sol.x_index == oracle_idx
        assert sol.objective_value == pytest.approx(float(oracle_values[oracle_idx]))

    def test_worst_case_identity_with_constraint_form(self):
        # The min-max objective minus the nominal optimum equals the smallest
        # one-sided deviation level, computed here from its definition.
        rng = np.random.default_rng(42)
        for _ in range(10):
            grid = random_grid(rng, int(rng.integers(2, 6)))
            center = random_distribution(rng, grid)
            space = DecisionSpace.from_points(rng.uniform(-2, 2, size=(int(rng.integers(2, 9)), 1)))
            cf = make_cost("absolute")
            eps = float(rng.uniform(0.0, grid.diameter))
            ball = AmbiguityBall(center, eps, W1)
            sol = solve_minmax_dro(ball, cf, space)
            table = cost_table(cf, grid, space)
            ref = float(np.min(table @ center.weights))
            worst = [extremal_expectation(ball, table[k], "max")[0] for k in range(len(space))]
            l_star = max(0.0, float(np.min(worst)) - ref)
            assert abs(sol.measure - l_star) <= 1e-9

    def test_objective_monotone_in_radius(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        prev = -math.inf
        for eps in (0.0, 0.1, 0.5, 1.0, 3.0):
            sol = solve_minmax_dro(AmbiguityBall(center, eps, W1), cf, space)
            assert sol.objective_value >= prev - 1e-9
            prev = sol.objective_value

    @pytest.mark.parametrize("eps", [1e-20, 1e-30, 1e-60])
    def test_kl_ball_at_a_tiny_radius_keeps_the_nominal_optimum(self, line_grid, eps):
        # The centre is in the ball, so no worst case is below the best
        # nominal value; by Pinsker's inequality none exceeds the centre's
        # expectation by more than the cost's range (3) times sqrt(eps / 2).
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        nominal = float(np.min(cost_table(cf, line_grid, space) @ center.weights))
        sol = solve_minmax_dro(AmbiguityBall(center, eps, DivergenceKind.kl()), cf, space)
        assert nominal <= sol.objective_value <= nominal + 3.0 * math.sqrt(eps / 2.0) + 4 * math.ulp(nominal)


class TestSolveAbsoluteDRO:
    def test_zero_radius_zero_measure(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        sol = solve_absolute_dro(AmbiguityBall(center, 0.0, W1), cf, space)
        assert sol.measure == pytest.approx(0.0, abs=1e-12)
        assert sol.x_index == solve_saa(center, cf, space).x_index

    def test_two_sided_dominates_one_sided(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        for eps in (0.05, 0.2, 0.8):
            ball = AmbiguityBall(center, eps, W1)
            assert solve_absolute_dro(ball, cf, space).measure >= solve_minmax_dro(ball, cf, space).measure - 1e-9

    def test_measure_monotone_in_radius(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 5)
        cf = make_cost("absolute")
        prev = -math.inf
        for eps in (0.0, 0.1, 0.4, 1.5):
            sol = solve_absolute_dro(AmbiguityBall(center, eps, W1), cf, space)
            assert sol.measure >= prev - 1e-9
            prev = sol.measure

    def test_kl_ball_matches_per_decision_deviation(self, line_grid):
        # Balls other than positive-radius Wasserstein ones solve every
        # decision in one deviation table, with no LP step; the deviations
        # also match a per-ball brentq root of the tilting dual.
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        table = cost_table(cf, line_grid, space)
        ref = float(np.min(table @ center.weights))
        for eps in (0.0, 0.05, 0.4, 2.0):
            ball = AmbiguityBall(center, eps, DivergenceKind.kl())
            sol = solve_absolute_dro(ball, cf, space)
            deviations = deviation_table(center, ball.kind, table, [eps], ref)[0][:, 0]
            assert sol.x_index == int(np.argmin(deviations))
            assert sol.measure == min(deviations)
            assert abs(abs(sol.witness.expectation(table[sol.x_index]) - ref) - sol.measure) <= 1e-9
            for row, dev in zip(table, deviations):
                if eps == 0.0:
                    hi = lo = center.expectation(row)
                else:
                    (hi, _), (lo, _) = (kl_extremal_brentq(ball, row, maximize) for maximize in (True, False))
                assert abs(dev - max(hi - ref, ref - lo)) <= 1e-9

    def test_matches_sampled_ball_scan(self):
        # Sandwich: scanning ball members (simplex grid + corner candidates)
        # lower-bounds each per-decision deviation; the LP value must agree.
        from _oracles import ball_vertex_candidates

        grid = SupportGrid.euclidean([[0.0], [1.0], [2.5]])
        center = DiscreteDistribution(grid, [0.5, 0.3, 0.2])
        space = DecisionSpace.interval(0.0, 2.5, 5)
        cf = make_cost("absolute")
        eps = 0.35
        ball = AmbiguityBall(center, eps, W1)
        sol = solve_absolute_dro(ball, cf, space)
        verts = w1_dual_vertices(grid.ground_metric)
        members = np.vstack(
            [simplex_grid(3, 140), ball_vertex_candidates(center.weights, grid.ground_metric, 1.0, eps)]
        )
        members = members[w1_from_dual_many(verts, members, center.weights) <= eps + 1e-9]
        table = cost_table(cf, grid, space)
        ref = float(np.min(table @ center.weights))
        scan_dev = np.max(np.abs(members @ table.T - ref), axis=0)
        for k in range(len(space)):
            exact_dev, _ = _coupling_lp_deviation(ball, table[k], ref)
            assert scan_dev[k] <= exact_dev + 1e-9
            assert exact_dev == pytest.approx(scan_dev[k], abs=1e-4)
        assert sol.measure == pytest.approx(float(np.min(scan_dev)), abs=1e-4)


def _table_cost(table: np.ndarray) -> CostFunction:
    """A cost given by its whole decision x atom table."""
    return CostFunction.vectorised("table", lambda points, atoms: table)


def _same_solution(got, want) -> bool:
    return (
        got.x_index == want.x_index
        and got.objective_value == want.objective_value
        and got.measure == want.measure
        and got.diagnostics == want.diagnostics
        and got.witness.weights.tobytes() == want.witness.weights.tobytes()
    )


class TestAbsoluteDROScreen:
    """On positive-radius Wasserstein balls the exact dual screens the rows
    that the coupling LP re-solves.  Wherever the LP runs (two or more
    screened rows, or one whose up and down deviations tie within the
    margin) the result must be the LP sweep's bit for bit; elsewhere the
    dual's value and witness must agree with it to 1e-9."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        return _count_lp_calls(monkeypatch)

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 7),
        dim=st.sampled_from([1, 2]),
        p=st.sampled_from([1.0, 2.0]),
        empty=st.integers(0, 3),
        rows=st.sampled_from(["normal", "tied", "newsvendor"]),
        frac=st.sampled_from([1e-4, 0.05, 0.3, 1.0, 1.5]) | st.floats(1e-4, 1.2),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_coupling_lp_on_every_row(self, seed, m, dim, p, empty, rows, frac):
        rng = np.random.default_rng(seed)
        if rows == "newsvendor":
            # A symmetric centre on a line (or a plane symmetric under
            # t -> -t): rows of decisions off the support are linear in t,
            # so their up and down deviations tie exactly.
            t = np.arange(m) - (m - 1) / 2
            grid = SupportGrid.euclidean(np.column_stack([t, t**2][:dim]))
            w = rng.dirichlet(np.ones(m))
            w = w + w[::-1]
            w[rng.choice(m, size=min(empty, m - 1), replace=False)] = 0.0
            w = w + w[::-1]
            space = DecisionSpace.interval(t[0] - 1.0, t[-1] + 1.0, int(rng.integers(3, 10)))
            cf = make_cost("newsvendor", params={"b": float(rng.integers(1, 3)), "c": float(rng.integers(1, 3))})
        else:
            grid = random_grid(rng, m, dim)
            w = rng.dirichlet(np.ones(m))
            w[rng.choice(m, size=min(empty, m - 1), replace=False)] = 0.0
            k = int(rng.integers(2, 9))
            if rows == "tied":  # integer costs: rows, atoms and dual breakpoints tie
                table = rng.integers(-2, 3, size=(k, m)).astype(float)
            else:
                table = rng.normal(size=(k, m)) * rng.uniform(0.1, 10.0)
            space, cf = DecisionSpace.interval(0.0, 1.0, k), _table_cost(table)
        center = DiscreteDistribution(grid, w / w.sum())
        ball = AmbiguityBall(center, frac * grid.diameter, DivergenceKind.wasserstein_order(p))
        want = absolute_dro_lp_sweep(ball, cf, space)
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_lp_calls(patch)
            got = solve_absolute_dro(ball, cf, space)
        if calls:
            assert _same_solution(got, want)
            return
        # The dual alone: the LP sweep's decision, ties and binding side, its
        # value to 1e-9, and a witness in the ball that attains that value.
        assert (got.x_index, got.diagnostics) == (want.x_index, want.diagnostics)
        costs = cost_table(cf, grid, space)[got.x_index]
        ref = got.diagnostics["nominal_ref"]
        expectation = got.witness.expectation(costs)
        assert (expectation >= ref) == (want.witness.expectation(costs) >= ref)
        for value in (got.objective_value, got.measure):
            assert abs(value - want.measure) <= 1e-9 * max(1.0, abs(want.measure))
        assert ball.kind.distance(got.witness, center) <= ball.radius + 1e-9
        assert abs(abs(expectation - ref) - got.measure) <= 1e-9 * max(1.0, abs(got.measure))

    def test_identical_rows_tie_at_the_lower_index(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        table = np.array([[4.0, 0.0, 9.0], [1.0, 2.0, 1.5], [1.0, 2.0, 1.5], [3.0, 3.0, 0.0]])
        space, cf = DecisionSpace.interval(0.0, 1.0, 4), _table_cost(table)
        ball = AmbiguityBall(center, 0.4, W1)
        sol = solve_absolute_dro(ball, cf, space)
        assert (sol.x_index, sol.diagnostics["ties"]) == (1, 2)
        assert _same_solution(sol, absolute_dro_lp_sweep(ball, cf, space))

    @staticmethod
    def _newsvendor_line(weights: np.ndarray, b: float, c: float):
        # 13 decisions on a 16-atom line, where an LP on every row makes 13
        # calls (26 objectives).
        grid = SupportGrid.euclidean([[float(v)] for v in range(16)])
        center = DiscreteDistribution(grid, weights)
        cf = make_cost("newsvendor", params={"b": b, "c": c})
        return AmbiguityBall(center, 0.7, W1), cf, DecisionSpace.interval(0.0, 15.0, 13)

    def test_newsvendor_line_without_a_tie_makes_no_lp(self, lp_calls):
        # One decision attains the dual minimum and its down deviation falls
        # short of its up deviation, so the dual decides it alone.
        weights = np.random.default_rng(3).dirichlet(np.full(16, 2.0))
        ball, cf, space = self._newsvendor_line(weights, 2.0, 1.0)
        sol = solve_absolute_dro(ball, cf, space)
        assert len(lp_calls) == 0
        want = absolute_dro_lp_sweep(ball, cf, space)
        assert (sol.x_index, sol.diagnostics) == (want.x_index, want.diagnostics)
        assert sol.diagnostics["ties"] == 1
        assert sol.measure == pytest.approx(want.measure, rel=1e-9, abs=1e-9)

    def test_symmetric_newsvendor_tie_solves_one_row_by_lp(self, lp_calls):
        # A centre symmetric about 7.5 with b = c: the middle decision is the
        # nominal optimum and moves its cost by exactly the radius either
        # way, so its up and down deviations tie and one LP call with both
        # senses stacked picks the side.
        weights = np.random.default_rng(3).dirichlet(np.full(16, 2.0))
        ball, cf, space = self._newsvendor_line((weights + weights[::-1]) / 2, 1.0, 1.0)
        sol = solve_absolute_dro(ball, cf, space)
        assert lp_calls == [(2, 256)]
        assert (sol.x_index, sol.diagnostics["ties"]) == (6, 1)
        assert _same_solution(sol, absolute_dro_lp_sweep(ball, cf, space))


def _count_lp_calls(patch: pytest.MonkeyPatch) -> list:
    """Record the objective shape of every ``solve_lp`` call that
    :mod:`drolab.solvers` makes."""
    calls = []
    solve = solvers.solve_lp
    patch.setattr(solvers, "solve_lp", lambda c, **k: calls.append(np.shape(c)) or solve(c, **k))
    return calls


class TestSolveRobustSatisficing:
    @pytest.mark.parametrize("slack", [-0.1, math.nan, math.inf])
    def test_slack_must_be_finite_and_nonnegative(self, line_grid, slack):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        with pytest.raises(ValueError, match="target slack must be finite and >= 0"):
            solve_robust_satisficing(center, make_cost("absolute"), DecisionSpace.interval(0, 3, 7), W1, "two", slack)

    def test_zero_slack_forces_nominal_optimizer(self, line_grid):
        # Weights chosen so the nominal optimizer is unique (no flat median).
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        saa = solve_saa(center, cf, space)
        assert saa.diagnostics["ties"] == 1
        sol = solve_robust_satisficing(center, cf, space, W1, "one", 0.0)
        assert sol.x_index == saa.x_index
        assert sol.diagnostics["feasible_count"] == 1

    def test_lipschitz_cap_for_absolute_loss(self, line_grid):
        # A 1-Lipschitz cost never gains more than one unit per unit of
        # order-1 transport distance.
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        for sided in ("one", "two"):
            sol = solve_robust_satisficing(center, cf, space, W1, sided, 0.0)
            assert sol.measure <= 1.0 + 1e-9
            assert sol.diagnostics["upper_certificate"] == pytest.approx(1.0)
            assert sol.measure <= sol.diagnostics["upper_certificate"] + 1e-9

    def test_matches_fractional_scan(self):
        # Deviation-to-divergence ratio maximized over a dense simplex grid.
        grid = SupportGrid.euclidean([[0.0], [1.0], [2.5]])
        center = DiscreteDistribution(grid, [0.5, 0.3, 0.2])
        space = DecisionSpace.from_points([0.0, 0.625, 1.25, 1.875, 2.5])
        cf = make_cost("absolute")
        sol = solve_robust_satisficing(center, cf, space, W1, "two", 0.0)
        costs = cf.atom_costs(grid, sol.x)
        ref = sol.diagnostics["nominal_ref"]
        verts = w1_dual_vertices(grid.ground_metric)
        members = simplex_grid(3, 120)
        dists = w1_from_dual_many(verts, members, center.weights)
        keep = dists > 1e-9
        ratios = np.abs(members[keep] @ costs - ref) / dists[keep]
        assert sol.measure == pytest.approx(float(np.max(ratios)), abs=5e-3)

    def test_slack_relaxes_the_measure(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        tight = solve_robust_satisficing(center, cf, space, W1, "one", 0.0)
        loose = solve_robust_satisficing(center, cf, space, W1, "one", 0.5)
        assert loose.measure <= tight.measure + 1e-12
        assert loose.diagnostics["feasible_count"] >= tight.diagnostics["feasible_count"]

    @pytest.mark.parametrize("kind", [W1, DivergenceKind.wasserstein_order(2.0), DivergenceKind.kl()])
    def test_shared_sweeps_equal_each_model_alone(self, kind):
        rng = np.random.default_rng(11)
        grid = random_grid(rng, 7)
        center = random_distribution(rng, grid)
        space = DecisionSpace.interval(-3.0, 3.0, 13)
        cf = make_cost("huber", params={"delta": 1.0})
        models = [("two", 0.0), ("one", 0.0), ("one", 0.3), ("two", 0.3), ("two", 0.05)]
        shared = solve_satisficing_models(center, cf, space, kind, models)
        assert shared[2].diagnostics["feasible_count"] > shared[0].diagnostics["feasible_count"]
        for (sided, slack), sol in zip(models, shared):
            alone = solve_robust_satisficing(center, cf, space, kind, sided, slack)
            assert sol.to_json() == alone.to_json()
            assert sol.witness.weights.tobytes() == alone.witness.weights.tobytes()

    def test_kl_kind_runs_and_reports_infinite_certificate(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 5)
        cf = make_cost("absolute")
        sol = solve_robust_satisficing(center, cf, space, DivergenceKind.kl(), "one", 0.0)
        assert math.isinf(sol.diagnostics["upper_certificate"])
        assert sol.measure >= 0.0

    def test_kl_ball_around_a_dirac_has_rate_zero(self, line_grid):
        # The ball is its centre at every radius: every decision's rate is 0,
        # so each model keeps its first feasible decision.
        center = DiscreteDistribution.dirac(line_grid, 1)
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        # Costs |x - 1| at the centre: slack 0.5 admits x = 0.5 (index 1) first.
        for sided, slack, first in (("one", 0.0, 2), ("two", 0.0, 2), ("two", 0.5, 1)):
            sol = solve_robust_satisficing(center, cf, space, DivergenceKind.kl(), sided, slack)
            assert (sol.measure, sol.objective_value) == (0.0, 0.0)
            assert sol.x_index == first
            assert sol.witness is center
            assert sol.diagnostics["radius_grid"] == sol.diagnostics["ratios"] == []
            assert sol.diagnostics["binding_radius"] is None

    @pytest.mark.parametrize("kind", [W1, DivergenceKind.wasserstein_order(2.0), DivergenceKind.kl()])
    @pytest.mark.parametrize("weights", [[0.2, 0.3, 0.5], [0.0, 0.4, 0.6], [0.0, 1.0, 0.0]])
    def test_radius_grid_is_kept_on_the_centre_read_only(self, line_grid, kind, weights):
        # One grid per (centre, kind), shared by every later call; a write to
        # it would change every later rate measure on that centre.
        center = DiscreteDistribution(line_grid, weights)
        radii = satisficing_radius_grid(kind, center)
        assert satisficing_radius_grid(kind, center) is radii
        assert list(center._memo.values()) == [(radii,)]
        assert not radii.flags.writeable
        cap = kind.radius_cap(center)
        fresh = np.geomspace(cap * 1e-4, cap, 40) if cap > 0.0 else np.empty(0)
        assert radii.tobytes() == fresh.tobytes()
        if radii.size:
            with pytest.raises(ValueError):
                radii[0] = 1.0


class TestWitnessBuiltWhenRead:
    """A solution keeps its witness pending until ``witness`` is read: one
    single-cell build then, the eager witness's bits, and none at all for a
    solution whose witness is never read (see conftest.assert_pending_witness)."""

    KINDS = {"w1": W1, "w2": DivergenceKind.wasserstein_order(2.0), "kl": DivergenceKind.kl()}

    @staticmethod
    def _instance(seed: int, kind: DivergenceKind):
        center, table = random_ball_instance(np.random.default_rng(seed), 5, 2, 1, False, rows=6)
        ball = AmbiguityBall(center, 0.3 * kind.radius_cap(center), kind)
        return ball, _table_cost(table), DecisionSpace.interval(0.0, 1.0, 6), table

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_minmax_dro(self, monkeypatch, kind, seed):
        ball, cf, space, table = self._instance(seed, self.KINDS[kind])
        builds = witness_builds(monkeypatch, ball.kind)
        sol = solve_minmax_dro(ball, cf, space)
        eager = extremal_values(ball.center, ball.kind, table, [ball.radius])[1](sol.x_index, 0)
        assert_pending_witness(lambda: solve_minmax_dro(ball, cf, space), eager, builds)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_absolute_dro_dual_rows(self, monkeypatch, kind, seed):
        ball, cf, space, table = self._instance(seed, self.KINDS[kind])
        builds = witness_builds(monkeypatch, ball.kind)
        lp_calls = _count_lp_calls(monkeypatch)
        sol = solve_absolute_dro(ball, cf, space)
        assert lp_calls == []  # the dual decides these instances alone
        values, witnesses = extremal_values(ball.center, ball.kind, table, [ball.radius])
        eager = witnesses(binding_cell(values, sol.x_index, 0, sol.diagnostics["nominal_ref"]), 0)
        assert_pending_witness(lambda: solve_absolute_dro(ball, cf, space), eager, builds)

    def test_absolute_dro_coupling_lp_rows(self, monkeypatch):
        # The symmetric newsvendor tie of TestAbsoluteDROScreen: the LP step
        # already holds the witness as a distribution, so no builder runs.
        weights = np.random.default_rng(3).dirichlet(np.full(16, 2.0))
        ball, cf, space = TestAbsoluteDROScreen._newsvendor_line((weights + weights[::-1]) / 2, 1.0, 1.0)
        builds = witness_builds(monkeypatch, ball.kind)
        eager = absolute_dro_lp_sweep(ball, cf, space).witness
        assert_pending_witness(lambda: solve_absolute_dro(ball, cf, space), eager, builds, on_read=())

    @pytest.mark.parametrize("kind", ["w1", "kl"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_satisficing_models(self, monkeypatch, kind, seed):
        ball, cf, space, table = self._instance(seed, self.KINDS[kind])
        center = ball.center
        builds = witness_builds(monkeypatch, ball.kind)
        models = [("one", 0.0), ("two", 0.0), ("two", 0.5)]
        nominal = table @ center.weights
        ref = float(np.min(nominal))
        rows = np.flatnonzero(nominal <= ref + 0.5 + 1e-12)
        radii = satisficing_radius_grid(ball.kind, center)
        values, witnesses = extremal_values(center, ball.kind, table[rows], radii)
        solutions = solve_satisficing_models(center, cf, space, ball.kind, models)
        for m, ((sided, _), sol) in enumerate(zip(models, solutions)):
            i = int(np.searchsorted(rows, sol.x_index))
            r = sol.diagnostics["radius_grid"].index(sol.diagnostics["binding_radius"])
            eager = witnesses(i if sided == "one" else binding_cell(values, i, r, ref), r)
            assert_pending_witness(
                lambda: solve_satisficing_models(center, cf, space, ball.kind, models)[m], eager, builds
            )


def test_solutions_are_bit_deterministic(line_grid):
    center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
    space = DecisionSpace.interval(0, 3, 7)
    cf = make_cost("absolute")
    ball = AmbiguityBall(center, 0.3, W1)
    a = solve_minmax_dro(ball, cf, space)
    b = solve_minmax_dro(ball, cf, space)
    assert a.x_index == b.x_index
    assert a.objective_value == b.objective_value  # exact equality
    assert np.array_equal(a.witness.weights, b.witness.weights)
    assert a.to_json() == b.to_json()


def test_pointwise_regularized_upper_bound(line_grid):
    # The worst case over an order-1 ball around the empirical distribution
    # never exceeds radius times the Lipschitz constant plus the empirical
    # value, for the 1-Lipschitz absolute loss.
    rng = np.random.default_rng(8)
    space = DecisionSpace.interval(0, 3, 7)
    cf = make_cost("absolute")
    p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
    for trial in range(20):
        data = sample(p0, int(rng.integers(5, 30)), seed=trial)
        emp = empirical(data)
        eps = float(rng.uniform(0.0, 2.0))
        ball = AmbiguityBall(emp, eps, W1)
        table = cost_table(cf, line_grid, space)
        for k, x in enumerate(space):
            worst, _ = extremal_expectation(ball, table[k], "max")
            assert worst <= eps * 1.0 + float(table[k] @ emp.weights) + 1e-9
