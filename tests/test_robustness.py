"""Robustness measures of given decisions, including the Dirichlet PAC view."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _oracles import (
    ball_extremal_lp,
    ball_vertex_candidates,
    deviation_rate_profile,
    deviation_table_sided,
    set_robustness_loop,
    simplex_grid,
    w1_dual_vertices,
    w1_from_dual_many,
)
from conftest import RADIUS_FRACTIONS, random_ball_instance, random_distribution, random_grid
from drolab import divergence, solvers
from drolab.cost import CostFunction, DecisionSpace, expected_cost, make_cost
from drolab.divergence import AmbiguityBall, DivergenceKind, membership
from drolab.robustness import (
    DirichletPrior,
    absolute_measure,
    local_measure,
    pac_robustness,
    relative_measure,
    set_robustness,
)
from drolab.solvers import satisficing_radius_grid, solve_absolute_dro, solve_saa
from drolab.support import DiscreteDistribution, SupportGrid

W1 = DivergenceKind.wasserstein_order(1.0)


def two_atom_example(shift_kind: str) -> tuple[SupportGrid, CostFunction]:
    """The two worked degenerate-perturbation examples.

    ``objective``: costs x^2 versus x^2 + 1 (value moves, solution fixed);
    ``solution``: costs x^2 versus (x+1)^2 (solution moves, value fixed).
    """
    delta = 0.01
    grid = SupportGrid.euclidean([[-delta], [delta]])
    if shift_kind == "objective":
        fn = lambda x, xi: float(x[0] ** 2 + (1.0 if xi[0] > 0 else 0.0))
    else:
        fn = lambda x, xi: float((x[0] + (1.0 if xi[0] > 0 else 0.0)) ** 2)
    return grid, CostFunction(f"shifted_{shift_kind}", fn, nonneg=True)


def table_cost(table: np.ndarray) -> tuple[CostFunction, DecisionSpace]:
    """A cost whose decision ``k`` (the point ``[k]``) has the costs ``table[k]``."""
    cf = CostFunction.vectorised("table", lambda points, atoms: table[points[:, 0].astype(int)])
    return cf, DecisionSpace.from_points(np.arange(len(table), dtype=float)[:, None])


KINDS = {
    "w1": DivergenceKind.wasserstein_order(1.0),
    "w2": DivergenceKind.wasserstein_order(2.0),
    "kl": DivergenceKind.kl(),
}


class TestAbsoluteMeasure:
    def test_zero_radius_at_reference_decision(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        saa = solve_saa(center, cf, space)
        ball = AmbiguityBall(center, 0.0, W1)
        rep = absolute_measure(saa.x, saa.objective_value, ball, cf)
        assert rep.measure == pytest.approx(0.0, abs=1e-12)

    def test_zero_radius_general_decision(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        ball = AmbiguityBall(center, 0.0, W1)
        ref = 0.25
        rep = absolute_measure([0.0], ref, ball, cf)
        assert rep.measure == pytest.approx(abs(expected_cost(center, cf, [0.0]) - ref), abs=1e-12)

    def test_matches_simplex_scan_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            grid = random_grid(rng, 4)
            center = random_distribution(rng, grid)
            cf = make_cost("absolute")
            eps = float(rng.uniform(0.05, 0.5) * grid.diameter)
            ball = AmbiguityBall(center, eps, W1)
            x = rng.uniform(-2, 2, size=1)
            ref = float(rng.normal())
            rep = absolute_measure(x, ref, ball, cf)
            verts = w1_dual_vertices(grid.ground_metric)
            members = np.vstack(
                [simplex_grid(4, 40), ball_vertex_candidates(center.weights, grid.ground_metric, 1.0, eps)]
            )
            members = members[w1_from_dual_many(verts, members, center.weights) <= eps + 1e-9]
            costs = cf.atom_costs(grid, x)
            scan = float(np.max(np.abs(members @ costs - ref)))
            assert scan <= rep.measure + 1e-9
            assert rep.measure == pytest.approx(scan, abs=1e-4)

    def test_monotone_in_radius_and_matches_solver_path(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        ref = solve_saa(center, cf, space).objective_value
        prev = -1.0
        for eps in (0.0, 0.1, 0.4, 1.0):
            ball = AmbiguityBall(center, eps, W1)
            measures = [absolute_measure(x, ref, ball, cf).measure for x in space]
            assert min(measures) >= prev - 1e-12
            prev = min(measures)
            sol = solve_absolute_dro(ball, cf, space)
            assert sol.measure == pytest.approx(min(measures), abs=1e-12)


    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 7),
        dim=st.sampled_from([1, 2]),
        p=st.sampled_from([1.0, 2.0]),
        empty=st.integers(0, 2),
        tied=st.booleans(),
        frac=RADIUS_FRACTIONS,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_coupling_lp_with_attaining_member_witness(self, seed, m, dim, p, empty, tied, frac):
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, dim, empty, tied)
        cf, space = table_cost(table)
        ball = AmbiguityBall(center, frac * center.grid.diameter, DivergenceKind.wasserstein_order(p))
        metric = center.grid.ground_metric
        for k, costs in enumerate(table):
            ref = float(center.expectation(costs) + rng.normal())
            rep = absolute_measure(space[k], ref, ball, cf)
            hi, _ = ball_extremal_lp(center.weights, metric, p, costs, ball.radius, "max")
            lo, _ = ball_extremal_lp(center.weights, metric, p, costs, ball.radius, "min")
            scale = max(1.0, abs(hi), abs(lo), abs(ref))
            assert abs(rep.diagnostics["max_value"] - hi) <= 1e-9 * scale
            assert abs(rep.diagnostics["min_value"] - lo) <= 1e-9 * scale
            assert abs(rep.measure - max(hi - ref, ref - lo)) <= 1e-9 * scale
            assert membership(ball, rep.witness)
            assert abs(abs(rep.witness.expectation(costs) - ref) - rep.measure) <= 1e-9 * scale

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_solves_no_lp_on_wasserstein_balls(self, monkeypatch, square_grid, p):
        # The coupling LP solved both sides here before (two solve_lp calls).
        calls = []
        for module in (divergence, solvers):
            solve = module.solve_lp
            monkeypatch.setattr(module, "solve_lp", lambda *a, solve=solve, **k: calls.append(k) or solve(*a, **k))
        center = DiscreteDistribution(square_grid, [0.1, 0.2, 0.3, 0.4])
        ball = AmbiguityBall(center, 0.4, DivergenceKind.wasserstein_order(p))
        rep = absolute_measure([0.5, 0.5], 0.3, ball, make_cost("squared"))
        assert calls == []
        assert rep.measure > 0.0


class TestRelativeMeasure:
    def test_lipschitz_cap(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        saa = solve_saa(center, cf, space)
        rep = relative_measure(saa.x, saa.objective_value, W1, center, cf)
        assert rep.measure <= 1.0 + 1e-9

    def test_constant_cost_gives_zero(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = CostFunction("const", lambda x, xi: 2.0)
        rep = relative_measure([0.0], 2.0, W1, center, cf)
        assert rep.measure == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_reference_returns_infinity(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        rep = relative_measure([0.0], 123.0, W1, center, cf)
        assert math.isinf(rep.measure)

    def test_matches_fractional_scan(self):
        grid = SupportGrid.euclidean([[0.0], [1.0], [2.5]])
        center = DiscreteDistribution(grid, [0.5, 0.3, 0.2])
        cf = make_cost("absolute")
        space = DecisionSpace.from_points([0.0, 0.625, 1.25, 1.875, 2.5])
        saa = solve_saa(center, cf, space)
        rep = relative_measure(saa.x, saa.objective_value, W1, center, cf)
        verts = w1_dual_vertices(grid.ground_metric)
        members = simplex_grid(3, 120)
        dists = w1_from_dual_many(verts, members, center.weights)
        keep = dists > 1e-9
        costs = cf.atom_costs(grid, saa.x)
        ratios = np.abs(members[keep] @ costs - saa.objective_value) / dists[keep]
        assert rep.measure == pytest.approx(float(np.max(ratios)), abs=5e-3)

    def test_dominates_every_single_radius_ratio(self, line_grid):
        from drolab.solvers import _coupling_lp_deviation

        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        saa = solve_saa(center, cf, space)
        rep = relative_measure(saa.x, saa.objective_value, W1, center, cf)
        costs = cf.atom_costs(line_grid, saa.x)
        for eps in rep.diagnostics["radius_grid"][::7]:
            dev, _ = _coupling_lp_deviation(AmbiguityBall(center, eps, W1), costs, saa.objective_value)
            assert rep.measure >= dev / eps - 1e-9


class TestLocalMeasure:
    def test_constant_cost_vanishes(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = CostFunction("const", lambda x, xi: 2.0)
        space = DecisionSpace.interval(0, 3, 5)
        rep = local_measure(space, center, 2.0, cf, W1, "objective")
        assert rep.measure == pytest.approx(0.0, abs=1e-12)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in rep.diagnostics["ratios"])

    def test_absolute_loss_capped_by_one(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        ref = solve_saa(center, cf, space).objective_value
        rep = local_measure(space, center, ref, cf, W1, "objective")
        assert all(v <= 1.0 + 1e-9 for v in rep.diagnostics["ratios"])
        assert rep.measure <= 1.0 + 1e-6

    def test_solution_variant_zero_for_separated_minimizers(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        ref = solve_saa(center, cf, space).objective_value
        rep = local_measure(space, center, ref, cf, W1, "solution")
        assert rep.measure == pytest.approx(0.0, abs=1e-12)
        assert rep.diagnostics["converged"]


class TestSetRobustness:
    def test_zero_radius_gives_zero(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 5)
        for variant in ("objective", "solution"):
            rep = set_robustness(AmbiguityBall(center, 0.0, W1), cf, space, variant, budget=5)
            assert rep.measure == 0.0

    def test_value_shift_example(self):
        # Costs x^2 vs x^2 + 1: the optimizer never moves, the value moves by 1.
        grid, cf = two_atom_example("objective")
        center = DiscreteDistribution.dirac(grid, 0)
        ball = AmbiguityBall(center, grid.diameter, W1)
        space = DecisionSpace.interval(-2.0, 2.0, 41)
        assert set_robustness(ball, cf, space, "solution", budget=32, seed=1).measure == 0.0
        assert set_robustness(ball, cf, space, "objective", budget=32, seed=1).measure == 1.0

    def test_solution_shift_example(self):
        # Costs x^2 vs (x+1)^2: the optimizer moves by 1, the value stays 0.
        grid, cf = two_atom_example("solution")
        center = DiscreteDistribution.dirac(grid, 0)
        ball = AmbiguityBall(center, grid.diameter, W1)
        space = DecisionSpace.interval(-2.0, 2.0, 41)
        assert set_robustness(ball, cf, space, "solution", budget=32, seed=1).measure == 1.0
        assert set_robustness(ball, cf, space, "objective", budget=32, seed=1).measure == 0.0

    def test_monotone_in_budget(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 5)
        ball = AmbiguityBall(center, 0.4, W1)
        prev = -1.0
        for budget in (1, 5, 20, 60):
            rep = set_robustness(ball, cf, space, "objective", budget=budget, seed=7)
            assert rep.measure >= prev - 1e-15
            prev = rep.measure

    def test_witnesses_are_members(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 5)
        ball = AmbiguityBall(center, 0.4, W1)
        rep = set_robustness(ball, cf, space, "objective", budget=20, seed=3)
        assert rep.witness is None or membership(ball, rep.witness)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_toward_dirac_reaches_the_ball_boundary(self, p):
        from drolab.divergence import wasserstein
        from drolab.robustness import _toward_dirac

        rng = np.random.default_rng(17)
        grid = random_grid(rng, 5, dim=2)
        center = random_distribution(rng, grid)
        kind = DivergenceKind.wasserstein_order(p)
        for j in range(grid.size):
            reach = wasserstein(DiscreteDistribution.dirac(grid, j), center, p)
            for eps in (0.3 * reach, 0.9 * reach, reach, 1.5 * reach):
                ball = AmbiguityBall(center, eps, kind)
                cand = _toward_dirac(ball, j)
                assert membership(ball, cand)
                if eps >= reach:
                    assert cand.weights[j] == pytest.approx(1.0, abs=1e-12)
                else:
                    # The furthest member on the segment sits on the boundary
                    # (bisection to 2**-40 of the segment for p > 1).
                    assert wasserstein(cand, center, p) == pytest.approx(eps, rel=1e-9 if p == 1.0 else 1e-6)
        # A Dirac centre is its own furthest member.
        dirac = DiscreteDistribution.dirac(grid, 2)
        assert _toward_dirac(AmbiguityBall(dirac, 0.1, W1), 2).weights[2] == 1.0


    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 6),
        dim=st.sampled_from([1, 2]),
        kind=st.sampled_from(sorted(KINDS)),
        empty=st.integers(0, 2),
        tied=st.booleans(),
        frac=RADIUS_FRACTIONS,
        variant=st.sampled_from(["objective", "solution"]),
        budget=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    # A W2 membership bisection whose transport LP left a negative entry.
    @example(seed=0, m=5, dim=2, kind="w2", empty=0, tied=False, frac=0.0001, variant="objective", budget=1)
    def test_matches_the_per_candidate_loop(self, seed, m, dim, kind, empty, tied, frac, variant, budget):
        # The batched pass must reproduce the loop bit for bit: measure,
        # witness weights (the first candidate attaining the spread) and
        # diagnostics.
        center, table = random_ball_instance(np.random.default_rng(seed), m, dim, empty, tied, rows=4)
        cf, space = table_cost(table)
        kind = KINDS[kind]
        ball = AmbiguityBall(center, frac * kind.radius_cap(center), kind)
        rep = set_robustness(ball, cf, space, variant, budget=budget, seed=seed)
        ref = set_robustness_loop(ball, cf, space, variant, budget=budget, seed=seed)
        assert rep.kind == ref.kind and rep.radius == ref.radius
        assert rep.measure == ref.measure
        assert (rep.witness is None) == (ref.witness is None)
        if ref.witness is not None:
            assert rep.witness.weights.tobytes() == ref.witness.weights.tobytes()
        assert rep.diagnostics == ref.diagnostics


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestRatePath:
    """relative_measure and local_measure read divergence.deviation_table and
    solvers.rate_profile; they must give the former one-call rate path's
    bits (tests/_oracles.deviation_rate_profile), with the local radii taken
    from the radius cap itself."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 6),
        dim=st.sampled_from([1, 2]),
        kind=st.sampled_from(sorted(KINDS)),
        empty=st.integers(0, 2),
        tied=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_one_call_rate_path(self, seed, m, dim, kind, empty, tied):
        center, table = random_ball_instance(np.random.default_rng(seed), m, dim, empty, tied, rows=4)
        cf, space = table_cost(table)
        kind = KINDS[kind]
        radii = satisficing_radius_grid(kind, center)
        assume(radii.size > 0)  # a ball that cannot grow had no rate path (TestBallThatCannotGrow)
        for k, costs in enumerate(table):
            ref = float(center.expectation(costs))
            rep = relative_measure(space[k], ref, kind, center, cf)
            rates, ratios, binding, witness = deviation_rate_profile(
                center, costs[None, :], ref, 0.0, kind, "two", radii
            )
            assert _bits(rep.measure) == _bits(rates[0])
            assert _bits(rep.diagnostics["ratios"]) == _bits(ratios[0])
            assert _bits(rep.diagnostics["binding_radius"]) == _bits(radii[binding[0]])
            assert rep.witness.weights.tobytes() == witness(0, binding[0]).weights.tobytes()
        cap = kind.radius_cap(center)
        local_radii = [cap * 2.0**-k for k in range(4, 13)]
        ref = float(np.min(table @ center.weights))
        devs, _ = deviation_table_sided(center, kind, table, local_radii, ref, "two")
        worst, _ = divergence.extremal_values(center, kind, table, local_radii, "max")
        nominal = space[int(np.argmin(table @ center.weights))]
        expected = {
            "objective": [float(np.min(devs[:, r])) / eps for r, eps in enumerate(local_radii)],
            "solution": [
                float(np.linalg.norm(space[int(np.argmin(worst[:, r]))] - nominal)) / eps
                for r, eps in enumerate(local_radii)
            ],
        }
        for variant, values in expected.items():
            rep = local_measure(space, center, ref, cf, kind, variant)
            assert _bits(rep.diagnostics["radii"]) == _bits(local_radii)
            assert _bits(rep.diagnostics["ratios"]) == _bits(values)
            assert _bits(rep.measure) == _bits(max(0.0, 2.0 * values[-1] - values[-2]))


class TestBallThatCannotGrow:
    """A forward-KL ball around a Dirac is its centre at every radius (its
    radius cap is 0), so every deviation over it is 0."""

    def test_relative_and_local_measures_are_zero(self, line_grid):
        center = DiscreteDistribution.dirac(line_grid, 1)
        cf, space = make_cost("absolute"), DecisionSpace.interval(0, 3, 5)
        saa = solve_saa(center, cf, space)
        rel = relative_measure(saa.x, saa.objective_value, DivergenceKind.kl(), center, cf)
        assert rel.measure == 0.0
        assert rel.witness is center
        assert rel.diagnostics["radius_grid"] == rel.diagnostics["ratios"] == []
        assert rel.diagnostics["binding_radius"] is None
        for variant in ("objective", "solution"):
            loc = local_measure(space, center, saa.objective_value, cf, DivergenceKind.kl(), variant)
            assert loc.measure == 0.0
            assert loc.diagnostics["radii"] == loc.diagnostics["ratios"] == []
            assert loc.diagnostics["converged"]


class TestReferenceValueChecked:
    @pytest.mark.parametrize("ref", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_rejected(self, line_grid, ref):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        cf, space = make_cost("absolute"), DecisionSpace.interval(0, 3, 5)
        calls = [
            lambda: absolute_measure(space[1], ref, AmbiguityBall(center, 0.3, W1), cf),
            lambda: relative_measure(space[1], ref, W1, center, cf),
            lambda: local_measure(space, center, ref, cf, W1, "objective"),
            lambda: pac_robustness(DirichletPrior(center, 2.0), cf, space[1], ref, 1.0, mc_draws=10),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="reference value must be finite"):
                call()

    @pytest.mark.parametrize("draws", [0, -3])
    def test_pac_needs_a_draw(self, line_grid, draws):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="at least one Monte-Carlo draw"):
            pac_robustness(DirichletPrior(center, 2.0), make_cost("absolute"), [1.0], 0.5, 1.0, mc_draws=draws)


class TestPacRobustness:
    def test_huge_level_gives_probability_one(self, line_grid):
        base = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        ref = expected_cost(base, cf, [1.0])
        level = 2.0 * 3.0 + ref + 1.0  # beyond any reachable deviation
        rep = pac_robustness(DirichletPrior(base, 2.0), cf, [1.0], ref, level, mc_draws=2000, seed=0)
        assert rep.diagnostics["empirical_probability"] == 1.0
        assert rep.confidence >= 0.0

    def test_empirical_dominates_markov_bound(self, line_grid):
        rng = np.random.default_rng(12)
        cf = make_cost("absolute")
        for trial in range(10):
            base = random_distribution(rng, random_grid(rng, 4, scale=2.0))
            x = rng.uniform(-2, 2, size=1)
            ref = float(rng.uniform(0, 1))
            level = float(rng.uniform(0.5, 4.0))
            rep = pac_robustness(DirichletPrior(base, 3.0), cf, x, ref, level, mc_draws=4000, seed=trial)
            emp = rep.diagnostics["empirical_probability"]
            sigma = rep.diagnostics["empirical_sigma"]
            assert emp >= rep.confidence - 3.0 * sigma - 1e-9

    def test_mean_measure_identity(self, line_grid):
        # Monte-Carlo average of E_P h matches the base expectation.
        base = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        rep = pac_robustness(DirichletPrior(base, 5.0), cf, [0.5], 0.3, 1.0, mc_draws=20_000, seed=2)
        mc = rep.diagnostics["mc_mean_expectation"]
        exact = rep.diagnostics["base_expectation"]
        assert mc == pytest.approx(exact, abs=0.02)

    def test_concentration_at_large_alpha(self, line_grid):
        base = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = make_cost("absolute")
        x = [0.5]
        exact = expected_cost(base, cf, x)
        # Deviation window that excludes the concentrated value:
        ref = exact + 0.5
        rep = pac_robustness(DirichletPrior(base, 1e6), cf, x, ref, 0.25, mc_draws=2000, seed=3)
        assert rep.diagnostics["empirical_probability"] == pytest.approx(0.0, abs=1e-3)
        # and one that includes it:
        rep2 = pac_robustness(DirichletPrior(base, 1e6), cf, x, ref, 0.75, mc_draws=2000, seed=3)
        assert rep2.diagnostics["empirical_probability"] == pytest.approx(1.0, abs=1e-3)

    def test_negative_cost_rejected(self, line_grid):
        base = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        bad = CostFunction("neg", lambda x, xi: -1.0, nonneg=True)
        with pytest.raises(ValueError, match="nonnegative cost"):
            pac_robustness(DirichletPrior(base, 1.0), bad, [0.0], 0.0, 1.0, mc_draws=10)

    def test_unflagged_cost_rejected(self, line_grid):
        base = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        cf = CostFunction("unflagged", lambda x, xi: 1.0, nonneg=False)
        with pytest.raises(ValueError, match="flagged nonnegative"):
            pac_robustness(DirichletPrior(base, 1.0), cf, [0.0], 0.0, 1.0, mc_draws=10)

    @pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, -1.0])
    def test_level_must_be_positive_and_finite(self, line_grid, level):
        base = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        with pytest.raises(ValueError, match="positive and finite"):
            pac_robustness(DirichletPrior(base, 1.0), make_cost("absolute"), [0.0], 0.0, level, mc_draws=10)

    def test_concentration_validated(self, line_grid):
        base = DiscreteDistribution.uniform(line_grid)
        with pytest.raises(ValueError):
            DirichletPrior(base, 0.0)
