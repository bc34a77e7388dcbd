"""Gap records and deviation-bound suites."""

import math

import numpy as np
import pytest

from conftest import random_distribution, random_grid
from drolab import divergence
from drolab.bounds import (
    HypothesisViolationError,
    absolute_bound,
    expected_bounds,
    minmax_one_sided_bound,
    relative_bound,
    uniform_bound,
)
from drolab.cost import (
    CostFunction,
    DecisionSpace,
    MissingLipschitzDataError,
    expected_cost,
    make_cost,
    with_lipschitz_scale,
)
from drolab.divergence import AmbiguityBall, DivergenceKind, wasserstein
from drolab.support import DiscreteDistribution, SupportGrid, derive_seed, empirical, sample

W1 = DivergenceKind.wasserstein_order(1.0)


class TestUniformBound:
    def test_identical_distributions_give_zero(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 5)
        for gap, rec in uniform_bound(p0, p0, make_cost("absolute"), space):
            assert gap.abs_gap == pytest.approx(0.0, abs=1e-12)
            assert rec.bound == pytest.approx(0.0, abs=1e-10)
            assert rec.holds

    def test_absolute_loss_bound_is_the_distance(self):
        rng = np.random.default_rng(14)
        cf = make_cost("absolute")
        for _ in range(25):
            grid = random_grid(rng, int(rng.integers(2, 6)))
            p0 = random_distribution(rng, grid)
            pbar = random_distribution(rng, grid)
            space = DecisionSpace.from_points(rng.uniform(-2, 2, size=(5, 1)))
            dist = wasserstein(p0, pbar, 1.0)
            for gap, rec in uniform_bound(p0, pbar, cf, space):
                assert rec.bound == pytest.approx(dist, abs=1e-9)
                assert gap.abs_gap <= rec.bound + 1e-9
                assert rec.holds

    def test_higher_order_distance_weakens_the_bound(self, line_grid):
        # The bound reads W1, the tightest order: Wasserstein distances
        # grow with the order, so L(x) * W2 would be a weaker bound.
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        pbar = DiscreteDistribution(line_grid, [0.5, 0.25, 0.25])
        assert wasserstein(p0, pbar, 2.0) >= wasserstein(p0, pbar, 1.0) - 1e-9

    def test_missing_lipschitz_data_rejected(self, line_grid):
        p0 = DiscreteDistribution.uniform(line_grid)
        cf = CostFunction("nolip", lambda x, xi: 1.0)
        with pytest.raises(MissingLipschitzDataError):
            uniform_bound(p0, p0, cf, DecisionSpace.interval(0, 1, 3))


class TestMinmaxOneSidedBound:
    def test_zero_radius_at_center_gives_equality(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        ball = AmbiguityBall(p0, 0.0, W1)
        [(gap, rec)], sol = minmax_one_sided_bound(p0, ball, cf, space)
        assert rec.holds
        assert rec.observed == pytest.approx(rec.bound, abs=1e-12)

    def test_boundary_radius_still_holds(self, line_grid):
        # The ball is closed, so placing the truth exactly on the boundary
        # keeps the hypothesis satisfied.
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        center = DiscreteDistribution(line_grid, [0.5, 0.25, 0.25])
        space = DecisionSpace.interval(0, 3, 7)
        cf = make_cost("absolute")
        radius = wasserstein(p0, center, 1.0)
        [(gap, rec)], _ = minmax_one_sided_bound(p0, AmbiguityBall(center, radius, W1), cf, space)
        assert rec.holds

    def test_truth_outside_ball_rejected(self, line_grid):
        p0 = DiscreteDistribution.dirac(line_grid, 2)
        center = DiscreteDistribution.dirac(line_grid, 0)
        space = DecisionSpace.interval(0, 3, 4)
        with pytest.raises(HypothesisViolationError):
            minmax_one_sided_bound(p0, AmbiguityBall(center, 0.1, W1), make_cost("absolute"), space)


class TestAbsoluteBound:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 3)
        p0 = random_distribution(rng, grid)
        pbar = random_distribution(rng, grid)
        space = DecisionSpace.from_points(np.sort(rng.uniform(-2, 2, size=(7, 1)), axis=0))
        cf = make_cost("absolute")
        radius = wasserstein(p0, pbar, 1.0)
        return p0, AmbiguityBall(pbar, radius, W1), cf, space

    def test_both_records_hold_on_random_instances(self):
        for seed in range(15):
            p0, ball, cf, space = self._setup(seed)
            pairs, sol = absolute_bound(p0, ball, cf, space)
            kinds = [rec.kind for _, rec in pairs]
            assert kinds == ["absolute_nominal", "absolute_dro"]
            for gap, rec in pairs:
                assert rec.holds, (seed, rec)

    def test_triangle_decomposition_termwise(self):
        # The chained inequality behind the nominal record: each link holds.
        p0, ball, cf, space = self._setup(99)
        pairs, sol = absolute_bound(p0, ball, cf, space)
        gap_nom, rec_nom = pairs[0]
        x_nom = gap_nom.x
        x_rob = sol.x
        lhs = gap_nom.abs_gap
        step1 = abs(expected_cost(p0, cf, x_nom) - expected_cost(p0, cf, x_rob))
        step2 = abs(expected_cost(p0, cf, x_rob) - expected_cost(ball.center, cf, x_nom))
        assert lhs <= step1 + step2 + 1e-9
        assert step1 <= rec_nom.ingredients["displacement"] * rec_nom.ingredients["mean_lip_in_x"] + 1e-9
        assert step2 <= rec_nom.ingredients["l_star"] + 1e-9

    def test_coincident_optimizers_reduce_to_l_star(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        ball = AmbiguityBall(p0, 0.0, W1)
        space = DecisionSpace.interval(0, 3, 7)
        pairs, sol = absolute_bound(p0, ball, make_cost("absolute"), space)
        gap_nom, rec_nom = pairs[0]
        assert rec_nom.ingredients["displacement"] == pytest.approx(0.0)
        assert rec_nom.bound == pytest.approx(rec_nom.ingredients["l_star"], abs=1e-12)

    def test_hypothesis_checked(self, line_grid):
        p0 = DiscreteDistribution.dirac(line_grid, 2)
        center = DiscreteDistribution.dirac(line_grid, 0)
        with pytest.raises(HypothesisViolationError):
            absolute_bound(p0, AmbiguityBall(center, 0.5, W1), make_cost("absolute"),
                           DecisionSpace.interval(0, 3, 3))

    def test_ball_covering_simplex_holds_with_large_measure(self, line_grid):
        # Radius at the grid diameter contains every distribution, so the
        # hypothesis is free and the (large) deviation level still bounds.
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        center = DiscreteDistribution(line_grid, [0.6, 0.2, 0.2])
        ball = AmbiguityBall(center, line_grid.diameter, W1)
        pairs, sol = absolute_bound(p0, ball, make_cost("absolute"), DecisionSpace.interval(0, 3, 5))
        assert sol.measure > 0.5
        assert all(rec.holds for _, rec in pairs)


class TestRelativeBound:
    def test_records_hold_on_random_instances(self):
        rng = np.random.default_rng(77)
        cf = make_cost("absolute")
        for _ in range(15):
            grid = random_grid(rng, 3)
            p0 = random_distribution(rng, grid)
            pbar = random_distribution(rng, grid)
            space = DecisionSpace.from_points(np.sort(rng.uniform(-2, 2, size=(5, 1)), axis=0))
            pairs, sol = relative_bound(p0, pbar, cf, space, W1)
            for gap, rec in pairs:
                assert rec.holds

    def test_identical_distributions_leave_displacement_term(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        space = DecisionSpace.interval(0, 3, 7)
        pairs, sol = relative_bound(p0, p0, make_cost("absolute"), space, W1)
        gap_nom, rec_nom = pairs[0]
        assert gap_nom.abs_gap == pytest.approx(0.0, abs=1e-12)
        assert rec_nom.ingredients["distance_to_center"] == pytest.approx(0.0, abs=1e-10)
        assert rec_nom.holds

    def test_one_lipschitz_cap_on_the_bound(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        pbar = DiscreteDistribution(line_grid, [0.4, 0.4, 0.2])
        space = DecisionSpace.interval(0, 3, 7)
        pairs, sol = relative_bound(p0, pbar, make_cost("absolute"), space, W1)
        gap_nom, rec_nom = pairs[0]
        cap = rec_nom.ingredients["displacement"] * 1.0 + 1.0 * wasserstein(p0, pbar, 1.0)
        assert rec_nom.bound <= cap + 1e-9

    def test_infinite_certificate_flagged_degenerate(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        pbar = DiscreteDistribution(line_grid, [0.4, 0.4, 0.2])
        space = DecisionSpace.interval(0, 3, 5)
        pairs, sol = relative_bound(p0, pbar, make_cost("absolute"), space, DivergenceKind.kl())
        for gap, rec in pairs:
            assert rec.degenerate
            assert math.isinf(rec.bound)
            assert rec.holds

    def test_zero_distance_with_infinite_rate_is_zero_bound(self, line_grid):
        # An infinite deviation rate against a zero divergence still pins the
        # gap at zero; the record must not degrade to nan.
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 5)
        pairs, sol = relative_bound(p0, p0, make_cost("absolute"), space, DivergenceKind.kl())
        gap_nom, rec_nom = pairs[0]
        assert rec_nom.bound == 0.0 and rec_nom.holds


class TestExpectedBounds:
    def test_uniform_summary_holds(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 4)
        summary, rows = expected_bounds(p0, make_cost("absolute"), space, "uniform", n=15,
                                        replications=40, seed=21)
        assert rows and all(r["holds"] for r in rows) and summary["skipped"] == 0
        for check in summary["checks"].values():
            assert check["expected_holds"]
            assert check["mean_gap"] <= check["mean_bound"] + 3 * check["sigma"] + 1e-9

    def test_absolute_summary_holds(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 4)
        summary, rows = expected_bounds(p0, make_cost("absolute"), space, "absolute", n=10,
                                        replications=40, seed=22)
        assert {r["kind"] for r in rows} == {"absolute_nominal", "absolute_dro"}
        assert all(r["holds"] for r in rows) and summary["skipped"] == 0

    def test_absolute_suite_solves_one_transport_per_replication(self, spy):
        # The radius and the membership check both ask for W(p0, pbar), by
        # the transport LP of a 2-D metric.  Two of the 30 draws give pbar =
        # p0, whose distance is 0 with no LP.
        calls = spy(divergence, "optimal_transport")
        grid = SupportGrid.euclidean([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
        p0 = DiscreteDistribution(grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.from_points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5], [3.0, 1.0]])
        expected_bounds(p0, make_cost("absolute"), space, "absolute", n=10, replications=30, seed=22)
        assert len(calls) == 30 - 2

    def test_replication_floor(self, line_grid):
        p0 = DiscreteDistribution.uniform(line_grid)
        with pytest.raises(ValueError, match="30"):
            expected_bounds(p0, make_cost("absolute"), DecisionSpace.interval(0, 1, 2),
                            "uniform", n=5, replications=10, seed=0)

    def test_newsvendor_absolute_suite_at_three_sigma(self):
        # Inventory-style piecewise-linear cost, 200 fresh datasets: the
        # averaged gaps stay under the averaged bounds at 3 sigma.
        grid = SupportGrid.euclidean([[0.0], [2.0], [5.0]])
        p0 = DiscreteDistribution(grid, [0.3, 0.4, 0.3])
        cf = make_cost("newsvendor", params={"b": 2.0, "c": 1.0})
        space = DecisionSpace.interval(0.0, 5.0, 6)
        summary, rows = expected_bounds(p0, cf, space, "absolute", n=12, replications=200, seed=29)
        assert all(r["holds"] for r in rows)
        for check in summary["checks"].values():
            assert check["expected_holds"]

    def test_all_holds_reads_each_checks_own_rows(self):
        # Uniform checks are per decision (uniform@x{k}); each check's
        # all_holds must follow its own rows, not every uniform row.
        grid = SupportGrid.euclidean([[0.0], [1.0], [3.0], [4.0]])
        p0 = DiscreteDistribution(grid, [0.1, 0.4, 0.3, 0.2])
        space = DecisionSpace.interval(0.0, 4.0, 5)
        cf = with_lipschitz_scale(make_cost("newsvendor", params={"b": 3.0, "c": 1.0}), 0.75)
        summary, rows = expected_bounds(p0, cf, space, "uniform", n=5, replications=30, seed=1)
        per_check = [[r["holds"] for r in rows[k::len(space)]] for k in range(len(space))]
        assert all(len(held) == 30 for held in per_check)
        assert [summary["checks"][f"uniform@x{k}"]["all_holds"] for k in range(len(space))] == [
            all(held) for held in per_check
        ]
        assert [all(held) for held in per_check] == [False, False, True, True, True]

    def test_relative_summary_on_w1_averages_every_row(self, line_grid):
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 4)
        summary, rows = expected_bounds(p0, make_cost("absolute"), space, "relative", n=10,
                                        replications=30, seed=5)
        assert [r["kind"] for r in rows] == ["relative_nominal", "relative_dro"] * 30
        assert all(r["holds"] for r in rows) and summary["skipped"] == 0
        for check, stats in summary["checks"].items():
            own = [r for r in rows if r["kind"] == check]
            assert stats["mean_gap"] == pytest.approx(np.mean([r["gap"] for r in own]), abs=1e-12)
            assert stats["mean_bound"] == pytest.approx(np.mean([r["bound"] for r in own]), abs=1e-12)
            assert math.isfinite(stats["sigma"]) and stats["expected_holds"]

    def test_relative_summary_with_infinite_bounds_averages_every_row(self, line_grid):
        # KL bounds carry an infinite rate certificate and are infinite
        # unless the sample hits p0 exactly; the 6 finite rows here all have
        # gap 0, so averaging the bound over them alone would read 1.0
        # against a mean gap taken over all 30 rows.
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 4)
        summary, rows = expected_bounds(p0, make_cost("absolute"), space, "relative", n=10,
                                        replications=30, seed=5, kind=DivergenceKind.kl())
        nominal = [r for r in rows if r["kind"] == "relative_nominal"]
        assert sum(math.isinf(r["bound"]) for r in nominal) == 24
        check = summary["checks"]["relative_nominal"]
        assert check["mean_gap"] == pytest.approx(np.mean([r["gap"] for r in nominal]), abs=1e-12)
        assert check["mean_bound"] == math.inf and check["sigma"] == math.inf
        assert check["expected_holds"] and check["all_holds"]

    def test_absolute_summary_skips_infinite_kl_radii(self, line_grid):
        # A sample of 10 misses the 0.2 atom with probability 0.8**10, and
        # KL(p0 || pbar) is then infinite: no ball, so no records.
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        space = DecisionSpace.interval(0, 3, 4)
        summary, rows = expected_bounds(p0, make_cost("absolute"), space, "absolute", n=10,
                                        replications=30, seed=5, kind=DivergenceKind.kl())
        misses = [
            bool(np.any(empirical(sample(p0, 10, derive_seed(5, 10, rep))).weights[p0.weights > 0.0] == 0.0))
            for rep in range(30)
        ]
        assert summary["skipped"] == sum(misses) > 0
        kept = [derive_seed(5, 10, rep) for rep, missed in enumerate(misses) if not missed]
        assert [r["seed"] for r in rows] == [s for s in kept for _ in range(2)]
        assert [r["kind"] for r in rows] == ["absolute_nominal", "absolute_dro"] * len(kept)
        assert all(r["holds"] for r in rows)
        assert all(check["expected_holds"] for check in summary["checks"].values())

    def test_degenerate_generator_gives_zero_gap(self, line_grid):
        # With a one-point support the empirical distribution equals the
        # truth for every sample, so every gap is exactly zero.
        p0 = DiscreteDistribution.dirac(line_grid, 1)
        space = DecisionSpace.interval(0, 3, 4)
        summary, rows = expected_bounds(p0, make_cost("absolute"), space, "uniform", n=5,
                                        replications=30, seed=3)
        assert all(float(r["gap"]) == pytest.approx(0.0, abs=1e-12) for r in rows)


def test_one_sided_never_exceeds_two_sided(line_grid):
    # On a shared instance the worst-case increase is at most the two-sided
    # deviation radius of the same ball.
    from drolab.divergence import extremal_expectation
    from drolab.cost import cost_table
    from drolab.solvers import _coupling_lp_deviation

    p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
    center = DiscreteDistribution(line_grid, [0.4, 0.4, 0.2])
    space = DecisionSpace.interval(0, 3, 5)
    cf = make_cost("absolute")
    ball = AmbiguityBall(center, 0.4, W1)
    table = cost_table(cf, line_grid, space)
    ref = float(np.min(table @ center.weights))
    for k in range(len(space)):
        one_sided = extremal_expectation(ball, table[k], "max")[0] - ref
        two_sided = _coupling_lp_deviation(ball, table[k], ref)[0]
        assert one_sided <= two_sided + 1e-12
