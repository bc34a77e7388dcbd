"""Transport distances, phi-divergences, balls, and extremal oracles."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    absolute_deviation,
    ball_extremal_lp,
    extremal_oracle_w1,
    kl_divergence_vec,
    kl_extremal_brentq,
    rational_weights,
    transport_grid_search,
    transport_vertex_search,
    w1_dual_vertices,
    w1_from_dual,
)
from conftest import RADIUS_FRACTIONS, random_ball_instance, random_distribution, random_grid, spy_on
from drolab import divergence
from drolab.divergence import (
    _phi,
    AmbiguityBall,
    DivergenceKind,
    deviation_table,
    extremal_expectation,
    extremal_values,
    membership,
    optimal_transport,
    phi_divergence,
    wasserstein,
)
from drolab.solvers import _coupling_lp_deviation, satisficing_radius_grid
from drolab.support import DiscreteDistribution, GridMismatchError, SupportGrid


class TestDivergenceKind:
    def test_wasserstein_orders_validated(self):
        with pytest.raises(ValueError):
            DivergenceKind.wasserstein_order(0.5)
        with pytest.raises(ValueError):
            DivergenceKind.wasserstein_order(math.inf)

    def test_generator_names_validated(self):
        with pytest.raises(ValueError):
            DivergenceKind("phi", generator="hellinger")

    @pytest.mark.parametrize("generator", ["kl", "chi2", "tv"])
    def test_builtin_generators_are_convex_with_phi_one_zero(self, generator):
        ts = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0])
        vals = _phi(generator, ts)
        assert abs(_phi(generator, np.array([1.0]))[0]) <= 1e-12
        mids = _phi(generator, (ts[:-2] + ts[2:]) / 2.0)
        assert np.all(mids <= (vals[:-2] + vals[2:]) / 2.0 + 1e-12)

    def test_orientation_flag(self, line_grid):
        a = DiscreteDistribution(line_grid, [1.0, 0.0, 0.0])
        b = DiscreteDistribution(line_grid, [0.5, 0.5, 0.0])
        forward = DivergenceKind.kl("forward").distance(a, b)
        reverse = DivergenceKind.kl("reverse").distance(a, b)
        assert forward == pytest.approx(math.log(2.0))
        assert math.isinf(reverse)

    @pytest.mark.parametrize("generator", ["kl", "chi2", "tv"])
    @pytest.mark.parametrize("seed", range(4))
    def test_forward_radius_cap_caps(self, generator, seed):
        # A forward phi divergence is convex in q, so no distribution exceeds
        # its largest value at a vertex of the simplex; KL and chi-square
        # attain the cap at the Dirac on the lightest support atom.
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 6)
        w = rng.dirichlet(np.ones(6))
        w[rng.choice(6, size=seed % 3, replace=False)] = 0.0
        center = DiscreteDistribution(grid, w / w.sum())
        kind = DivergenceKind("phi", generator=generator)
        cap = kind.radius_cap(center)
        vertices = [kind.distance(DiscreteDistribution.dirac(grid, j), center) for j in range(6)]
        finite = [d for d in vertices if math.isfinite(d)]
        assert max(finite) <= cap * (1.0 + 1e-12)
        if generator != "tv":
            assert max(finite) == pytest.approx(cap, rel=1e-12)
        for q in rng.dirichlet(np.ones(6), size=20):
            d = kind.distance(DiscreteDistribution(grid, q), center)
            assert d <= cap * (1.0 + 1e-12) or math.isinf(d)  # inf: q leaves the centre's support

    def test_reverse_radius_caps(self, line_grid):
        # Reverse KL and chi-square grow without bound as q empties an atom
        # the centre holds; -log w_min (1.61 here) is no cap for them.
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        near_vertex = DiscreteDistribution(line_grid, [1e-6, 1e-6, 1.0 - 2e-6])
        for generator in ("kl", "chi2"):
            kind = DivergenceKind("phi", generator=generator, orientation="reverse")
            assert math.isinf(kind.radius_cap(center))
            assert kind.distance(near_vertex, center) > DivergenceKind("phi", generator=generator).radius_cap(center)
            with pytest.raises(ValueError, match="never stop growing"):
                satisficing_radius_grid(kind, center)
        reverse_tv = DivergenceKind.tv("reverse")
        assert reverse_tv.radius_cap(center) == 1.0
        for j in range(3):
            assert reverse_tv.distance(DiscreteDistribution.dirac(line_grid, j), center) <= 1.0


class TestWasserstein:
    def test_identity_of_indiscernibles(self, line_grid):
        d = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        assert wasserstein(d, d, 1.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_diracs_give_ground_distance(self, line_grid, p):
        di = DiscreteDistribution.dirac(line_grid, 0)
        dj = DiscreteDistribution.dirac(line_grid, 2)
        assert wasserstein(di, dj, p) == pytest.approx(3.0, abs=1e-9)

    def test_matches_fine_coupling_grid(self):
        # ~1e6 grid points over the coupling polytope; marginals are grid
        # aligned so an exact optimizer lies on the scan lattice.
        rng = np.random.default_rng(5)
        grid = random_grid(rng, 3)
        res = 31
        a = DiscreteDistribution(grid, rational_weights(rng, 3, res))
        b = DiscreteDistribution(grid, rational_weights(rng, 3, res))
        for p in (1.0, 2.0):
            cost = grid.ground_metric**p
            oracle = transport_grid_search(a.weights, b.weights, cost, res)
            plan = optimal_transport(a, b, p)
            assert plan.cost == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_vertex_enumeration(self, trial):
        rng = np.random.default_rng(60 + trial)
        grid = random_grid(rng, 3)
        a = random_distribution(rng, grid)
        b = random_distribution(rng, grid)
        p = float(rng.choice([1.0, 2.0]))
        cost = grid.ground_metric**p
        oracle = transport_vertex_search(a.weights, b.weights, cost)
        assert optimal_transport(a, b, p).cost == pytest.approx(oracle, abs=1e-8)

    def test_plan_is_recoverable_and_valid(self, line_grid):
        a = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        b = DiscreteDistribution(line_grid, [0.5, 0.5, 0.0])
        plan = optimal_transport(a, b, 1.0)
        plan.validate(a, b)
        assert wasserstein(a, b, 1.0) == pytest.approx(plan.cost)

    def test_transport_lp_takes_the_transportation_form(self, square_grid, spy):
        # The LP gets the two marginals, not a 2m x m^2 constraint matrix.
        calls = spy(divergence, "solve_lp")
        a = DiscreteDistribution(square_grid, [0.1, 0.2, 0.3, 0.4])
        b = DiscreteDistribution(square_grid, [0.5, 0.0, 0.25, 0.25])
        optimal_transport(a, b, 1.0)
        ((args, kwargs),) = calls
        assert len(args) == 1 and args[0].shape == (16,) and list(kwargs) == ["marginals"]
        assert [m.tobytes() for m in kwargs["marginals"]] == [a.weights.tobytes(), b.weights.tobytes()]

    def test_cost_is_the_clamped_plans(self):
        # A W2 instance from set_robustness's membership bisection: the LP
        # leaves an entry near -9e-11, and its objective, taken before the
        # clamp, was 1.4e-9 off the returned plan's cost.
        grid = SupportGrid.euclidean(
            [[0.82177, -1.38128], [-2.754159, -2.900834], [1.879621, 2.476533], [0.639815, 1.376979],
             [0.26175, 2.610435]]
        )
        a = DiscreteDistribution(grid, [0.4906060045022722, 0.00019223850240649993, 0.33873597100424085,
                                        0.010822630753853072, 0.15964315523722733])
        b = DiscreteDistribution(grid, [0.49060623844155676, 0.00019223859407300483, 0.33873613252621565,
                                        0.010822635914488026, 0.15964275452366652])
        plan = optimal_transport(a, b, 2.0)
        plan.validate(a, b)
        assert np.min(plan.matrix) >= 0.0
        assert plan.cost == float((grid.ground_metric**2.0).reshape(-1) @ plan.matrix.reshape(-1))

    def test_matches_dual_vertex_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            grid = random_grid(rng, 4)
            verts = w1_dual_vertices(grid.ground_metric)
            a = random_distribution(rng, grid)
            b = random_distribution(rng, grid)
            assert wasserstein(a, b, 1.0) == pytest.approx(
                w1_from_dual(verts, a.weights, b.weights), abs=1e-8
            )

    @pytest.mark.parametrize("m", [6, 8, 10])
    def test_larger_grids_match_reference_solver(self, m):
        from scipy.optimize import linprog

        rng = np.random.default_rng(400 + m)
        grid = random_grid(rng, m)
        a = random_distribution(rng, grid)
        b = random_distribution(rng, grid)
        cost = grid.ground_metric.reshape(-1)
        a_eq = np.zeros((2 * m, m * m))
        for i in range(m):
            a_eq[i, i * m : (i + 1) * m] = 1.0
        for j in range(m):
            a_eq[m + j, j::m] = 1.0
        ref = linprog(
            cost, A_eq=a_eq, b_eq=np.concatenate([a.weights, b.weights]), bounds=(0, None), method="highs"
        )
        assert ref.status == 0
        assert wasserstein(a, b, 1.0) == pytest.approx(ref.fun, abs=1e-8)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_and_order_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, int(rng.integers(2, 6)))
        a = random_distribution(rng, grid)
        b = random_distribution(rng, grid)
        w1 = wasserstein(a, b, 1.0)
        assert wasserstein(b, a, 1.0) == pytest.approx(w1, abs=1e-8)
        assert w1 <= wasserstein(a, b, 2.0) + 1e-8


class TestTransportMemo:
    """``wasserstein(a, b)`` solves each instance once for as long as ``b`` lives.

    On a 2-D grid, where every distance takes the transport LP.
    """

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        solve = divergence.solve_lp

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(divergence, "solve_lp", counting)
        return calls

    @pytest.fixture
    def pair(self, square_grid):
        return (
            DiscreteDistribution(square_grid, [0.1, 0.2, 0.3, 0.4]),
            DiscreteDistribution(square_grid, [0.5, 0.0, 0.25, 0.25]),
        )

    def test_repeat_call_returns_identical_float_without_solving(self, pair, lp_calls):
        a, b = pair
        first = wasserstein(a, b, 1.0)
        assert len(lp_calls) == 1
        # The key is the weights of a, not the object, and b holds it.
        again = wasserstein(DiscreteDistribution(a.grid, [0.1, 0.2, 0.3, 0.4]), b, 1)
        assert np.float64(again).tobytes() == np.float64(first).tobytes()
        assert len(lp_calls) == 1
        assert ("wasserstein", 1.0, a.weights.tobytes()) in b._memo
        assert not a._memo

    def test_fresh_b_with_equal_weights_solves_again(self, pair, lp_calls):
        a, b = pair
        first = wasserstein(a, b, 1.0)
        again = wasserstein(a, DiscreteDistribution(b.grid, b.weights), 1.0)
        assert len(lp_calls) == 2
        assert np.float64(again).tobytes() == np.float64(first).tobytes()

    def test_swapped_arguments_and_orders_are_separate_instances(self, pair, lp_calls):
        a, b = pair
        w1 = wasserstein(a, b, 1.0)
        assert wasserstein(b, a, 1.0) == pytest.approx(w1, abs=1e-12)
        w2 = wasserstein(a, b, 2.0)
        assert len(lp_calls) == 3
        assert w2 == pytest.approx(math.sqrt(optimal_transport(a, b, 2.0).cost), abs=1e-12)
        assert w2 != w1

    def test_grid_mismatch_raised_before_lookup(self, pair, square_grid, lp_calls):
        # The shifted square has the same ground metric, so only the grid
        # check tells the instances apart: after a hit on b, the key of a
        # shifted copy of a is already in b's memo.
        a, b = pair
        shifted = SupportGrid.euclidean(square_grid.atoms + 1.0)
        assert np.array_equal(shifted.ground_metric, square_grid.ground_metric)
        wasserstein(a, b, 1.0)
        wasserstein(a, b, 1.0)
        with pytest.raises(GridMismatchError):
            wasserstein(DiscreteDistribution(shifted, a.weights), b, 1.0)
        with pytest.raises(ValueError, match="order"):
            wasserstein(a, b, 0.5)
        assert len(lp_calls) == 1


class TestPhiDivergence:
    def test_zero_at_identity(self, line_grid):
        d = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        for gen in ("kl", "chi2", "tv"):
            assert phi_divergence(d, d, gen) == pytest.approx(0.0, abs=1e-12)

    def test_kl_hand_value(self, line_grid):
        a = DiscreteDistribution(line_grid, [1.0, 0.0, 0.0])
        b = DiscreteDistribution(line_grid, [0.5, 0.5, 0.0])
        assert phi_divergence(a, b, "kl") == pytest.approx(math.log(2.0), abs=1e-12)

    def test_support_escape_gives_infinity(self, line_grid):
        a = DiscreteDistribution(line_grid, [0.0, 0.0, 1.0])
        b = DiscreteDistribution(line_grid, [0.5, 0.5, 0.0])
        assert math.isinf(phi_divergence(a, b, "kl"))
        assert math.isinf(phi_divergence(a, b, "chi2"))
        # Total variation stays finite: half the L1 distance.
        assert phi_divergence(a, b, "tv") == pytest.approx(1.0)

    def test_tv_is_half_l1(self, line_grid):
        a = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        b = DiscreteDistribution(line_grid, [0.4, 0.4, 0.2])
        assert phi_divergence(a, b, "tv") == pytest.approx(0.5 * np.abs(a.weights - b.weights).sum())

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 4)
        a = random_distribution(rng, grid)
        b = random_distribution(rng, grid)
        for gen in ("kl", "chi2", "tv"):
            assert phi_divergence(a, b, gen) >= -1e-12


class TestMembership:
    def test_center_always_member(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        for kind in (DivergenceKind.wasserstein_order(1), DivergenceKind.kl()):
            assert membership(AmbiguityBall(center, 0.0, kind), center)

    def test_far_dirac_outside_small_ball(self, line_grid):
        center = DiscreteDistribution.dirac(line_grid, 0)
        far = DiscreteDistribution.dirac(line_grid, 2)
        ball = AmbiguityBall(center, 1.0, DivergenceKind.wasserstein_order(1))
        assert not membership(ball, far)

    def test_negative_radius_rejected(self, line_grid):
        center = DiscreteDistribution.uniform(line_grid)
        with pytest.raises(ValueError):
            AmbiguityBall(center, -0.1, DivergenceKind.wasserstein_order(1))


class TestExtremalExpectation:
    def test_zero_radius_returns_center(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        ball = AmbiguityBall(center, 0.0, DivergenceKind.wasserstein_order(1))
        costs = [1.0, -2.0, 4.0]
        value, witness = extremal_expectation(ball, costs, "max")
        assert value == pytest.approx(center.expectation(costs))
        assert witness is center

    def test_ball_covering_simplex_gives_best_atom(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        ball = AmbiguityBall(center, line_grid.diameter, DivergenceKind.wasserstein_order(1))
        costs = np.array([1.0, 7.0, 4.0])
        value, witness = extremal_expectation(ball, costs, "max")
        assert value == pytest.approx(7.0)
        assert witness.is_dirac and witness.weights[1] == 1.0
        value, witness = extremal_expectation(ball, costs, "min")
        assert value == pytest.approx(1.0)
        assert witness.weights[0] == 1.0

    def test_witness_is_member_and_attaining(self, line_grid):
        rng = np.random.default_rng(2)
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        for kind in (DivergenceKind.wasserstein_order(1), DivergenceKind.wasserstein_order(2), DivergenceKind.kl()):
            for _ in range(5):
                costs = rng.normal(size=3)
                eps = float(rng.uniform(0.01, 0.5))
                ball = AmbiguityBall(center, eps, kind)
                for sense in ("max", "min"):
                    value, witness = extremal_expectation(ball, costs, sense)
                    assert membership(ball, witness)
                    assert abs(witness.expectation(costs) - value) <= 1e-9

    def test_matches_simplex_scan_with_corner_candidates(self):
        # A named 3-atom instance: the scan plus polytope corners pins the
        # optimum; the scan alone already agrees to grid resolution.
        grid = SupportGrid.euclidean([[0.0], [1.0], [2.5]])
        center = DiscreteDistribution(grid, [0.5, 0.3, 0.2])
        costs = np.array([1.0, 3.0, -2.0])
        ball = AmbiguityBall(center, 0.3, DivergenceKind.wasserstein_order(1))
        value, _ = extremal_expectation(ball, costs, "max")
        scan, exact = extremal_oracle_w1(center.weights, grid.ground_metric, costs, 0.3, resolution=200)
        assert scan <= value + 1e-9
        assert value == pytest.approx(exact, abs=1e-4)

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_reference_solver_up_to_ten_atoms(self, trial):
        rng = np.random.default_rng(5000 + trial)
        m = int(rng.integers(2, 11))
        grid = random_grid(rng, m)
        w = rng.dirichlet(np.ones(m))
        if trial % 3 == 0:  # degenerate centers with an empty atom
            w[rng.integers(m)] = 0.0
            w = w / w.sum()
        center = DiscreteDistribution(grid, w)
        costs = rng.normal(size=m) * rng.uniform(0.1, 10)
        eps = float(rng.uniform(0.0, 1.2) * grid.diameter)
        ball = AmbiguityBall(center, eps, DivergenceKind.wasserstein_order(1))
        val, _ = extremal_expectation(ball, costs, "max")
        ref, _ = ball_extremal_lp(center.weights, grid.ground_metric, 1.0, costs, eps, "max")
        assert val == pytest.approx(ref, abs=1e-9)

    def test_monotone_in_radius(self, line_grid):
        rng = np.random.default_rng(3)
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        costs = rng.normal(size=3)
        for kind in (DivergenceKind.wasserstein_order(1), DivergenceKind.kl()):
            prev_max, prev_min = -math.inf, math.inf
            for eps in (0.0, 0.05, 0.2, 0.5, 1.0):
                ball = AmbiguityBall(center, eps, kind)
                vmax, _ = extremal_expectation(ball, costs, "max")
                vmin, _ = extremal_expectation(ball, costs, "min")
                assert vmax >= prev_max - 1e-9
                assert vmin <= prev_min + 1e-9
                assert vmin - 1e-9 <= center.expectation(costs) <= vmax + 1e-9
                prev_max, prev_min = vmax, vmin

    def test_kl_weak_duality_gap(self, line_grid):
        # The tilted witness is primal feasible; its value reaches the dual
        # optimum to within 1e-6 on random instances.
        rng = np.random.default_rng(4)
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        for _ in range(20):
            costs = rng.normal(size=3) * rng.uniform(0.5, 5)
            eps = float(rng.uniform(1e-3, 1.0))
            ball = AmbiguityBall(center, eps, DivergenceKind.kl())
            dual, witness = extremal_expectation(ball, costs, "max")
            primal = witness.expectation(costs)
            assert kl_divergence_vec(witness.weights, center.weights) <= eps + 1e-9
            assert -1e-9 <= dual - primal <= 1e-6

    def test_kl_saturation_returns_best_supported_atom(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.5, 0.5, 0.0])
        costs = np.array([1.0, 2.0, 50.0])
        ball = AmbiguityBall(center, 10.0, DivergenceKind.kl())
        value, witness = extremal_expectation(ball, costs, "max")
        # Atom 2 is outside the center's support, so the best reachable value
        # is at atom 1.
        assert value == pytest.approx(2.0)
        assert witness.weights[2] == 0.0

    def test_four_atom_instances_match_corner_enumeration(self):
        from _oracles import ball_vertex_candidates

        rng = np.random.default_rng(71)
        for _ in range(3):
            grid = random_grid(rng, 4)
            center = random_distribution(rng, grid)
            costs = rng.normal(size=4)
            eps = float(rng.uniform(0.05, 0.7) * grid.diameter)
            ball = AmbiguityBall(center, eps, DivergenceKind.wasserstein_order(1))
            value, _ = extremal_expectation(ball, costs, "max")
            corners = ball_vertex_candidates(center.weights, grid.ground_metric, 1.0, eps)
            assert value == pytest.approx(float(np.max(corners @ costs)), abs=1e-7)

    def test_non_finite_costs_rejected(self, line_grid):
        ball = AmbiguityBall(DiscreteDistribution.uniform(line_grid), 0.1, DivergenceKind.wasserstein_order(1))
        with pytest.raises(ValueError, match="finite"):
            extremal_expectation(ball, [1.0, math.inf, 0.0], "max")

    def test_unsupported_ball_kind_rejected(self, line_grid):
        ball = AmbiguityBall(DiscreteDistribution.uniform(line_grid), 0.1, DivergenceKind.chi2())
        with pytest.raises(ValueError, match="implemented"):
            extremal_expectation(ball, [1.0, 2.0, 3.0], "max")


class TestWassersteinDualOracle:
    """The strong-dual ball oracle against the coupling LP solved by HiGHS."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 8),
        dim=st.sampled_from([1, 2]),
        p=st.sampled_from([1.0, 1.5, 2.0]),
        empty=st.integers(0, 3),
        tied=st.booleans(),
        frac=RADIUS_FRACTIONS,
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_coupling_lp_with_attaining_member_witness(self, seed, m, dim, p, empty, tied, frac):
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, dim, empty, tied)
        ball = AmbiguityBall(center, frac * center.grid.diameter, DivergenceKind.wasserstein_order(p))
        for costs in table:
            for sense in ("max", "min"):
                value, witness = extremal_expectation(ball, costs, sense)
                ref, _ = ball_extremal_lp(center.weights, center.grid.ground_metric, p, costs, ball.radius, sense)
                assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
                assert abs(witness.expectation(costs) - value) <= 1e-9 * max(1.0, abs(value))
                assert membership(ball, witness)

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 7),
        dim=st.sampled_from([1, 2]),
        p=st.sampled_from([1.0, 1.5, 2.0]),
        empty=st.integers(0, 2),
        tied=st.booleans(),
        fracs=st.lists(RADIUS_FRACTIONS, min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_values_equal_per_call_values(self, seed, m, dim, p, empty, tied, fracs):
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, dim, empty, tied)
        kind = DivergenceKind.wasserstein_order(p)
        radii = np.array(fracs) * center.grid.diameter
        values, witnesses = extremal_values(center, kind, table, radii)
        assert values.shape == (2 * len(table), len(radii))
        for half, sense in enumerate(("max", "min")):
            for k, costs in enumerate(table):
                row = half * len(table) + k
                for r, eps in enumerate(radii):
                    ball = AmbiguityBall(center, float(eps), kind)
                    value, _ = extremal_expectation(ball, costs, sense)
                    assert values[row, r] == value
                    witness = witnesses(row, r)
                    assert abs(witness.expectation(costs) - value) <= 1e-9 * max(1.0, abs(value))
                    assert membership(ball, witness)

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 6),
        dim=st.sampled_from([1, 2]),
        p=st.sampled_from([1.0, 2.0]),
        empty=st.integers(0, 2),
        tied=st.booleans(),
        fracs=st.lists(RADIUS_FRACTIONS, min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_absolute_deviation_matches_two_sided_table(self, seed, m, dim, p, empty, tied, fracs):
        # The absolute-DRO screen's LP step solves the coupling LP per call;
        # the batched two-sided deviations of the dual must give the same numbers.
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, dim, empty, tied)
        kind = DivergenceKind.wasserstein_order(p)
        radii = np.array(fracs) * center.grid.diameter
        ref = float(np.min(table @ center.weights))
        deviations, witnesses = deviation_table(center, kind, table, radii, ref)
        for k, costs in enumerate(table):
            for r, eps in enumerate(radii):
                dev, witness = _coupling_lp_deviation(AmbiguityBall(center, float(eps), kind), costs, ref)
                assert abs(dev - deviations[k, r]) <= 1e-9 * max(1.0, abs(dev))
                for q in (witness, witnesses(k, r)):
                    assert abs(abs(q.expectation(costs) - ref) - dev) <= 1e-9 * max(1.0, abs(dev))

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 7),
        dim=st.sampled_from([1, 2]),
        kind=st.sampled_from([("wasserstein", 1.0), ("wasserstein", 1.5), ("wasserstein", 2.0), ("kl", None)]),
        empty=st.integers(0, 2),
        tied=st.booleans(),
        fracs=st.lists(RADIUS_FRACTIONS, min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_witness_rows_equal_one_cell_witnesses(self, seed, m, dim, kind, empty, tied, fracs):
        # Witnesses.weights(r) builds every row in one pass; each row must be
        # the one-cell witness's weights byte for byte.  Radii are fractions
        # of the radius cap, so KL rows saturate past it.
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, dim, empty, tied)
        family, p = kind
        kind = DivergenceKind.wasserstein_order(p) if family == "wasserstein" else DivergenceKind.kl()
        radii = np.array(fracs) * kind.radius_cap(center)
        _, witnesses = extremal_values(center, kind, table, radii)
        for r in range(len(radii)):
            rows = witnesses.weights(r)
            assert rows.shape == (2 * len(table), m)
            for k in range(2 * len(table)):
                assert rows[k].tobytes() == witnesses(k, r).weights.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 7),
        dim=st.sampled_from([1, 2]),
        kind=st.sampled_from([1.0, 1.5, 2.0, "kl"]),
        empty=st.integers(0, 2),
        tied=st.booleans(),
        fracs=st.lists(RADIUS_FRACTIONS, min_size=0, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_case_rows_are_the_negated_worst_case_of_the_negated_table(
        self, seed, m, dim, kind, empty, tied, fracs
    ):
        # Rows k..2k-1 of extremal_values(c) hold the best cases of c's rows;
        # they are the negated worst cases of -c, bit for bit (up to the sign
        # of a zero, which negation flips), and so are their witnesses.  The
        # radii include 0 and one past the radius cap (the grid diameter for
        # Wasserstein balls).
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, dim, empty, tied)
        kind = DivergenceKind.kl() if kind == "kl" else DivergenceKind.wasserstein_order(kind)
        cap = kind.radius_cap(center)
        radii = np.array([0.0, *fracs, 1.5]) * cap
        k = len(table)
        values, witnesses = extremal_values(center, kind, table, radii)
        negated, negated_witnesses = extremal_values(center, kind, -table, radii)
        assert values.shape == negated.shape == (2 * k, radii.size)
        assert (values[k:] + 0.0).tobytes() == (-negated[:k] + 0.0).tobytes()
        for r in range(radii.size):
            rows = witnesses.weights(r)
            assert rows[k:].tobytes() == negated_witnesses.weights(r)[:k].tobytes()
            for i in range(2 * k):
                assert witnesses(i, r).weights.tobytes() == rows[i].tobytes()

    def test_kl_batch_matches_per_call_tilting(self, line_grid):
        center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        table = np.array([[1.0, -2.0, 4.0], [0.5, 0.5, 3.0]])
        radii = [0.0, 0.05, 2.0]
        values, witnesses = extremal_values(center, DivergenceKind.kl(), table, radii)
        for k, costs in enumerate(table):
            for r, eps in enumerate(radii):
                value, witness = extremal_expectation(AmbiguityBall(center, eps, DivergenceKind.kl()), costs, "min")
                assert values[len(table) + k, r] == value
                assert np.array_equal(witnesses(len(table) + k, r).weights, witness.weights)

    def test_rejects_bad_tables_and_radii(self, line_grid):
        center = DiscreteDistribution.uniform(line_grid)
        w1 = DivergenceKind.wasserstein_order(1)
        with pytest.raises(ValueError, match="in each row"):
            extremal_values(center, w1, np.ones(3), [0.1])
        with pytest.raises(ValueError, match="radii"):
            extremal_values(center, w1, np.ones((2, 3)), [0.1, -0.1])
        with pytest.raises(ValueError, match="implemented"):
            extremal_values(center, DivergenceKind.tv(), np.ones((2, 3)), [0.0, 0.1])
        at_center, _ = extremal_values(center, DivergenceKind.tv(), np.ones((2, 3)), [0.0])
        assert np.array_equal(at_center, np.ones((4, 1)))

    @pytest.mark.parametrize("sense", ["both", "MAX"])
    def test_one_cell_rejects_unknown_senses(self, line_grid, sense):
        ball = AmbiguityBall(DiscreteDistribution.uniform(line_grid), 0.1, DivergenceKind.wasserstein_order(1))
        with pytest.raises(ValueError, match="sense"):
            extremal_expectation(ball, np.ones(3), sense)


class TestDualBreakpointMemo:
    """Each centre solves a table's worst and best cases once per (kind,
    radii), and walks the Wasserstein dual's breakpoints once per (order,
    table) for every radius; later calls read the arrays it keeps."""

    # The functions that do an oracle's work: a breakpoint walk, a value
    # sweep, a KL root search.
    WORK = ("_upper_envelopes", "_wasserstein_values", "_kl_values", "_kl_tilt_roots")

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 8),
        dim=st.sampled_from([1, 2]),
        kind=st.sampled_from([1.0, 1.5, 2.0, "kl"]),
        empty=st.integers(0, 3),
        tied=st.booleans(),
        fracs=st.lists(RADIUS_FRACTIONS, min_size=1, max_size=4),
        sense=st.sampled_from(["max", "min"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_warm_centre_matches_fresh_centre(self, seed, m, dim, kind, empty, tied, fracs, sense):
        # ``sense`` picks the side of the one-cell warm-up calls.
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, dim, empty, tied)
        # Two centres built alike have the same weight bits and each its own memo.
        center, fresh = (DiscreteDistribution(center.grid, center.weights) for _ in range(2))
        if kind == "kl":
            kind, other_kind = DivergenceKind.kl(), DivergenceKind.wasserstein_order(1.0)
        else:
            kind, other_kind = DivergenceKind.wasserstein_order(kind), DivergenceKind.wasserstein_order(kind + 1.0)
        cap = kind.radius_cap(center)
        radii = np.array(fracs) * cap
        # Other sweeps first: another table, each row of the table alone, the
        # same table at other radii and under another kind, and the same
        # call itself.
        other = rng.normal(size=(2, m))
        extremal_values(center, kind, other, [0.5 * cap])
        extremal_values(center, kind, table, [0.1 * cap, 2.0 * cap])
        extremal_values(center, other_kind, table, radii)
        for row in table:
            extremal_expectation(AmbiguityBall(center, 0.3 * cap, kind), row, sense)
        extremal_values(center, kind, table, radii)
        with pytest.MonkeyPatch.context() as patch:
            work = [spy_on(patch, divergence, name) for name in self.WORK]
            warm_values, warm = extremal_values(center, kind, table, radii)
        assert not any(work)  # the first call's pass answered
        assert not fresh._memo
        cold_values, cold = extremal_values(fresh, kind, table, radii)
        assert warm_values.tobytes() == cold_values.tobytes()
        for r in range(radii.size):
            assert warm.weights(r).tobytes() == cold.weights(r).tobytes()
            for k in range(2 * len(table)):
                assert warm(k, r).weights.tobytes() == cold(k, r).weights.tobytes()

    def test_memoised_breakpoints_are_read_only(self, square_grid, spy):
        walks, sweeps = spy(divergence, "_upper_envelopes"), spy(divergence, "_wasserstein_values")
        center = DiscreteDistribution(square_grid, [0.1, 0.2, 0.3, 0.4])
        table = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 1.0, 2.0, -1.0]])
        for _ in range(2):
            extremal_values(center, DivergenceKind.wasserstein_order(1.0), table, [0.2, 0.7])
        assert (len(walks), len(sweeps)) == (1, 1)
        for arrays in center._memo.values():
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0

    def test_memo_holds_no_reference_to_its_centre(self, square_grid):
        # A memo entry that reached back to its centre (a witness builder
        # closing over it, say) would keep the centre alive until the cycle
        # collector ran; with the collector off, the centre must go at once.
        a = DiscreteDistribution(square_grid, [0.4, 0.3, 0.2, 0.1])
        center = DiscreteDistribution(square_grid, [0.1, 0.2, 0.3, 0.4])
        table = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 1.0, 2.0, -1.0]])
        gc.disable()
        try:
            for kind in (DivergenceKind.wasserstein_order(1.0), DivergenceKind.kl()):
                for _ in range(2):
                    values, witnesses = extremal_values(center, kind, table, [0.2, 0.7])
                    assert witnesses(3, 1).weights.shape == witnesses.weights(0)[0].shape
            assert wasserstein(a, center) > 0.0
            assert len(center._memo) == 4  # two passes, one breakpoint walk, one distance
            for entry in center._memo.values():
                if not isinstance(entry, float):
                    assert all(isinstance(arr, np.ndarray) and not arr.flags.writeable for arr in entry)
            alive = weakref.ref(center)
            del center, values, witnesses
            assert alive() is None
        finally:
            gc.enable()

    def test_centres_with_other_weights_share_no_entry(self, square_grid, spy):
        walks = spy(divergence, "_upper_envelopes")
        kind = DivergenceKind.wasserstein_order(1.0)
        table = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 1.0, 2.0, -1.0]])
        a = DiscreteDistribution(square_grid, [0.1, 0.2, 0.3, 0.4])
        b = DiscreteDistribution(square_grid, [0.4, 0.3, 0.2, 0.1])
        a_values, _ = extremal_values(a, kind, table, [0.3])
        b_values, _ = extremal_values(b, kind, table, [0.3])
        assert len(walks) == 2
        assert not np.array_equal(a_values, b_values)
        assert a._memo.keys() == b._memo.keys()
        for key in a._memo:
            assert all(x is not y for x, y in zip(a._memo[key], b._memo[key]))
        # Each centre answers again from its own entry, with its own values.
        assert np.array_equal(extremal_values(a, kind, table, [0.3])[0], a_values)
        assert np.array_equal(extremal_values(b, kind, table, [0.3])[0], b_values)
        assert len(walks) == 2

    def test_passes_of_kinds_sharing_family_and_order_share_no_entry(self, square_grid, spy):
        # Forward chi-square and forward KL are both phi kinds with p = 1; a
        # pass keyed by the kind itself never hands one the other's arrays.
        passes = spy(divergence, "_kl_values")
        center = DiscreteDistribution(square_grid, [0.1, 0.2, 0.3, 0.4])
        table, radii = np.array([[1.0, -2.0, 0.5, 3.0]]), np.array([0.3])
        for kind in (DivergenceKind.kl(), DivergenceKind.chi2(), DivergenceKind.kl()):
            divergence._signed_pass(center, kind, table, radii)
        assert len(passes) == 2


def _saturation_radius(center: DiscreteDistribution, costs: np.ndarray) -> float:
    """-log of the centre's mass on its costliest support atoms: from this
    radius on, the centre conditioned on them attains the top cost."""
    supp = center.support_indices()
    cs = costs[supp]
    return -math.log(float(np.sum(center.weights[supp][cs == np.max(cs)])))


class TestKLTiltingOracle:
    """The batched forward-KL oracle against a per-ball brentq root.

    Tolerances are relative to the row's largest absolute cost, so that
    they mean the same at every cost scale.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 8),
        empty=st.integers(0, 3),
        tied=st.booleans(),
        flat=st.booleans(),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_brentq_root_cell_by_cell(self, seed, m, empty, tied, flat, scale):
        rng = np.random.default_rng(seed)
        center, table = random_ball_instance(rng, m, 1, empty, tied)
        table = table / max(float(np.max(np.abs(table))), 1e-300) * scale
        if flat:
            table[0] = table[0, 0]
        kind = DivergenceKind.kl()
        radii = {0.0, 1e-6, 1e-3, 0.05, 0.3, 1.0}
        for costs in table:
            if np.ptp(costs[center.support_indices()]) > 0.0:  # flat rows never saturate
                for c in (costs, -costs):
                    sat = _saturation_radius(center, c)
                    radii |= {sat * (1.0 - 1e-9), sat * (1.0 + 1e-9)}  # just inside and just outside
        radii = np.array(sorted(radii))
        values, witnesses = extremal_values(center, kind, table, radii)
        found = {"max": values[: len(table)], "min": values[len(table) :]}
        for half, sense in enumerate(("max", "min")):
            for k, costs in enumerate(table):
                row = half * len(table) + k
                row_scale = float(np.max(np.abs(costs))) or 1.0
                for r, eps in enumerate(radii):
                    if eps > 0.0:
                        ref, _ = kl_extremal_brentq(AmbiguityBall(center, float(eps), kind), costs, sense == "max")
                    else:
                        ref = center.expectation(costs)
                    assert abs(values[row, r] - ref) <= 1e-9 * row_scale
                    witness = witnesses(row, r)
                    assert kl_divergence_vec(witness.weights, center.weights) <= eps + 1e-10
                    assert abs(witness.expectation(costs) - values[row, r]) <= 1e-9 * row_scale
                    alone, alone_witness = extremal_values(center, kind, table[k : k + 1], radii[r : r + 1])
                    assert alone[half, 0] == values[row, r]
                    assert np.array_equal(alone_witness(half, 0).weights, witness.weights)
        for k, costs in enumerate(table):
            slack = 1e-12 * (float(np.max(np.abs(costs))) or 1.0)
            assert np.all(found["min"][k] <= center.expectation(costs) + slack)
            assert np.all(found["max"][k] >= center.expectation(costs) - slack)
            assert np.all(np.diff(found["max"][k]) >= -slack)
            assert np.all(np.diff(found["min"][k]) <= slack)


def test_absolute_deviation_picks_binding_side(line_grid):
    center = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
    costs = np.array([0.0, 1.0, 10.0])
    ball = AmbiguityBall(center, 0.5, DivergenceKind.wasserstein_order(1))
    ref = center.expectation(costs)
    dev, witness = _coupling_lp_deviation(ball, costs, ref)
    # hi and lo from the same coupling LPs: up and down tie here, and the
    # rounding of those LPs picks the side.
    _, _, hi, lo = absolute_deviation(ball, costs, ref)
    assert dev == pytest.approx(max(hi - ref, ref - lo))
    assert witness.expectation(costs) == pytest.approx(hi if hi - ref >= ref - lo else lo, abs=1e-9)
