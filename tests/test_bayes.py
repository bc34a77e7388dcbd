"""Posterior mixtures, regularizer/prior conversions, and their identities."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import nnls

from _oracles import (
    moment_basis_rows,
    moment_residual_highs,
    moment_residual_nnls_scipy,
    prior_from_regularizer_l1,
)
from conftest import random_distribution, random_grid
from drolab import bayes
from drolab.bayes import (
    MOMENT_TOL,
    Infeasible,
    PriorSpec,
    beta_from_lambda,
    dp_posterior_mean,
    lambda_from_beta,
    prior_from_regularizer,
    regularizer_from_prior,
)
from drolab.cli import main
from drolab.cost import DecisionSpace, NonFiniteCostError, Regularizer, builtin_costs, cost_table, make_cost
from drolab.lp import LPFailureError, solve_lp
from drolab.solvers import solve_bayes_dp, solve_regularized_saa
from drolab.support import DiscreteDistribution, SampleSet, SupportGrid, empirical, mixture, sample


class TestPriorSpec:
    def test_exactly_one_parameter(self, line_grid):
        u = DiscreteDistribution.uniform(line_grid)
        with pytest.raises(ValueError):
            PriorSpec(u)
        with pytest.raises(ValueError):
            PriorSpec(u, alpha=1.0, beta=0.5)

    def test_parameter_ranges(self, line_grid):
        u = DiscreteDistribution.uniform(line_grid)
        with pytest.raises(ValueError):
            PriorSpec(u, alpha=-1.0)
        with pytest.raises(ValueError):
            PriorSpec(u, beta=1.5)


class TestPosteriorMean:
    def test_zero_concentration_is_empirical(self, line_grid):
        prior = DiscreteDistribution.uniform(line_grid)
        data = SampleSet(line_grid, [0, 1, 1, 2])
        post = dp_posterior_mean(PriorSpec(prior, alpha=0.0), data)
        assert np.array_equal(post.weights, empirical(data).weights)

    def test_infinite_concentration_is_prior(self, line_grid):
        prior = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        post = dp_posterior_mean(PriorSpec(prior, alpha=math.inf), None)
        assert post is prior

    def test_hand_mixture(self):
        grid = SupportGrid.euclidean([[0.0], [1.0]])
        prior = DiscreteDistribution.uniform(grid)
        data = SampleSet(grid, [0] * 8)
        post = dp_posterior_mean(PriorSpec(prior, alpha=2.0), data)
        assert post.weights == pytest.approx([0.9, 0.1], abs=1e-15)

    def test_explicit_beta_override(self, line_grid):
        prior = DiscreteDistribution(line_grid, [1.0, 0.0, 0.0])
        data = SampleSet(line_grid, [2, 2])
        post = dp_posterior_mean(PriorSpec(prior, beta=0.25), data)
        assert post.weights == pytest.approx([0.25, 0.0, 0.75], abs=1e-15)

    @pytest.mark.parametrize("alpha, beta, weight", [(2.0, None, 2.0 / 7.0), (0.0, None, 0.0),
                                                     (math.inf, None, 1.0), (None, 0.25, 0.25)])
    def test_solver_reports_the_weight_it_mixed_with(self, line_grid, alpha, beta, weight):
        prior = DiscreteDistribution(line_grid, [0.1, 0.3, 0.6])
        data = SampleSet(line_grid, [0, 1, 1, 2, 2])
        spec = PriorSpec(prior, alpha=alpha, beta=beta)
        assert spec.weight(data.n) == weight
        mixed = dp_posterior_mean(spec, data)
        assert mixed.weights.tolist() == mixture(weight, prior, empirical(data)).weights.tolist()
        sol = solve_bayes_dp(prior, alpha, data, make_cost("absolute"), DecisionSpace.interval(0, 3, 4), beta=beta)
        assert sol.diagnostics["beta"] == weight

    def test_without_data_only_the_prior_alone_has_a_mean(self, line_grid):
        prior = DiscreteDistribution.uniform(line_grid)
        assert dp_posterior_mean(PriorSpec(prior, beta=1.0), None) is prior
        for spec in (PriorSpec(prior, alpha=0.0), PriorSpec(prior, alpha=2.0), PriorSpec(prior, beta=0.5)):
            with pytest.raises(ValueError, match="needs data"):
                dp_posterior_mean(spec, None)


class TestRegularizerFromPrior:
    def test_dirac_prior_gives_pointwise_cost(self, line_grid):
        cf = make_cost("absolute")
        prior = DiscreteDistribution.dirac(line_grid, 2)
        f = regularizer_from_prior(prior, cf)
        assert f([0.5]) == pytest.approx(cf([0.5], line_grid.atoms[2]))

    def test_uniform_two_point_prior(self):
        grid = SupportGrid.euclidean([[-1.0], [1.0]])
        cf = make_cost("absolute")
        f = regularizer_from_prior(DiscreteDistribution.uniform(grid), cf)
        for x in (-1.5, -0.3, 0.0, 0.7, 2.0):
            assert f([x]) == pytest.approx((abs(x + 1) + abs(x - 1)) / 2)


    @pytest.mark.parametrize("name", ["absolute", "squared", "newsvendor", "huber", "linreg"])
    def test_batched_values_equal_the_scalar_loop(self, name):
        # 2-D atoms (feature, response) serve linreg; the others read them as
        # points of the plane, with decisions of the same dimension.
        rng = np.random.default_rng(11)
        grid = random_grid(rng, 7, 2)
        dim = 1 if name in ("newsvendor", "linreg") else 2
        space = DecisionSpace.from_points(rng.uniform(-3.0, 3.0, size=(9, dim)))
        cf = make_cost(name)
        for _ in range(50):
            f = regularizer_from_prior(random_distribution(rng, grid), cf)
            assert f.values(space).tobytes() == np.array([f(x) for x in space]).tobytes()

    def test_one_cost_table_for_the_whole_grid(self, line_grid):
        tables = []
        cf = make_cost("huber")
        counted = replace(cf, table_fn=lambda points, atoms: tables.append(len(points)) or cf.table_fn(points, atoms))
        f = regularizer_from_prior(DiscreteDistribution(line_grid, [0.2, 0.3, 0.5]), counted)
        space = DecisionSpace.interval(0.0, 3.0, 7)
        f.values(space)
        assert tables == [7]
        [f(x) for x in space]
        assert tables == [7] + [1] * 7

    def test_batched_values_are_checked_finite(self, line_grid):
        space = DecisionSpace.interval(0.0, 1.0, 3)
        f = Regularizer(lambda x: 0.0, lambda space: np.array([0.0, np.inf, 1.0]))
        with pytest.raises(NonFiniteCostError, match="regularizer is not finite"):
            f.values(space)


class TestPriorFromRegularizer:
    def test_known_prior_moments_reproduced(self, line_grid):
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        target = DiscreteDistribution(line_grid, [0.25, 0.35, 0.4])
        f = regularizer_from_prior(target, cf)
        found = prior_from_regularizer(f, cf, list(space), line_grid)
        assert not isinstance(found, Infeasible)
        table = cost_table(cf, line_grid, space)
        residual = np.max(np.abs(table @ found.weights - [f(x) for x in space]))
        assert residual <= 1e-8

    def test_unattainable_moment_is_certified_infeasible(self, line_grid):
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 5)
        table = cost_table(cf, line_grid, space)
        floor = float(np.min(table)) - 1.0
        f = Regularizer(lambda x: floor)
        verdict = prior_from_regularizer(f, cf, list(space), line_grid)
        assert isinstance(verdict, Infeasible)
        assert verdict.residual > 1e-6

    def test_roundtrip_reproduces_regularizer(self, line_grid):
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 7)
        target = DiscreteDistribution(line_grid, [0.2, 0.5, 0.3])
        f = regularizer_from_prior(target, cf)
        found = prior_from_regularizer(f, cf, list(space), line_grid)
        g = regularizer_from_prior(found, cf)
        for x in space:
            assert g(x) == pytest.approx(f(x), abs=1e-8)

    def test_max_entropy_option_keeps_moments_and_gains_entropy(self, line_grid):
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 3)
        target = DiscreteDistribution(line_grid, [0.2, 0.5, 0.3])
        f = regularizer_from_prior(target, cf)
        vertex = prior_from_regularizer(f, cf, list(space), line_grid)
        refined = prior_from_regularizer(f, cf, list(space), line_grid, max_entropy=True)
        assert not isinstance(refined, Infeasible)
        table = cost_table(cf, line_grid, space)
        assert np.max(np.abs(table @ refined.weights - [f(x) for x in space])) <= 1e-7

        def entropy(w):
            w = w[w > 0]
            return float(-np.sum(w * np.log(w)))

        assert entropy(refined.weights) >= entropy(vertex.weights) - 1e-12

    def test_empty_constraints_rejected(self, line_grid):
        cf = make_cost("absolute")
        with pytest.raises(ValueError):
            prior_from_regularizer(Regularizer(lambda x: 1.0), cf, [], line_grid)


def _moment_instance(seed: int, target: str):
    """A random grid, cost and decision set, and a regularizer table whose
    targets are a random prior's moments (``"prior"``), those moments plus
    noise (``"perturbed"``), or 1 below the smallest cost (``"floor"``)."""
    rng = np.random.default_rng(seed)
    name = str(rng.choice(["absolute", "squared", "huber", "linreg"]))
    grid = random_grid(rng, int(rng.integers(3, 10)), 2 if name == "linreg" else 1)
    # More constraints than atoms when perturbed, so the targets leave the
    # moment set almost surely.
    k = grid.size + int(rng.integers(2, 12)) if target == "perturbed" else int(rng.integers(1, 22))
    space = DecisionSpace.interval(-2.0, 2.0, k)
    cf = make_cost(name, grid=grid, space=space)
    f, h, values = _regularizer_table(rng, cf, grid, space, target)
    return f, cf, list(space), grid, h, values


def _regularizer_table(rng: np.random.Generator, cf, grid: SupportGrid, space: DecisionSpace, target: str):
    """A regularizer whose values on ``space`` are ``target`` moments (see
    :func:`_moment_instance`), with the cost table and those values."""
    w = rng.dirichlet(np.ones(grid.size))
    w[rng.random(grid.size) < 0.3] = 0.0
    w[0] += 1e-3  # never all zero
    h = cost_table(cf, grid, space)
    values = h @ (w / w.sum())
    if target == "perturbed":
        values = values + rng.normal(size=len(space)) * rng.uniform(1e-3, 1.0)
    elif target == "floor":
        values = np.full(len(space), float(np.min(h)) - 1.0)
    lookup = {tuple(x.tolist()): v for x, v in zip(space, values)}
    f = Regularizer(lambda x: lookup[tuple(np.atleast_1d(np.asarray(x, dtype=float)).tolist())])
    return f, h, values


@pytest.fixture
def lp_calls(monkeypatch):
    """The (columns, rows) of each moment LP the package solves."""
    calls = []

    def counting(c, *args, **kwargs):
        calls.append((len(c), len(kwargs["a_eq"])))
        return solve_lp(c, *args, **kwargs)

    monkeypatch.setattr(bayes, "solve_lp", counting)
    return calls


class TestMomentPath:
    """The feasibility LP in front of the non-negative least-squares solve,
    against the function that ran the minimum-L1 LP alone."""

    def test_feasible_targets_take_one_lp(self, lp_calls):
        for seed in range(40):
            f, cf, space, grid, h, values = _moment_instance(seed, "prior")
            lp_calls.clear()
            found = prior_from_regularizer(f, cf, space, grid)
            assert not isinstance(found, Infeasible), seed
            assert float(np.max(np.abs(h @ found.weights - values))) <= 1e-8, seed
            # The feasibility LP alone, on a basis of the moment rows.
            rank = np.linalg.matrix_rank(np.vstack([h, np.ones(grid.size)]))
            assert lp_calls == [(grid.size, rank)], seed

    @pytest.mark.parametrize("target", ["perturbed", "floor"])
    def test_infeasible_targets_keep_the_nnls_residual(self, target, lp_calls):
        for seed in range(20):
            f, cf, space, grid, h, values = _moment_instance(seed, target)
            lp_calls.clear()
            verdict = prior_from_regularizer(f, cf, space, grid)
            # The feasibility LP is the only LP; the NNLS reads its rows.
            rank = np.linalg.matrix_rank(np.vstack([h, np.ones(grid.size)]))
            assert lp_calls == [(grid.size, rank)], seed
            assert isinstance(prior_from_regularizer_l1(f, cf, space, grid), Infeasible), seed
            assert isinstance(verdict, Infeasible), seed
            reference = moment_residual_nnls_scipy(h, values)
            assert abs(verdict.residual - reference) <= 1e-9 * max(1.0, reference), seed

    def test_verdict_type_agrees_with_min_l1_lp(self):
        for seed in range(60):
            f, cf, space, grid, _, _ = _moment_instance(seed, ("prior", "perturbed", "floor")[seed % 3])
            verdict = prior_from_regularizer(f, cf, space, grid)
            reference = prior_from_regularizer_l1(f, cf, space, grid)
            assert type(verdict) is type(reference), seed

    def test_max_entropy_gains_entropy_on_random_priors(self):
        def entropy(w):
            w = w[w > 0]
            return float(-np.sum(w * np.log(w)))

        for seed in range(10):
            f, cf, space, grid, h, values = _moment_instance(seed, "prior")
            vertex = prior_from_regularizer(f, cf, space, grid)
            refined = prior_from_regularizer(f, cf, space, grid, max_entropy=True)
            assert float(np.max(np.abs(h @ refined.weights - values))) <= 1e-7, seed
            assert entropy(refined.weights) >= entropy(vertex.weights) - 1e-12, seed


class TestRowBasisLP:
    """The feasibility LP reads an orthonormal basis of the moment rows;
    residuals and verdicts are still checked on every row."""

    @staticmethod
    def _huber_document() -> dict:
        # A feasible table whose 42-row feasibility LP ran Bland's rule into
        # its iteration cap: the moments of a Dirichlet draw over 16 atoms.
        grid = SupportGrid.euclidean([[float(i)] for i in range(16)])
        space = DecisionSpace.interval(0.0, 15.0, 41)
        rng = np.random.default_rng(41)
        prior = [rng.dirichlet(np.full(16, 3.0)) for _ in range(3)][-1]
        cf = make_cost("huber", params={"delta": 1.0})
        values = regularizer_from_prior(DiscreteDistribution(grid, prior), cf).values(space)
        return {"grid": {"atoms": grid.atoms.tolist()}, "cost": {"name": "huber", "params": {"delta": 1.0}},
                "f_table": {"points": space.points.tolist(), "values": values.tolist()}}

    def test_redundant_huber_system_returns_a_prior(self, tmp_path):
        doc = self._huber_document()
        grid = SupportGrid.euclidean(doc["grid"]["atoms"])
        space = DecisionSpace.from_points(doc["f_table"]["points"])
        targets = np.array(doc["f_table"]["values"])
        lookup = {tuple(x.tolist()): v for x, v in zip(space, targets)}
        f = Regularizer(lambda x: lookup[tuple(np.atleast_1d(np.asarray(x, dtype=float)).tolist())])
        cf = make_cost("huber", params={"delta": 1.0})
        found = prior_from_regularizer(f, cf, list(space), grid)
        assert not isinstance(found, Infeasible)
        assert float(np.max(np.abs(cost_table(cf, grid, space) @ found.weights - targets))) <= MOMENT_TOL
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["prior-from-reg", str(tmp_path / "spec.json")])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["infeasible"] is False and len(payload["weights"]) == 16

    @given(
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(sorted(builtin_costs())),
        dim=st.sampled_from([1, 2]),
        lattice=st.booleans(),
        k=st.integers(1, 60),
        target=st.sampled_from(["prior", "perturbed", "floor"]),
    )
    @settings(max_examples=500, deadline=None)
    def test_random_moment_systems(self, seed, name, dim, lattice, k, target):
        # Line and plane grids of up to 40 atoms, random or regular, with up
        # to 60 decisions.  A prior's moments always give a prior.  Other
        # targets get the minimum-L1 LP's verdict up to 12 atoms and HiGHS's
        # least max-abs residual above; on a prior's moments the minimum-L1
        # LP over all rows can itself stall or misjudge at this size, so it
        # is not the reference there.
        rng = np.random.default_rng(seed)
        dim = 2 if name == "linreg" else dim
        m = int(rng.integers(2 if dim == 1 else 3, 41))
        if not lattice:
            grid = random_grid(rng, m, dim)
        elif dim == 1:
            grid = SupportGrid.euclidean(np.arange(m, dtype=float)[:, None])
        else:
            side = np.arange(2 + m // 4, dtype=float)
            grid = SupportGrid.euclidean([[a, b] for a in side for b in side[:3]])
        if dim == 1 or name in ("newsvendor", "linreg"):
            space = DecisionSpace.interval(-3.0, 3.0, k)
        else:
            space = DecisionSpace.from_points(np.unique(np.round(rng.uniform(-3.0, 3.0, size=(k, 2)), 6), axis=0))
        cf = make_cost(name, grid=grid, space=space)
        f, h, values = _regularizer_table(rng, cf, grid, space, target)
        verdict = prior_from_regularizer(f, cf, list(space), grid)
        if target == "prior":
            assert not isinstance(verdict, Infeasible)
            assert float(np.max(np.abs(h @ verdict.weights - values))) <= MOMENT_TOL
        elif grid.size <= 12:
            assert type(verdict) is type(prior_from_regularizer_l1(f, cf, list(space), grid))
        else:
            assert isinstance(verdict, Infeasible) == (moment_residual_highs(h, values) > MOMENT_TOL)

    def test_many_decisions_on_the_plane_stay_fast(self, lp_calls):
        # 401 decisions of linreg on the 3x3 plane: 402 moment rows of rank 4.
        axis = [-1.0, 0.0, 1.0]
        grid = SupportGrid.euclidean([[a, b] for a in axis for b in axis])
        space = DecisionSpace.interval(-2.0, 2.0, 401)
        cf = make_cost("linreg", grid=grid, space=space)
        f = regularizer_from_prior(DiscreteDistribution(grid, np.random.default_rng(5).dirichlet(np.ones(9))), cf)
        times = []
        for _ in range(3):
            started = time.perf_counter()
            found = prior_from_regularizer(f, cf, list(space), grid)
            times.append(time.perf_counter() - started)
        assert not isinstance(found, Infeasible)
        assert lp_calls == [(9, 4)] * 3
        assert min(times) < 5e-3, times


def _desk_prior_instance(seed: int):
    """A prior's moments at desk scale: up to 39 atoms on a line, a built-in
    cost, up to 59 decisions, and a Dirichlet prior with about 30% of its
    atoms empty.  Returns the grid, the cost's name, the decisions, the cost
    and the prior's regularizer; None when every atom came out empty."""
    rng = np.random.default_rng(seed)
    rng.integers(1, 3)
    m = int(rng.integers(3, 40))
    grid = SupportGrid.euclidean(np.sort(rng.uniform(-3, 3, m))[:, None])
    name = str(rng.choice(["absolute", "squared", "huber", "newsvendor"]))
    space = DecisionSpace.interval(-3, 3, int(rng.integers(1, 60)))
    cf = make_cost(name, grid=grid, space=space)
    prior = rng.dirichlet(np.ones(m))
    prior[rng.random(m) < 0.3] = 0
    if prior.sum() == 0.0:
        return None
    prior /= prior.sum()
    return grid, name, space, cf, regularizer_from_prior(DiscreteDistribution(grid, prior), cf)


class TestDeskScaleMoments:
    """A prior's moments at up to 39 atoms and 59 decisions, where the
    row-basis LP can end at a vertex off its own rows and the minimum-L1 LP
    over all rows misjudged or stalled."""

    @given(seed=st.integers(0, 2**32 - 1))
    # Newsvendor, 32 atoms, 57 decisions: the basis LP's "optimal" vertex
    # missed its rows by 123, and the minimum-L1 LP found a residual of 6e-4.
    @example(seed=234)
    # Absolute, 31 atoms, 51 decisions: the minimum-L1 LP hit its 39,000-pivot cap.
    @example(seed=247)
    @settings(max_examples=150, deadline=None)
    def test_prior_moments_give_a_prior(self, seed):
        instance = _desk_prior_instance(seed)
        assume(instance is not None)
        grid, _, space, cf, f = instance
        found = prior_from_regularizer(f, cf, list(space), grid)
        assert not isinstance(found, Infeasible)
        assert float(np.max(np.abs(cost_table(cf, grid, space) @ found.weights - f.values(space)))) <= MOMENT_TOL

    @pytest.mark.parametrize("seed", [234, 247])
    def test_cli_prints_the_prior(self, seed, tmp_path):
        grid, name, space, cf, f = _desk_prior_instance(seed)
        doc = {"grid": {"atoms": grid.atoms.tolist()}, "cost": {"name": name},
               "f_table": {"points": space.points.tolist(), "values": f.values(space).tolist()}}
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["prior-from-reg", str(tmp_path / "spec.json")])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["infeasible"] is False and len(payload["weights"]) == grid.size
        residual = cost_table(cf, grid, space) @ np.array(payload["weights"]) - f.values(space)
        assert float(np.max(np.abs(residual))) <= MOMENT_TOL

    def test_basis_lp_off_its_rows_fails(self):
        # Seed 234's basis LP: the dense simplex's answer misses its rows.
        grid, _, space, cf, f = _desk_prior_instance(234)
        a, b = moment_basis_rows(cost_table(cf, grid, space), f.values(space))
        with pytest.raises(LPFailureError, match="misses its rows"):
            solve_lp(np.zeros(grid.size), a_eq=a, b_eq=b)

    @given(seed=st.integers(0, 2**32 - 1), shift=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]))
    @example(seed=234, shift=0.0)
    @example(seed=247, shift=0.0)
    @settings(max_examples=150, deadline=None)
    def test_nnls_residual_matches_scipy(self, seed, shift):
        # Lawson-Hanson on the basis rows of a prior's moments, moved off
        # them by ``shift`` in a random direction: the residual norm is
        # SciPy's to 1e-9 of the target scale, and the weights are >= 0.
        instance = _desk_prior_instance(seed)
        assume(instance is not None)
        grid, _, space, cf, f = instance
        a, b = moment_basis_rows(cost_table(cf, grid, space), f.values(space))
        b = b + shift * np.random.default_rng(seed).normal(size=b.size)
        x = bayes._nnls(a, b)
        reference, _ = nnls(a, b)
        assert np.all(x >= 0.0)
        gap = np.linalg.norm(a @ x - b) - np.linalg.norm(a @ reference - b)
        assert abs(gap) <= 1e-9 * max(1.0, float(np.linalg.norm(b)))


class TestEquivalenceLadder:
    def test_regularized_and_mixture_models_agree(self, line_grid):
        # Roundtrip the regularizer through a matching prior; then the
        # regularized empirical model and the mixture model share argmins and
        # values up to the affine rescaling.
        rng = np.random.default_rng(9)
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 9)
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        for trial in range(10):
            data = sample(p0, 15, seed=300 + trial)
            target = random_distribution(rng, line_grid)
            f0 = regularizer_from_prior(target, cf)
            prior = prior_from_regularizer(f0, cf, list(space), line_grid)
            assert not isinstance(prior, Infeasible)
            f = regularizer_from_prior(prior, cf)
            beta = float(rng.uniform(0.05, 0.9))
            lam = lambda_from_beta(beta)
            reg = solve_regularized_saa(empirical(data), cf, f, lam, space)
            mix = solve_bayes_dp(prior, 0.0, data, cf, space, beta=beta)
            assert reg.x_index == mix.x_index
            assert mix.objective_value == pytest.approx((1 - beta) * reg.objective_value, abs=1e-10)

    def test_dirichlet_objective_reduces_to_mixture(self, line_grid):
        # Monte-Carlo check of the mean-measure reduction: averaging the
        # per-draw objective over a Dirichlet prior with mean equal to the
        # mixture reproduces the mixture objective at every decision.
        rng = np.random.default_rng(10)
        cf = make_cost("absolute")
        space = DecisionSpace.interval(0, 3, 5)
        prior = DiscreteDistribution(line_grid, [0.5, 0.25, 0.25])
        data = SampleSet(line_grid, [2, 2, 1, 0, 2])
        beta = 0.3
        blended = mixture(beta, prior, empirical(data))
        draws = rng.dirichlet(50.0 * blended.weights, size=20_000)
        table = cost_table(cf, line_grid, space)
        mc = draws @ table.T
        for k in range(len(space)):
            se = float(np.std(mc[:, k], ddof=1) / math.sqrt(mc.shape[0]))
            assert float(np.mean(mc[:, k])) == pytest.approx(
                blended.expectation(table[k]), abs=max(3 * se, 1e-4)
            )


class TestBiasAndVariance:
    def test_bias_identity(self, line_grid):
        # Dataset average of the mixture objective at fixed x lands on
        # beta * prior term + (1 - beta) * true term.
        cf = make_cost("absolute")
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        prior = DiscreteDistribution(line_grid, [0.6, 0.2, 0.2])
        x = [1.5]
        beta, n, reps = 0.3, 20, 2000
        costs = cf.atom_costs(line_grid, x)
        prior_term = float(prior.expectation(costs))
        vals = np.empty(reps)
        for r in range(reps):
            emp = empirical(sample(p0, n, seed=5000 + r))
            vals[r] = beta * prior_term + (1 - beta) * emp.expectation(costs)
        expected = beta * prior_term + (1 - beta) * p0.expectation(costs)
        se = float(np.std(vals, ddof=1) / math.sqrt(reps))
        assert float(np.mean(vals)) == pytest.approx(expected, abs=3 * se + 1e-12)

    def test_variance_reduction_factor(self, line_grid):
        # Mixing a deterministic prior term scales the sampling variance of
        # the empirical term by (1 - beta)^2.
        cf = make_cost("absolute")
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        prior = DiscreteDistribution(line_grid, [0.6, 0.2, 0.2])
        x = [1.5]
        beta, n, reps = 0.4, 15, 2000
        costs = cf.atom_costs(line_grid, x)
        prior_term = float(prior.expectation(costs))
        saa_vals = np.empty(reps)
        mix_vals = np.empty(reps)
        for r in range(reps):
            saa_vals[r] = empirical(sample(p0, n, seed=7000 + r)).expectation(costs)
            mix_vals[r] = beta * prior_term + (1 - beta) * empirical(
                sample(p0, n, seed=9000 + r)
            ).expectation(costs)
        ratio = float(np.var(mix_vals, ddof=1) / np.var(saa_vals, ddof=1))
        assert ratio == pytest.approx((1 - beta) ** 2, rel=0.10)


def test_lambda_beta_conversions_roundtrip():
    for beta in (0.0, 0.2, 0.5, 0.9):
        assert beta_from_lambda(lambda_from_beta(beta)) == pytest.approx(beta, abs=1e-15)
    with pytest.raises(ValueError):
        lambda_from_beta(1.0)
    with pytest.raises(ValueError):
        beta_from_lambda(-0.1)
