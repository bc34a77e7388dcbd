"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Oracles are the independent brute-force searches in ``_oracles``;
no expected value below was produced by the code path it checks.
"""

import json
import math

import numpy as np
from click.testing import CliRunner

from _oracles import (
    ball_vertex_candidates,
    kl_divergence_vec,
    rational_weights,
    simplex_grid,
    transport_grid_search,
    w1_dual_vertices,
    w1_from_dual_many,
)
from conftest import random_distribution, random_grid
from drolab.bayes import lambda_from_beta, prior_from_regularizer, regularizer_from_prior, Infeasible
from drolab.bounds import absolute_bound, minmax_one_sided_bound, relative_bound
from drolab.cli import main as cli_main
from drolab.cost import CostFunction, DecisionSpace, cost_table, expected_cost, make_cost
from drolab.divergence import (
    AmbiguityBall,
    DivergenceKind,
    extremal_expectation,
    wasserstein,
)
from drolab.robustness import DirichletPrior, pac_robustness, set_robustness
from drolab.solvers import (
    solve_bayes_dp,
    solve_minmax_dro,
    solve_regularized_saa,
)
from drolab.support import DiscreteDistribution, SupportGrid, empirical, sample

W1 = DivergenceKind.wasserstein_order(1.0)


def _report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_c01_transport_matches_brute_force_and_metric_axioms():
    rng = np.random.default_rng(101)
    worst = 0.0
    denom = 15
    for trial in range(50):
        grid = random_grid(rng, 3)
        a = DiscreteDistribution(grid, rational_weights(rng, 3, denom))
        b = DiscreteDistribution(grid, rational_weights(rng, 3, denom))
        p = 1.0 if trial % 2 == 0 else 2.0
        cost = grid.ground_metric**p
        oracle = transport_grid_search(a.weights, b.weights, cost, denom) ** (1.0 / p)
        worst = max(worst, abs(wasserstein(a, b, p) - oracle))
    axiom_worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 11))
        grid = random_grid(rng, m)
        a, b, c = (random_distribution(rng, grid) for _ in range(3))
        w_ab = wasserstein(a, b, 1.0)
        axiom_worst = max(axiom_worst, abs(w_ab - wasserstein(b, a, 1.0)))
        axiom_worst = max(axiom_worst, wasserstein(a, a, 1.0))
        axiom_worst = max(axiom_worst, wasserstein(a, c, 1.0) - w_ab - wasserstein(b, c, 1.0))
    _report(
        worst <= 1e-4 and axiom_worst <= 1e-8,
        f"transport LP vs polytope scan (max err {worst:.2e}) and metric axioms "
        f"(max violation {axiom_worst:.2e})",
    )


def test_c02_worst_case_oracle_and_kl_duality():
    rng = np.random.default_rng(202)
    worst = 0.0
    sound = True
    for _ in range(50):
        grid = random_grid(rng, 3)
        center = DiscreteDistribution(grid, rational_weights(rng, 3, 20))
        costs = rng.normal(size=3) * rng.uniform(0.5, 3.0)
        eps = float(rng.uniform(0.02, 0.9) * grid.diameter)
        ball = AmbiguityBall(center, eps, W1)
        value, _ = extremal_expectation(ball, costs, "max")
        verts = w1_dual_vertices(grid.ground_metric)
        members = simplex_grid(3, 100)
        members = members[w1_from_dual_many(verts, members, center.weights) <= eps + 1e-9]
        scan = float(np.max(members @ costs))
        corners = ball_vertex_candidates(center.weights, grid.ground_metric, 1.0, eps)
        corner_best = float(np.max(corners @ costs)) if corners.size else -math.inf
        sound &= scan <= value + 1e-9
        worst = max(worst, abs(value - max(scan, corner_best)))
    # Order-2 balls against constructed coupling corners only.
    worst2 = 0.0
    for _ in range(15):
        grid = random_grid(rng, 3)
        center = random_distribution(rng, grid)
        costs = rng.normal(size=3)
        eps = float(rng.uniform(0.05, 0.8) * grid.diameter)
        ball = AmbiguityBall(center, eps, DivergenceKind.wasserstein_order(2.0))
        value, _ = extremal_expectation(ball, costs, "max")
        corners = ball_vertex_candidates(center.weights, grid.ground_metric, 2.0, eps)
        worst2 = max(worst2, abs(value - float(np.max(corners @ costs))))
    kl_gap = 0.0
    for _ in range(50):
        grid = random_grid(rng, int(rng.integers(2, 6)))
        center = random_distribution(rng, grid)
        costs = rng.normal(size=grid.size) * rng.uniform(0.2, 4.0)
        eps = float(rng.uniform(1e-3, 1.5))
        dual, witness = extremal_expectation(AmbiguityBall(center, eps, DivergenceKind.kl()), costs, "max")
        primal = witness.expectation(costs)
        sound &= kl_divergence_vec(witness.weights, center.weights) <= eps + 1e-9
        kl_gap = max(kl_gap, abs(dual - primal))
    _report(
        sound and worst <= 1e-4 and worst2 <= 1e-4 and kl_gap <= 1e-6,
        f"ball worst-case vs simplex scan (max err {worst:.2e}, order-2 {worst2:.2e}), "
        f"KL dual-primal gap {kl_gap:.2e}",
    )


def test_c03_minmax_measure_equals_constraint_form():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        grid = random_grid(rng, int(rng.integers(2, 6)))
        center = random_distribution(rng, grid)
        k = int(rng.integers(2, 10))
        space = DecisionSpace.from_points(np.sort(rng.uniform(-2, 2, size=(k, 1)), axis=0))
        cf = make_cost("absolute")
        eps = float(rng.uniform(0.0, grid.diameter))
        ball = AmbiguityBall(center, eps, W1)
        sol = solve_minmax_dro(ball, cf, space)
        table = cost_table(cf, grid, space)
        ref = float(np.min(table @ center.weights))
        # The deviation-level program, evaluated from its definition.
        worst_case = min(extremal_expectation(ball, table[i], "max")[0] for i in range(k))
        l_star = max(0.0, worst_case - ref)
        worst = max(worst, abs(sol.measure - l_star))
    _report(worst <= 1e-9, f"min-max objective matches deviation-level program (max err {worst:.2e})")


def test_c04_worst_case_below_lipschitz_regularized_empirical():
    rng = np.random.default_rng(404)
    cf = make_cost("absolute")
    worst_slack = math.inf
    for _ in range(100):
        grid = random_grid(rng, int(rng.integers(2, 5)))
        p0 = random_distribution(rng, grid)
        emp = empirical(sample(p0, int(rng.integers(5, 25)), seed=int(rng.integers(1 << 30))))
        eps = float(rng.uniform(0.0, 1.5))
        ball = AmbiguityBall(emp, eps, W1)
        space = DecisionSpace.from_points(np.linspace(-2, 2, 7)[:, None])
        table = cost_table(cf, grid, space)
        for i in range(len(space)):
            worst_val, _ = extremal_expectation(ball, table[i], "max")
            slack = eps * 1.0 + float(table[i] @ emp.weights) - worst_val
            worst_slack = min(worst_slack, slack)
    _report(
        worst_slack >= -1e-9,
        f"ball worst case <= radius * Lipschitz + empirical value (min slack {worst_slack:.2e})",
    )


def test_c05_lipschitz_uniform_deviation_bound():
    rng = np.random.default_rng(505)
    space = DecisionSpace.from_points(np.linspace(-1.5, 1.5, 9)[:, None])
    violations = 0
    checked = 0
    for trial in range(200):
        grid = random_grid(rng, int(rng.integers(2, 6)), scale=2.0)
        p0 = random_distribution(rng, grid)
        pbar = random_distribution(rng, grid)
        costs = [
            make_cost("absolute"),
            make_cost("huber", params={"delta": 0.8}),
            make_cost("squared", grid=grid, space=space),
        ]
        dist = wasserstein(p0, pbar, 1.0)
        for cf in costs:
            table = cost_table(cf, grid, space)
            gaps = np.abs(table @ p0.weights - table @ pbar.weights)
            lips = np.array([cf.lip_in_xi(x) for x in space])
            checked += len(space)
            violations += int(np.sum(gaps > lips * dist + 1e-9))
    _report(
        violations == 0,
        f"uniform deviation bound: 0 violations in {checked} checks (got {violations})",
    )


def _random_bound_instance(rng):
    grid = random_grid(rng, 3)
    p0 = random_distribution(rng, grid)
    pbar = empirical(sample(p0, 12, seed=int(rng.integers(1 << 30))))
    space = DecisionSpace.from_points(np.sort(rng.uniform(-2, 2, size=(5, 1)), axis=0))
    cf = make_cost("absolute") if rng.random() < 0.5 else make_cost("huber", params={"delta": 1.0})
    return grid, p0, pbar, space, cf


def test_c06_bound_suites_hold_and_negative_control_exits_2(tmp_path):
    rng = np.random.default_rng(606)
    all_hold = True
    for _ in range(100):
        _, p0, pbar, space, cf = _random_bound_instance(rng)
        ball = AmbiguityBall(pbar, wasserstein(p0, pbar, 1.0), W1)
        pairs, _ = absolute_bound(p0, ball, cf, space)
        all_hold &= all(rec.holds for _, rec in pairs)
    for _ in range(100):
        _, p0, pbar, space, cf = _random_bound_instance(rng)
        pairs, _ = relative_bound(p0, pbar, cf, space, W1)
        all_hold &= all(rec.holds for _, rec in pairs)
    for _ in range(100):
        _, p0, pbar, space, cf = _random_bound_instance(rng)
        ball = AmbiguityBall(pbar, wasserstein(p0, pbar, 1.0), W1)
        [(_, rec)], _ = minmax_one_sided_bound(p0, ball, cf, space)
        all_hold &= rec.holds
    config = {
        "grid": {"atoms": [[0.0], [1.0], [3.0]]},
        "p0": {"weights": [0.2, 0.3, 0.5]},
        "cost": {"name": "absolute", "lip_scale": 0.01},
        "space": {"interval": {"lo": 0.0, "hi": 3.0, "num": 5}},
        "methods": [{"method": "saa"}],
        "n": [12],
        "replications": 3,
        "seed": 11,
    }
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(config))
    result = CliRunner().invoke(cli_main, ["verify-bounds", str(path)])
    _report(
        all_hold and result.exit_code == 2,
        f"absolute/relative/one-sided bound suites 300/300 hold; corrupted Lipschitz "
        f"exit code {result.exit_code} (want 2)",
    )


def test_c07_dirichlet_markov_bound_and_mean_identity():
    rng = np.random.default_rng(707)
    cf = make_cost("absolute")
    draws = 10_000
    ok = True
    for trial in range(100):
        grid = random_grid(rng, 4, scale=2.0)
        base = random_distribution(rng, grid)
        alpha = float(rng.uniform(0.5, 6.0))
        x = rng.uniform(-2, 2, size=1)
        base_val = expected_cost(base, cf, x)
        ref = float(rng.uniform(0.0, 1.5))
        level = float(rng.uniform(0.6, 3.0) * (base_val + ref + 0.1))
        rep = pac_robustness(DirichletPrior(base, alpha), cf, x, ref, level, mc_draws=draws, seed=trial)
        emp = rep.diagnostics["empirical_probability"]
        sigma = max(rep.diagnostics["empirical_sigma"], 1.0 / draws)
        ok &= emp >= rep.confidence - 3.0 * sigma
        # Mean-measure identity, against an independent Monte-Carlo average.
        weights = DirichletPrior(base, alpha).sample_weights(2000, seed=trial + 1)
        vals = weights @ cf.atom_costs(grid, x)
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        ok &= abs(float(np.mean(vals)) - base_val) <= 3.0 * se + 1e-12
    _report(ok, "Dirichlet Monte-Carlo probability >= Markov bound - 3 sigma, 100/100; "
                "mean-measure identity within 3 sigma")


def test_c08_regularizer_prior_equivalence():
    rng = np.random.default_rng(808)
    cf = make_cost("absolute")
    ok = True
    max_residual = 0.0
    for trial in range(100):
        grid = random_grid(rng, 3)
        space = DecisionSpace.from_points(np.sort(rng.uniform(-2, 2, size=(5, 1)), axis=0))
        target = random_distribution(rng, grid)
        f0 = regularizer_from_prior(target, cf)
        prior = prior_from_regularizer(f0, cf, list(space), grid)
        assert not isinstance(prior, Infeasible)
        table = cost_table(cf, grid, space)
        residual = float(np.max(np.abs(table @ prior.weights - [f0(x) for x in space])))
        max_residual = max(max_residual, residual)
        f = regularizer_from_prior(prior, cf)
        data = sample(random_distribution(rng, grid), 12, seed=trial)
        beta = float(rng.uniform(0.05, 0.9))
        reg = solve_regularized_saa(empirical(data), cf, f, lambda_from_beta(beta), space)
        mix = solve_bayes_dp(prior, 0.0, data, cf, space, beta=beta)
        ok &= reg.x_index == mix.x_index
    _report(
        ok and max_residual <= 1e-8,
        f"regularized-empirical and mixture argmins identical 100/100; "
        f"max moment residual {max_residual:.2e}",
    )


def test_c09_variance_reduction_factor():
    grid = SupportGrid.euclidean([[0.0], [1.0], [3.0]])
    p0 = DiscreteDistribution(grid, [0.2, 0.3, 0.5])
    prior = DiscreteDistribution(grid, [0.6, 0.2, 0.2])
    cf = make_cost("absolute")
    x = [1.5]
    costs = cf.atom_costs(grid, x)
    prior_term = float(prior.expectation(costs))
    n, reps = 15, 2000
    ok = True
    details = []
    for i, beta in enumerate((0.2, 0.5, 0.8)):
        saa_vals = np.array(
            [empirical(sample(p0, n, seed=20_000 + i * reps + r)).expectation(costs) for r in range(reps)]
        )
        mix_vals = beta * prior_term + (1 - beta) * np.array(
            [empirical(sample(p0, n, seed=80_000 + i * reps + r)).expectation(costs) for r in range(reps)]
        )
        ratio = float(np.var(mix_vals, ddof=1) / np.var(saa_vals, ddof=1))
        target = (1 - beta) ** 2
        details.append(f"beta={beta}: ratio {ratio:.4f} vs {target:.4f}")
        ok &= abs(ratio - target) <= 0.10 * target
    _report(ok, "variance reduction factor (1-beta)^2 within 10%: " + "; ".join(details))


def test_c10_empirical_optimum_is_optimistic_and_tightens():
    grid = SupportGrid.euclidean([[0.0], [1.0], [3.0]])
    p0 = DiscreteDistribution(grid, [0.2, 0.3, 0.5])
    cf = make_cost("absolute")
    space = DecisionSpace.interval(0.0, 3.0, 7)
    table = cost_table(cf, grid, space)
    true_min = float(np.min(table @ p0.weights))
    reps = 500
    means, ses = {}, {}
    samples = {}
    for n in (10, 30, 100):
        vals = np.array(
            [
                float(np.min(table @ empirical(sample(p0, n, seed=3_000_000 + 1000 * n + r)).weights))
                for r in range(reps)
            ]
        )
        samples[n] = vals
        means[n] = float(np.mean(vals))
        ses[n] = float(np.std(vals, ddof=1) / math.sqrt(reps))
    below = all(means[n] <= true_min + 2 * ses[n] for n in (10, 30, 100))
    monotone = True
    for lo, hi in ((10, 30), (30, 100)):
        se_diff = math.sqrt(ses[lo] ** 2 + ses[hi] ** 2)
        monotone &= means[lo] <= means[hi] + 2 * se_diff
    _report(
        below and monotone,
        f"empirical optimum optimistic (means {means[10]:.4f} <= {means[30]:.4f} <= "
        f"{means[100]:.4f} -> true {true_min:.4f}) at 2 standard errors",
    )


def test_c11_worked_two_atom_examples_exact():
    delta = 0.01
    grid = SupportGrid.euclidean([[-delta], [delta]])
    space = DecisionSpace.interval(-2.0, 2.0, 41)
    center = DiscreteDistribution.dirac(grid, 0)
    ball = AmbiguityBall(center, grid.diameter, W1)
    value_shift = CostFunction(
        "value_shift", lambda x, xi: float(x[0] ** 2 + (1.0 if xi[0] > 0 else 0.0)), nonneg=True
    )
    solution_shift = CostFunction(
        "solution_shift", lambda x, xi: float((x[0] + (1.0 if xi[0] > 0 else 0.0)) ** 2), nonneg=True
    )
    results = (
        set_robustness(ball, value_shift, space, "solution", budget=16, seed=0).measure,
        set_robustness(ball, value_shift, space, "objective", budget=16, seed=0).measure,
        set_robustness(ball, solution_shift, space, "solution", budget=16, seed=0).measure,
        set_robustness(ball, solution_shift, space, "objective", budget=16, seed=0).measure,
    )
    _report(
        results == (0.0, 1.0, 1.0, 0.0),
        f"worked examples reproduce (solution, objective) = (0, 1) and (1, 0) exactly: {results}",
    )


def test_c12_repeat_runs_are_byte_identical(tmp_path):
    config = {
        "grid": {"atoms": [[0.0], [1.0], [3.0]]},
        "p0": {"weights": [0.2, 0.3, 0.5]},
        "cost": {"name": "absolute"},
        "space": {"interval": {"lo": 0.0, "hi": 3.0, "num": 5}},
        "methods": [
            {"method": "saa"},
            {"method": "bayes_dp", "prior": {"weights": [0.34, 0.33, 0.33]}, "alpha": 2.0},
            {"method": "minmax_dro", "eps": "auto"},
            {"method": "abs_dro", "eps": "auto"},
            {"method": "satisficing"},
        ],
        "n": [10, 20],
        "replications": 2,
        "seed": 99,
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", str(path)]).exit_code == 0
    first = (tmp_path / "out" / "results.csv").read_bytes()
    assert runner.invoke(cli_main, ["run", str(path)]).exit_code == 0
    second = (tmp_path / "out" / "results.csv").read_bytes()
    _report(
        first == second and len(first) > 0,
        f"repeated run byte-identical CSV ({len(first)} bytes)",
    )
