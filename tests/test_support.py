"""Grids, distributions, sampling, empirical and mixture constructions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from conftest import random_distribution, random_grid
from drolab.divergence import wasserstein
from drolab.support import (
    DiscreteDistribution,
    GridMismatchError,
    InvalidDistributionError,
    SampleSet,
    SupportGrid,
    empirical,
    mixture,
    sample,
)


class TestSupportGrid:
    def test_euclidean_metric(self, line_grid):
        assert line_grid.ground_metric[0, 2] == pytest.approx(3.0)
        assert line_grid.diameter == pytest.approx(3.0)

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            SupportGrid.euclidean([[0.0], [0.0], [1.0]])

    @pytest.mark.parametrize(
        "atoms, pair",
        [
            ([[2.0, 0.0], [1.0, 0.0], [3.0, 1.0], [1.0, 0.0], [2.0, 0.0]], (0, 4)),
            ([[0.0, 1.0], [0.0, 2.0], [5.0, 5.0], [0.0, 2.0], [0.0, 1.0], [0.0, 2.0]], (0, 4)),
            ([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (1, 3)),
        ],
    )
    def test_duplicate_message_names_first_pair_in_row_major_order(self, atoms, pair):
        # Reference: the pairwise loop, rows before columns.
        first = next(
            (i, j) for i in range(len(atoms)) for j in range(i + 1, len(atoms)) if atoms[i] == atoms[j]
        )
        assert first == pair
        with pytest.raises(ValueError, match=rf"^atoms {pair[0]} and {pair[1]} coincide$"):
            SupportGrid.euclidean(atoms)
        partly_equal = [[0.0, 1.0], [0.0, 2.0], [1.0, 1.0]]
        assert SupportGrid.euclidean(partly_equal).size == 3

    def test_asymmetric_metric_rejected(self):
        metric = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SupportGrid([[0.0], [1.0]], metric)

    def test_triangle_violation_rejected(self):
        metric = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            SupportGrid([[0.0], [1.0], [2.0]], metric)

    def test_custom_metric_accepted(self):
        metric = np.array([[0.0, 2.0], [2.0, 0.0]])
        grid = SupportGrid([[0.0], [1.0]], metric)
        assert grid.diameter == 2.0

    def test_json_roundtrip(self, line_grid):
        doc = json.loads(json.dumps(line_grid.to_json()))
        again = SupportGrid.from_json(doc)
        assert again.same_as(line_grid)

    def test_json_defaults_to_euclidean(self):
        grid = SupportGrid.from_json({"atoms": [[0.0], [2.0]]})
        assert grid.ground_metric[0, 1] == pytest.approx(2.0)

    def test_immutability(self, line_grid):
        with pytest.raises(ValueError):
            line_grid.atoms[0, 0] = 9.0

    @pytest.mark.parametrize("shape", [(3, 1), (3,)])
    def test_freezes_a_copy_of_the_callers_atoms(self, shape):
        atoms = np.array([0.0, 1.0, 3.0]).reshape(shape)
        grid = SupportGrid.euclidean(atoms)
        atoms[0] = 5.0
        assert grid.atoms[:, 0].tolist() == [0.0, 1.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            grid.atoms[0, 0] = 5.0


class TestDiscreteDistribution:
    def test_renormalizes_float_noise(self, line_grid):
        w = np.array([0.2, 0.3, 0.5]) * (1.0 + 2e-10)
        d = DiscreteDistribution(line_grid, w)
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_sum(self, line_grid):
        with pytest.raises(InvalidDistributionError, match="sum"):
            DiscreteDistribution(line_grid, [0.5, 0.2, 0.2])

    def test_rejects_negative_weight(self, line_grid):
        with pytest.raises(InvalidDistributionError, match="negative"):
            DiscreteDistribution(line_grid, [0.6, 0.5, -0.1])

    def test_rejects_wrong_length(self, line_grid):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution(line_grid, [0.5, 0.5])

    def test_dirac_and_support(self, line_grid):
        d = DiscreteDistribution.dirac(line_grid, 2)
        assert d.is_dirac
        assert list(d.support_indices()) == [2]

    def test_json_with_external_grid(self, line_grid):
        d = DiscreteDistribution.from_json({"weights": [0.1, 0.2, 0.7]}, grid=line_grid)
        assert d.grid.same_as(line_grid)


class TestEmpirical:
    def test_counting(self):
        grid = SupportGrid.euclidean([[0.0], [1.0]])
        samples = SampleSet(grid, [0, 0, 1])
        dist = empirical(samples)
        assert dist.weights == pytest.approx([2 / 3, 1 / 3])

    def test_single_draw_is_dirac(self):
        grid = SupportGrid.euclidean([[float(i)] for i in range(6)])
        dist = empirical(SampleSet(grid, [5]))
        assert dist.is_dirac and dist.weights[5] == 1.0

    def test_empty_sample_rejected(self, line_grid):
        with pytest.raises(ValueError, match="at least one draw"):
            SampleSet(line_grid, [])

    def test_monte_carlo_frequencies_within_binomial_band(self, line_grid):
        # Oracle: the exact binomial band at the 1 - 1e-4 level for n = 1e4
        # stays inside +/- 0.02 around each true weight, so a fixed seed
        # failing the 0.02 check would be a (very) rare event or a bug.
        p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        n = 10_000
        for w in p0.weights:
            lo, hi = binom.ppf([5e-5, 1 - 5e-5], n, w) / n
            assert max(abs(lo - w), abs(hi - w)) < 0.02
        emp = empirical(sample(p0, n, seed=42))
        assert np.max(np.abs(emp.weights - p0.weights)) < 0.02


class TestSample:
    def test_dirac_sampling(self, line_grid):
        d = DiscreteDistribution.dirac(line_grid, 1)
        s = sample(d, 50, seed=1)
        assert np.all(s.indices == 1)

    def test_deterministic_given_seed(self, line_grid):
        d = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        s1 = sample(d, 1000, seed=9)
        s2 = sample(d, 1000, seed=9)
        assert np.array_equal(s1.indices, s2.indices)
        assert not np.array_equal(s1.indices, sample(d, 1000, seed=10).indices)

    def test_uniform_frequencies(self):
        grid = SupportGrid.euclidean([[0.0], [1.0], [2.0], [3.0]])
        d = DiscreteDistribution.uniform(grid)
        s = sample(d, 40_000, seed=3)
        freqs = np.bincount(s.indices, minlength=4) / s.n
        assert np.all(freqs >= 0.24) and np.all(freqs <= 0.26)

    def test_index_range_validated(self, line_grid):
        with pytest.raises(ValueError, match="range"):
            SampleSet(line_grid, [0, 3])

    def test_freezes_a_copy_of_the_callers_indices(self, line_grid):
        indices = np.array([0, 2, 1], dtype=np.int64)
        samples = SampleSet(line_grid, indices)
        indices[0] = 2
        assert samples.indices.tolist() == [0, 2, 1]
        with pytest.raises(ValueError, match="read-only"):
            samples.indices[0] = 2


class TestMixture:
    def test_endpoints_exact(self, line_grid):
        a = DiscreteDistribution(line_grid, [1.0, 0.0, 0.0])
        b = DiscreteDistribution(line_grid, [0.0, 0.5, 0.5])
        assert mixture(0.0, a, b) is b
        assert mixture(1.0, a, b) is a

    def test_posterior_weighting(self, line_grid):
        # Concentration 2 with 8 observations puts weight 0.2 on the prior.
        a = DiscreteDistribution(line_grid, [1.0, 0.0, 0.0])
        b = DiscreteDistribution(line_grid, [0.0, 0.5, 0.5])
        beta = 2 / (2 + 8)
        mix = mixture(beta, a, b)
        assert mix.weights == pytest.approx(0.2 * a.weights + 0.8 * b.weights, abs=1e-15)

    def test_grid_mismatch_rejected(self, line_grid):
        other = SupportGrid.euclidean([[0.0], [1.0], [4.0]])
        a = DiscreteDistribution.uniform(line_grid)
        b = DiscreteDistribution.uniform(other)
        with pytest.raises(GridMismatchError):
            mixture(0.5, a, b)

    def test_invalid_weight_rejected(self, line_grid):
        a = DiscreteDistribution.uniform(line_grid)
        with pytest.raises(ValueError):
            mixture(1.5, a, a)

    @given(
        beta1=st.floats(0.01, 0.99),
        beta2=st.floats(0.01, 0.99),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_associativity_of_repeated_mixing(self, beta1, beta2, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 4)
        a, b, c = (random_distribution(rng, grid) for _ in range(3))
        # beta1 a + (1-beta1)(beta2 b + (1-beta2) c), regrouped two ways.
        left = mixture(beta1, a, mixture(beta2, b, c))
        gamma = beta1 + (1 - beta1) * beta2
        right = mixture(gamma, mixture(beta1 / gamma, a, b), c)
        assert np.max(np.abs(left.weights - right.weights)) < 1e-12

    @given(seed=st.integers(0, 10_000), beta=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_expectations_mix_linearly(self, seed, beta):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 5)
        a, b = random_distribution(rng, grid), random_distribution(rng, grid)
        vals = rng.normal(size=5)
        mixed = mixture(beta, a, b).expectation(vals)
        assert mixed == pytest.approx(beta * a.expectation(vals) + (1 - beta) * b.expectation(vals), abs=1e-12)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=50, deadline=None)
def test_every_constructor_yields_valid_weights(seed):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, int(rng.integers(2, 7)))
    dists = [
        random_distribution(rng, grid),
        DiscreteDistribution.uniform(grid),
        DiscreteDistribution.dirac(grid, 0),
        empirical(sample(DiscreteDistribution.uniform(grid), 17, seed)),
    ]
    for d in dists:
        assert np.all(d.weights >= 0.0)
        assert abs(d.weights.sum() - 1.0) <= 1e-12


def test_empirical_distance_shrinks_with_sample_size(line_grid):
    # Median transport distance to the truth is nonincreasing across
    # n = 10, 100, 1000 over 200 seeded replications.
    p0 = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
    medians = []
    for n in (10, 100, 1000):
        dists = [wasserstein(empirical(sample(p0, n, seed=1000 + r)), p0, 1.0) for r in range(200)]
        medians.append(float(np.median(dists)))
    assert medians[0] >= medians[1] >= medians[2]
