"""Distributionally robust optimization on finite supports.

Everything in this package operates on discrete distributions over a shared
finite grid of atoms, which makes every worst-case expectation, transport
distance, and robustness measure an exactly solvable finite program.  The
package bundles:

- ``support``: grids, discrete distributions, sampling, empirical/mixture
  constructions;
- ``divergence``: Wasserstein and phi-divergence balls with exact
  extremal-expectation oracles;
- ``cost``: cost functions with Lipschitz metadata and a registry of builtins;
- ``solvers``: SAA, regularized SAA, Bayesian-mixture, min-max DRO,
  absolute-deviation DRO, and robust-satisficing decision models;
- ``robustness``: robustness measures of a given decision, including the
  Dirichlet Monte-Carlo PAC variant;
- ``bayes``: Dirichlet posterior mixtures and regularizer/prior conversions;
- ``bounds``: generalization-gap measurements and deviation-bound suites;
- ``experiment``: config-driven batch runner and CLI backend.
"""

from drolab.support import (
    DiscreteDistribution,
    SampleSet,
    SupportGrid,
    empirical,
    mixture,
    sample,
)
from drolab.divergence import (
    AmbiguityBall,
    DivergenceKind,
    TransportPlan,
    extremal_expectation,
    extremal_values,
    membership,
    optimal_transport,
    phi_divergence,
    wasserstein,
)
from drolab.cost import CostFunction, DecisionSpace, Regularizer, builtin_costs, expected_cost, make_cost
from drolab.solvers import (
    Solution,
    solve_absolute_dro,
    solve_bayes_dp,
    solve_minmax_dro,
    solve_regularized_saa,
    solve_robust_satisficing,
    solve_saa,
)
from drolab.robustness import (
    DirichletPrior,
    RobustnessReport,
    absolute_measure,
    local_measure,
    pac_robustness,
    relative_measure,
    set_robustness,
)
from drolab.bayes import (
    Infeasible,
    PriorSpec,
    dp_posterior_mean,
    prior_from_regularizer,
    regularizer_from_prior,
)
from drolab.bounds import (
    BoundRecord,
    GapRecord,
    absolute_bound,
    expected_bounds,
    minmax_one_sided_bound,
    relative_bound,
    uniform_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityBall",
    "BoundRecord",
    "CostFunction",
    "DecisionSpace",
    "DirichletPrior",
    "DiscreteDistribution",
    "DivergenceKind",
    "GapRecord",
    "Infeasible",
    "PriorSpec",
    "Regularizer",
    "RobustnessReport",
    "SampleSet",
    "Solution",
    "SupportGrid",
    "TransportPlan",
    "absolute_bound",
    "absolute_measure",
    "builtin_costs",
    "dp_posterior_mean",
    "empirical",
    "expected_bounds",
    "expected_cost",
    "extremal_expectation",
    "extremal_values",
    "local_measure",
    "make_cost",
    "membership",
    "minmax_one_sided_bound",
    "mixture",
    "optimal_transport",
    "pac_robustness",
    "phi_divergence",
    "prior_from_regularizer",
    "regularizer_from_prior",
    "relative_bound",
    "relative_measure",
    "sample",
    "set_robustness",
    "solve_absolute_dro",
    "solve_bayes_dp",
    "solve_minmax_dro",
    "solve_regularized_saa",
    "solve_robust_satisficing",
    "solve_saa",
    "uniform_bound",
    "wasserstein",
]
