"""Derivative-free optimisation with Student's t explosion sampling.

A fireworks-style optimiser whose explosions draw sparks from an adapted
multivariate t distribution: natural-gradient update weights fuse with rank
weights for the recombination, the degrees of freedom grow on improvement so
sampling anneals from heavy tails toward a Gaussian, and a loser-out
tournament restarts fireworks that cannot catch up.  Shifted/rotated test
functions and reference baselines round out the package.  The benchmark
harness (grids and the ``tfwa-bench`` CLI) lives in ``tfwa.harness`` and the
rank statistics its ``compare`` and ``rank`` print in ``tfwa.stats``; this
module imports neither, so ``python -m tfwa.harness`` runs it only once.
"""

from .baselines import random_search_cell, random_search_run, uniform_fwa_cell, uniform_fwa_run
from .benchfns import PROBLEM_NAMES, BenchmarkProblem, make_problem
from .explosion import (
    DegenerateStateError,
    FireworkState,
    StrategyParams,
    adjust_degree_of_freedom,
    derive_params,
    effective_mass,
    explode,
    fuse_weights,
    rank_weights,
    regularize_covariance,
    repair_bounds,
)
from .natgrad import (
    FisherBlocks,
    covariance_natural_gradient,
    fisher_closed_form,
    fisher_monte_carlo,
    fisher_scale_block,
    moment_identity_residuals,
    natgrad_weight,
)
from .swarm import (
    RunResult,
    SwarmConfig,
    TraceRecord,
    loser_out_check,
    restart_firework,
    run,
    run_cell,
)
from .tdist import DF_CAP, TDistribution

__version__ = "0.1.0"

__all__ = [
    "BenchmarkProblem",
    "DF_CAP",
    "DegenerateStateError",
    "FireworkState",
    "FisherBlocks",
    "PROBLEM_NAMES",
    "RunResult",
    "StrategyParams",
    "SwarmConfig",
    "TDistribution",
    "TraceRecord",
    "adjust_degree_of_freedom",
    "covariance_natural_gradient",
    "derive_params",
    "effective_mass",
    "explode",
    "fisher_closed_form",
    "fisher_monte_carlo",
    "fisher_scale_block",
    "fuse_weights",
    "loser_out_check",
    "make_problem",
    "moment_identity_residuals",
    "natgrad_weight",
    "random_search_cell",
    "random_search_run",
    "rank_weights",
    "regularize_covariance",
    "repair_bounds",
    "restart_firework",
    "run",
    "run_cell",
    "uniform_fwa_cell",
    "uniform_fwa_run",
]
