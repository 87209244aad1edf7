"""Baseline optimiser tests: Gaussian-limit swarm, uniform fireworks, random search."""

import dataclasses
import math

import numpy as np
import pytest

from algorithms import run_of
from tfwa.baselines import BLOCK_COORDS, random_search_run, uniform_fwa_run, uniform_sparks
from tfwa.benchfns import make_problem
from tfwa.swarm import RunResult, SwarmConfig, Trace, TraceRecord, resolve_run_shape
from tfwa.tdist import DF_CAP


class _FlatProblem:
    """Constant objective; nothing ever strictly improves."""

    dim = 3
    lb = -100.0
    ub = 100.0
    f_star = 0.0

    def evaluate(self, x):
        return 0.0

    def evaluate_batch(self, xs):
        return np.zeros(len(xs))


class _LinearProblem:
    """First coordinate is the objective, so nearly every generation improves."""

    dim = 2
    lb = -100.0
    ub = 100.0
    f_star = -100.0

    def evaluate(self, x):
        return float(x[0])

    def evaluate_batch(self, xs):
        return np.asarray(xs)[:, 0].astype(float)


def test_gaussian_limit_df_frozen_in_trace():
    problem = make_problem("sphere", 3, seed=0)
    result = run_of("gaussian-limit")(problem, SwarmConfig(seed=0, budget=2_000))
    assert len(result.trace) > 0
    assert all(r.df == DF_CAP for r in result.trace)


def test_gaussian_limit_converges_on_sphere():
    problem = make_problem("sphere", 10, seed=0)
    result = run_of("gaussian-limit")(problem, SwarmConfig(seed=0))
    assert result.best_fitness - problem.f_star < 1e-8


def test_gaussian_limit_deterministic():
    problem = make_problem("ackley", 3, seed=0)
    config = SwarmConfig(seed=9, budget=2_000)
    a = run_of("gaussian-limit")(problem, config)
    b = run_of("gaussian-limit")(problem, config)
    assert a.best_fitness == b.best_fitness
    for ra, rb in zip(a.trace, b.trace):
        assert dataclasses.astuple(ra) == dataclasses.astuple(rb)


def test_uniform_sparks_support():
    # each firework's sparks lie in its own hypercube and are what its own
    # generator gives it alone
    means = np.array([[10.0, -20.0], [-50.0, 30.0]])
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    sparks = uniform_sparks(means, [5.0, 2.0], 1_000, -100.0, 100.0, rngs)
    assert sparks.shape == (2, 1_000, 2)
    assert np.all(np.abs(sparks[0] - means[0]) <= 5.0)
    assert np.all(np.abs(sparks[1] - means[1]) <= 2.0)
    alone = uniform_sparks(means[1:], [2.0], 1_000, -100.0, 100.0, [np.random.default_rng(1)])
    assert np.array_equal(alone[0], sparks[1])


def test_uniform_sparks_clipped_at_bounds():
    rng = np.random.default_rng(1)
    mean = np.array([99.0, 0.0])
    sparks = uniform_sparks(mean[None], [5.0], 1_000, -100.0, 100.0, [rng])[0]
    assert np.all(sparks[:, 0] <= 100.0)
    assert np.max(sparks[:, 0]) == 100.0


def test_uniform_fwa_amplitude_decay_on_flat():
    config = SwarmConfig(seed=0, budget=500, sparks_per_firework=10)
    result = uniform_fwa_run(_FlatProblem(), config)
    for fw in (0, 1):
        amps = [r.scale for r in result.trace if r.fw == fw]
        expected = [100.0 * 0.9 ** (k + 1) for k in range(len(amps))]
        assert np.allclose(amps, expected, rtol=1e-12)


def test_uniform_fwa_amplitude_dynamics_on_improvement():
    config = SwarmConfig(seed=0, budget=2_000, sparks_per_firework=10)
    result = uniform_fwa_run(_LinearProblem(), config)
    box = 200.0
    for fw in (0, 1):
        amps = [100.0] + [r.scale for r in result.trace if r.fw == fw and not r.restart]
        assert all(0 < a <= box for a in amps)
        grew = 0
        for prev, cur in zip(amps, amps[1:]):
            ratio = cur / prev
            grow_capped = prev * 1.2 >= box and cur == box
            assert (
                abs(ratio - 1.2) < 1e-9 or abs(ratio - 0.9) < 1e-9 or grow_capped
            )
            grew += ratio > 1.0 or grow_capped
        assert grew > 0


def test_uniform_fwa_trace_has_no_df():
    problem = make_problem("sphere", 2, seed=0)
    result = uniform_fwa_run(problem, SwarmConfig(seed=0, budget=500))
    assert all(r.df == 0.0 for r in result.trace)


def test_uniform_fwa_budget_and_determinism():
    problem = make_problem("rastrigin", 3, seed=0)
    config = SwarmConfig(seed=7, budget=2_001)
    a = uniform_fwa_run(problem, config)
    b = uniform_fwa_run(problem, config)
    assert a.evals_used <= 2_001 + 2
    assert a.best_fitness == b.best_fitness
    assert a.evals_used == b.evals_used


def test_uniform_fwa_improves_on_sphere():
    problem = make_problem("sphere", 2, seed=0)
    result = uniform_fwa_run(problem, SwarmConfig(seed=0, budget=5_000))
    start = max(r.gap for r in result.trace if r.gen == 1)
    assert result.best_fitness - problem.f_star < start


def test_random_search_budget_and_determinism():
    problem = make_problem("sphere", 3, seed=0)
    config = SwarmConfig(seed=11, budget=1_000)
    a = random_search_run(problem, config)
    b = random_search_run(problem, config)
    assert a.evals_used <= 1_000
    assert a.best_fitness == b.best_fitness
    assert np.isfinite(a.best_fitness)
    gaps = [r.best_gap for r in a.trace]
    assert all(y <= x for x, y in zip(gaps, gaps[1:]))


def _random_search_per_generation(problem, config):
    """Reference: random search drawing and evaluating one generation per call."""
    rng = np.random.default_rng(config.seed)
    n, lam, budget = resolve_run_shape(problem, config)
    batch = n * lam
    best_f, best_x, evals, g, trace = math.inf, None, 0, 0, []
    while evals + batch <= budget:
        g += 1
        xs = rng.uniform(problem.lb, problem.ub, size=(batch, problem.dim))
        fits = problem.evaluate_batch(xs)
        evals += batch
        # a NaN counts as +inf, and the first of equal fitnesses wins
        k = min(range(batch), key=lambda i: math.inf if math.isnan(fits[i]) else fits[i])
        f = math.inf if math.isnan(fits[k]) else float(fits[k])
        if f < best_f:
            best_f, best_x = f, xs[k].copy()
        trace.append(
            TraceRecord(
                gen=g,
                fw=0,
                gap=f - problem.f_star,
                df=0.0,
                scale=float(problem.ub - problem.lb),
                restart=False,
                best_gap=best_f - problem.f_star,
            )
        )
    return RunResult(best_x, best_f, evals, g, Trace.of(trace))


class _HalfNanSphere:
    """Sphere that is NaN on the half of the box where ``x[0] > 0``; counts calls."""

    def __init__(self, dim):
        self.problem = make_problem("sphere", dim, seed=0)
        self.dim, self.lb, self.ub = dim, self.problem.lb, self.problem.ub
        self.f_star = self.problem.f_star
        self.calls = 0

    def evaluate_batch(self, xs):
        self.calls += 1
        fits = self.problem.evaluate_batch(xs)
        fits[xs[:, 0] > 0.0] = np.nan
        return fits

    def evaluate(self, x):
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None, :])[0])


@pytest.mark.parametrize(
    "dim, budget",
    [
        (3, 1_007),  # not a multiple of the 30-point batch
        (2, 16_000),  # one block of 800 generations
        (2, 20_000),  # 1000 generations in blocks of 819 and 181
        (10, 20_050),  # 200 generations in six blocks of 32 and one of 8
        (40, 9_000),  # 22 generations in 11 blocks of 2
        (200, 5_000),  # a generation above BLOCK_COORDS: one per block
    ],
)
def test_random_search_blocks_match_per_generation(dim, budget):
    config = SwarmConfig(seed=3, budget=budget)
    reference = _random_search_per_generation(_HalfNanSphere(dim), config)
    problem = _HalfNanSphere(dim)
    result = random_search_run(problem, config)

    assert np.array_equal(result.best_position, reference.best_position)
    assert result.best_fitness == reference.best_fitness
    assert (result.evals_used, result.generations) == (
        reference.evals_used,
        reference.generations,
    )
    assert [dataclasses.astuple(r) for r in result.trace] == [
        dataclasses.astuple(r) for r in reference.trace
    ]
    batch = result.evals_used // result.generations
    per_block = max(1, BLOCK_COORDS // (batch * dim))
    assert problem.calls == math.ceil(result.generations / per_block)
