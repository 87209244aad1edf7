"""Run invariants shared by every algorithm: box, budget, trace, determinism.

The t firework, its Gaussian limit and the uniform fireworks baseline share
one generation driver (budget check, best-so-far tracking, trace rows and
the loser-out tournament of Li & Tan, "Loser-Out Tournament-Based Fireworks
Algorithm for Multimodal Function Optimization", IEEE TEVC 2018); random
search keeps its own loop.  These checks hold for all four on any box, and
for objectives that return NaN, which count as +inf.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tfwa.baselines import gaussian_limit_run, random_search_run, uniform_fwa_run
from tfwa.benchfns import make_problem
from tfwa.swarm import SwarmConfig, run

RUNNERS = [run, gaussian_limit_run, uniform_fwa_run, random_search_run]
RUNNER_IDS = ["tfwa", "gaussian-limit", "uniform-fwa", "random-search"]


class _Recording:
    """Delegates to a problem and keeps every point it is asked to evaluate."""

    def __init__(self, problem):
        self.problem = problem
        self.dim, self.lb, self.ub = problem.dim, problem.lb, problem.ub
        self.f_star = problem.f_star
        self.points = []

    def evaluate(self, x):
        self.points.append(np.array(x, dtype=float)[None, :])
        return self.problem.evaluate(x)

    def evaluate_batch(self, xs):
        self.points.append(np.array(xs, dtype=float))
        return self.problem.evaluate_batch(xs)

    def all_points(self):
        return np.concatenate(self.points)


def _assert_in_box(points, lb, ub):
    assert np.all(points >= lb) and np.all(points <= ub), (
        f"points outside [{lb}, {ub}]: min {points.min()}, max {points.max()}"
    )


@pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
def test_asymmetric_box_keeps_optimum_and_starts_inside(runner):
    problem = make_problem("sphere", 4, seed=0, lb=5.0, ub=10.0)
    _assert_in_box(problem.optimum()[0], 5.0, 10.0)
    recording = _Recording(problem)
    runner(recording, SwarmConfig(seed=0, budget=400))
    _assert_in_box(recording.all_points(), 5.0, 10.0)


@hst.composite
def _cases(draw):
    lb = draw(hst.floats(-1e3, 1e3))
    ub = lb + draw(hst.floats(1e-2, 2e3))
    n = draw(hst.integers(1, 3))
    lam = draw(hst.integers(2, 8))
    config = SwarmConfig(
        n_fireworks=n,
        df_factors=(1.05, 10.0, 2.0)[:n],
        sparks_per_firework=lam,
        budget=n * (lam + 1) + draw(hst.integers(0, 150)),
        seed=draw(hst.integers(0, 2**16)),
    )
    name = draw(hst.sampled_from(["sphere", "rastrigin", "rosenbrock"]))
    problem = make_problem(name, draw(hst.integers(2, 5)), seed=0, lb=lb, ub=ub)
    return problem, config


@pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
@settings(max_examples=20, deadline=None)
@given(case=_cases())
def test_run_invariants(runner, case):
    problem, config = case
    recording = _Recording(problem)
    result = runner(recording, config)

    slack = 0 if runner is random_search_run else config.n_fireworks
    assert result.evals_used <= config.budget + slack
    _assert_in_box(problem.optimum()[0], problem.lb, problem.ub)
    _assert_in_box(recording.all_points(), problem.lb, problem.ub)

    gaps = [r.best_gap for r in result.trace]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    assert result.trace[-1].gen == result.generations
    rows = {}
    for r in result.trace:
        rows.setdefault(r.gen, []).append(r.fw)
    assert sorted(rows) == list(range(1, result.generations + 1))
    per_gen = list(range(1 if runner is random_search_run else config.n_fireworks))
    for g in range(1, result.generations):
        assert rows[g] == per_gen
    last = rows[result.generations]
    assert last == sorted(set(last)) and set(last) <= set(per_gen)

    again = runner(problem, config)
    assert again.best_fitness == result.best_fitness
    assert np.array_equal(again.best_position, result.best_position)
    assert (again.evals_used, again.generations) == (result.evals_used, result.generations)
    assert [dataclasses.astuple(r) for r in again.trace] == [
        dataclasses.astuple(r) for r in result.trace
    ]


class _NanSphere:
    """Sphere that is NaN wherever ``x[0] > nan_above``; keeps every finite value."""

    def __init__(self, dim, nan_above):
        self.problem = make_problem("sphere", dim, seed=0)
        self.dim, self.lb, self.ub = dim, self.problem.lb, self.problem.ub
        self.f_star = self.problem.f_star
        self.nan_above = nan_above
        self.finite = []

    def evaluate_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        fits = self.problem.evaluate_batch(xs)
        fits[xs[:, 0] > self.nan_above] = np.nan
        self.finite.extend(fits[~np.isnan(fits)].tolist())
        return fits

    def evaluate(self, x):
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None, :])[0])


@pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
@pytest.mark.parametrize("nan_above", [50.0, -math.inf], ids=["nan-part", "nan-all"])
def test_nan_fitness_counts_as_worst(runner, nan_above):
    problem = _NanSphere(5, nan_above)
    config = SwarmConfig(seed=1, budget=5000)
    result = runner(problem, config)

    slack = 0 if runner is random_search_run else config.n_fireworks
    assert result.evals_used <= config.budget + slack
    assert not any(math.isnan(r.gap) or math.isnan(r.best_gap) for r in result.trace)
    if problem.finite:
        assert result.best_fitness == min(problem.finite)
    else:
        assert result.best_fitness == math.inf


class _ScalarOnly:
    """An objective with ``lb``, ``ub``, ``dim`` and ``evaluate``, nothing else."""

    def __init__(self, problem):
        self._problem = problem
        self.dim, self.lb, self.ub = problem.dim, problem.lb, problem.ub

    def evaluate(self, x):
        return self._problem.evaluate(x)


@pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
def test_runner_needs_only_evaluate(runner):
    objective = _ScalarOnly(make_problem("rastrigin", 3, seed=0))
    config = SwarmConfig(seed=2, budget=600)
    result = runner(objective, config)

    slack = 0 if runner is random_search_run else config.n_fireworks
    assert 0 < result.evals_used <= config.budget + slack
    assert result.generations > 0
    assert result.best_fitness == objective.evaluate(result.best_position)
