"""Run invariants shared by every algorithm: box, budget, trace, determinism.

The t firework, its Gaussian limit and the uniform fireworks baseline share
one generation driver (budget check, best-so-far tracking, trace rows and
the loser-out tournament of Li & Tan, "Loser-Out Tournament-Based Fireworks
Algorithm for Multimodal Function Optimization", IEEE TEVC 2018); random
search keeps its own loop but records its run through the driver's run
record.  These checks hold for all four on any box, for objectives whose
optimum is not 0, and for objectives that return NaN, which count as +inf.
A cell's runs go through one generation loop, and each gives the result it
gives on its own, and a grid's trace files hold each run's trace records
exactly.
"""

import csv
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import tfwa.explosion as explosion_mod
import tfwa.harness as harness_mod
import tfwa.swarm as swarm_mod
from algorithms import ALGORITHMS, cell_of, run_of
from tfwa.baselines import uniform_fwa_cell
from tfwa.benchfns import make_problem
from tfwa.explosion import DegenerateStateError
from tfwa.harness import ExperimentConfig, run_experiment
from tfwa.swarm import SwarmConfig, TraceRecord, run


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


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_asymmetric_box_keeps_optimum_and_starts_inside(algo):
    problem = make_problem("sphere", 4, seed=0, lb=5.0, ub=10.0)
    _assert_in_box(problem.optimum()[0], 5.0, 10.0)
    recording = _Recording(problem)
    run_of(algo)(recording, SwarmConfig(seed=0, budget=400))
    _assert_in_box(recording.all_points(), 5.0, 10.0)


def test_failed_weight_fusion_charges_its_evaluated_sparks(monkeypatch):
    # weight fusion comes after the sparks are evaluated, so a failure there
    # must charge them to the run, as a failure in the shape update does
    real_fuse = explosion_mod.fuse_weights
    calls = {"n": 0}

    def flaky(rank_w, natural_w):
        calls["n"] += 1
        if calls["n"] % 7 == 0:
            raise DegenerateStateError("forced fusion failure")
        return real_fuse(rank_w, natural_w)

    monkeypatch.setattr(explosion_mod, "fuse_weights", flaky)
    recording = _Recording(make_problem("sphere", 5, seed=0))
    config = SwarmConfig(seed=0, budget=2000)
    result = run(recording, config)
    assert calls["n"] >= 7
    assert result.evals_used == len(recording.all_points())
    assert result.evals_used <= config.budget + config.n_fireworks


class _Lowered:
    """A problem whose values are all lowered by 3.5, so its optimum is
    ``f_star = -3.5``; it keeps the problem's box and optimum point."""

    f_star = -3.5

    def __init__(self, problem):
        self.problem = problem
        self.dim, self.lb, self.ub = problem.dim, problem.lb, problem.ub

    def evaluate(self, x):
        return self.problem.evaluate(x) + self.f_star

    def evaluate_batch(self, xs):
        return self.problem.evaluate_batch(xs) + self.f_star

    def optimum(self):
        return self.problem.optimum()[0], self.f_star


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
    if draw(hst.booleans()):
        problem = _Lowered(problem)
    return problem, config


@pytest.mark.parametrize("algo", ALGORITHMS)
@settings(max_examples=20, deadline=None)
@given(case=_cases())
@example(case=(_Lowered(make_problem("rastrigin", 3, seed=0)), SwarmConfig(seed=0, budget=300)))
def test_run_invariants(algo, case):
    problem, config = case
    runner = run_of(algo)
    recording = _Recording(problem)
    result = runner(recording, config)

    slack = 0 if algo == "random-search" else config.n_fireworks
    assert result.evals_used <= config.budget + slack
    _assert_in_box(problem.optimum()[0], problem.lb, problem.ub)
    _assert_in_box(recording.all_points(), problem.lb, problem.ub)

    gaps = [r.best_gap for r in result.trace]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert all(r.best_gap <= r.gap for r in result.trace)
    assert result.trace[-1].best_gap == result.best_fitness - problem.f_star

    assert result.trace[-1].gen == result.generations
    rows = {}
    for r in result.trace:
        rows.setdefault(r.gen, []).append(r.fw)
    assert sorted(rows) == list(range(1, result.generations + 1))
    per_gen = list(range(1 if algo == "random-search" else config.n_fireworks))
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


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("nan_above", [50.0, -math.inf], ids=["nan-part", "nan-all"])
def test_nan_fitness_counts_as_worst(algo, nan_above):
    problem = _NanSphere(5, nan_above)
    config = SwarmConfig(seed=1, budget=5000)
    result = run_of(algo)(problem, config)

    slack = 0 if algo == "random-search" else config.n_fireworks
    assert result.evals_used <= config.budget + slack
    assert not any(math.isnan(r.gap) or math.isnan(r.best_gap) for r in result.trace)
    if problem.finite:
        assert result.best_fitness == min(problem.finite)
    else:
        assert result.best_fitness == math.inf


def _bits(x):
    return struct.pack("<d", x)


_TRACE_FIELDS = [f.name for f in dataclasses.fields(TraceRecord)]
_TRACE_FLOATS = {"gap", "df", "scale", "best_gap"}


@pytest.mark.parametrize("objective", ["lowered", "nan-part", "nan-all"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_trace_lines_are_the_run_records(tmp_path, monkeypatch, algo, objective):
    # each trace line holds its record's fields in order, floats bit for bit,
    # and its last line's best gap is the one results.csv reports
    def objective_for(name, dim, seed):
        if objective == "lowered":
            return _Lowered(make_problem(name, dim, seed=seed))
        return _NanSphere(dim, 20.0 if objective == "nan-part" else -math.inf)

    monkeypatch.setattr(harness_mod, "make_problem", objective_for)
    out = tmp_path / "out"
    grid = dict(suite=("sphere",), dims=(3,), algos=(algo,), reps=2, budget_multiplier=100)
    run_experiment(ExperimentConfig(out_dir=str(out), **grid))
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        config = SwarmConfig(seed=int(row["seed"]), budget=300)
        result = run_of(algo)(objective_for("sphere", 3, 0), config)
        path = out / "traces" / f"sphere_d3_{algo}_rep{row['rep']}.jsonl"
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(result.trace)
        for line, rec in zip(lines, result.trace):
            assert list(line) == _TRACE_FIELDS
            for name in _TRACE_FIELDS:
                value = getattr(rec, name)
                if name in _TRACE_FLOATS:
                    assert type(line[name]) is float, (name, line)
                    assert _bits(line[name]) == _bits(value), (name, line)
                else:
                    assert type(line[name]) is type(value) and line[name] == value, (name, line)
        assert _bits(float(row["best_gap"])) == _bits(lines[-1]["best_gap"])


class _ScalarOnly:
    """An objective with ``lb``, ``ub``, ``dim`` and ``evaluate``, nothing else."""

    def __init__(self, problem):
        self._problem = problem
        self.dim, self.lb, self.ub = problem.dim, problem.lb, problem.ub

    def evaluate(self, x):
        return self._problem.evaluate(x)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_runner_needs_only_evaluate(algo):
    objective = _ScalarOnly(make_problem("rastrigin", 3, seed=0))
    config = SwarmConfig(seed=2, budget=600)
    result = run_of(algo)(objective, config)

    slack = 0 if algo == "random-search" else config.n_fireworks
    assert 0 < result.evals_used <= config.budget + slack
    assert result.generations > 0
    assert result.best_fitness == objective.evaluate(result.best_position)


def _as_tuple(result):
    return (
        result.best_fitness,
        result.best_position.tobytes(),
        result.evals_used,
        result.generations,
        [dataclasses.astuple(r) for r in result.trace],
    )


# ackley d=3 under these configs restarts each firework run a different
# number of times, so the runs of a cell end at different generations
_CELL_CONFIGS = [SwarmConfig(seed=s, budget=300, sparks_per_firework=6) for s in range(4)]


@pytest.mark.parametrize("objective", ["restarts-differ", "nan-part"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cell_matches_runs(algo, objective):
    if objective == "nan-part":
        problem = _NanSphere(3, 20.0)
    else:
        problem = make_problem("ackley", 3, seed=0)
    results = cell_of(algo)(problem, _CELL_CONFIGS)
    assert [_as_tuple(r) for r in results] == [
        _as_tuple(run_of(algo)(problem, c)) for c in _CELL_CONFIGS
    ]
    if objective == "restarts-differ" and algo != "random-search":
        assert len({r.generations for r in results}) > 1


def test_uniform_cell_evaluates_one_batch_per_generation(monkeypatch):
    monkeypatch.setattr(swarm_mod, "THREAD_MIN_BURST_S", math.inf)  # in turn
    recording = _Recording(make_problem("ackley", 3, seed=0))
    results = uniform_fwa_cell(recording, _CELL_CONFIGS)
    # the starting points are evaluated one at a time, the sparks in batches
    batches = [p for p in recording.points if len(p) > 1]
    assert len(batches) == max(r.generations for r in results)
    assert len(batches[0]) == len(_CELL_CONFIGS) * 2 * 6


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize(
    "configs",
    [[], [SwarmConfig(seed=0), SwarmConfig(seed=1, eps=1e-3)]],
    ids=["empty", "differ-beyond-seed"],
)
def test_cell_rejects_configs_of_more_than_one_cell(algo, configs):
    with pytest.raises(ValueError, match="cell"):
        cell_of(algo)(make_problem("sphere", 2, seed=0), configs)
