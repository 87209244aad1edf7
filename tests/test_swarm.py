"""Swarm orchestration: initialisation, tournament, budget, determinism."""

import copy
import dataclasses

import numpy as np
import pytest

import tfwa.swarm as swarm_mod
from tfwa.benchfns import make_problem
from tfwa.explosion import DegenerateStateError, FireworkState, StrategyParams
from tfwa.swarm import (
    SwarmConfig,
    loser_out_check,
    resolve_run_shape,
    restart_firework,
    run,
)


def test_resolve_defaults_dim10():
    problem = make_problem("sphere", 10, seed=0)
    n, lam, budget = resolve_run_shape(problem, SwarmConfig())
    assert (n, lam, budget) == (2, 50, 100_000)


def test_resolve_defaults_dim3():
    problem = make_problem("sphere", 3, seed=0)
    n, lam, budget = resolve_run_shape(problem, SwarmConfig())
    assert (n, lam, budget) == (2, 15, 30_000)


@pytest.mark.parametrize(
    "config, budget",
    [
        (SwarmConfig(n_fireworks=0, df_factors=()), None),
        (SwarmConfig(n_fireworks=2, df_factors=(1.05,)), None),
        (SwarmConfig(df_factors=5), None),
        (SwarmConfig(df_factors=(1.0, 10.0)), None),
        (SwarmConfig(df_factors=(float("nan"), 10.0)), None),
        (SwarmConfig(df_init=1.5), None),
        (SwarmConfig(df_init=2.0**31), None),
        (SwarmConfig(eps=0.0), None),
        (SwarmConfig(eps=float("nan")), None),
        (SwarmConfig(), 10),
    ],
    ids=[
        "no-fireworks",
        "factor-arity",
        "factors-not-list",
        "factor-too-small",
        "df-factor-nan",
        "df-low",
        "df-high",
        "eps",
        "eps-nan",
        "budget",
    ],
)
def test_resolve_rejects_bad_config(config, budget):
    problem = make_problem("sphere", 4, seed=0)
    with pytest.raises(ValueError):
        resolve_run_shape(problem, config, budget)


def test_run_cell_starts_fireworks(monkeypatch):
    # the fireworks that each run of a cell starts with, before they explode
    problem = make_problem("sphere", 6, seed=0)
    started, evaluated, params_seen = [], [], []
    real_fresh, real_evaluate, real_explode = (
        swarm_mod._fresh_t_firework,
        swarm_mod._evaluate_one,
        swarm_mod.explode,
    )

    def fresh(*args):
        fw = real_fresh(*args)
        started.append(copy.deepcopy(fw))
        return fw

    def evaluate_one(objective, x):
        evaluated.append(x.copy())
        return real_evaluate(objective, x)

    def explode(state, params, objective, rng):
        params_seen.append(params)
        return real_explode(state, params, objective, rng)

    monkeypatch.setattr(swarm_mod, "_fresh_t_firework", fresh)
    monkeypatch.setattr(swarm_mod, "_evaluate_one", evaluate_one)
    monkeypatch.setattr(swarm_mod, "explode", explode)
    swarm_mod.run_cell(problem, SwarmConfig(), [0, 1], 2 + 2 * 30 * 3)
    # every fresh firework evaluates its mean once, and the four starts come
    # first: both fireworks of run 0, then both of run 1
    assert len(evaluated) == len(started) >= 4
    starts = started[:4]
    for fw, x in zip(starts, evaluated):
        assert np.array_equal(fw.mean, x)
        assert np.all(fw.mean >= -50.0) and np.all(fw.mean <= 50.0)
        assert fw.scale == 200.0
        assert np.array_equal(fw.path_c, np.zeros(6))
        assert np.array_equal(fw.path_s, np.zeros(6))
        assert fw.df == 5.0
        assert np.array_equal(fw.shape, np.eye(6))
        assert np.array_equal(fw.eigvals, np.ones(6))
        assert np.array_equal(fw.eigvecs, np.eye(6))
        assert fw.last_gen_best == fw.best_fitness == problem.evaluate(fw.mean)
    assert [fw.df_factor for fw in starts] == [1.05, 10.0, 1.05, 10.0]
    assert len({fw.mean.tobytes() for fw in starts}) == 4
    assert params_seen and all(isinstance(p, StrategyParams) for p in params_seen)
    assert {p.lam for p in params_seen} == {30}


def test_run_factorises_once_per_explosion(monkeypatch):
    # fresh and restarted fireworks start from the identity's eigenpair
    # without factorising it, and every firework shares one StrategyParams
    problem = make_problem("rastrigin", 5, seed=0)
    calls = {"eigh": 0, "explode": 0}
    params_seen = set()
    real_eigh, real_explode = np.linalg.eigh, swarm_mod.explode

    def eigh(*args, **kwargs):
        calls["eigh"] += 1
        return real_eigh(*args, **kwargs)

    def explode(state, params, objective, rng):
        calls["explode"] += 1
        params_seen.add(id(params))
        return real_explode(state, params, objective, rng)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(swarm_mod, "explode", explode)
    result = run(problem, SwarmConfig(), seed=0, budget=20_000)
    assert result.restarts > 0
    assert calls["explode"] > 0
    assert calls["eigh"] == calls["explode"]
    assert len(params_seen) == 1


def _fw(improvement=0.0, gen_improvement=0.0, best_fitness=10.0):
    return FireworkState(
        mean=np.zeros(2),
        shape=np.eye(2),
        df=5.0,
        df_factor=1.05,
        path_c=np.zeros(2),
        path_s=np.zeros(2),
        scale=1.0,
        last_gen_best=best_fitness,
        best_fitness=best_fitness,
        improvement=improvement,
        gen_improvement=gen_improvement,
    )


def test_loser_out_zero_improvement_with_gap():
    """The loser-out rule of Li & Tan, "Loser-Out Tournament-Based Fireworks
    Algorithm for Multimodal Function Optimization" (IEEE TEVC 2018).

    A firework loses when its accepted per-generation improvement, kept up
    over the remaining generations, cannot reach the best current fitness.
    This and the following ``test_loser_out_*`` tests check that rule.
    """
    fw = _fw(best_fitness=10.0)
    assert loser_out_check(fw, g=0, g_max=100, global_best=5.0, eps=1e-6) is True


def test_loser_out_sufficient_improvement():
    # 0.1 * 100 = 10 can cover the gap of 5
    fw = _fw(gen_improvement=0.1, best_fitness=10.0)
    assert loser_out_check(fw, g=0, g_max=100, global_best=5.0, eps=1e-6) is False
    assert fw.improvement == 0.1


def test_loser_out_insufficient_improvement():
    # 0.01 * 100 = 1 cannot cover the gap of 5
    fw = _fw(gen_improvement=0.01, best_fitness=10.0)
    assert loser_out_check(fw, g=0, g_max=100, global_best=5.0, eps=1e-6) is True


def test_loser_out_small_gain_below_eps_not_accepted():
    fw = _fw(improvement=0.5, gen_improvement=1e-9, best_fitness=10.0)
    assert loser_out_check(fw, g=0, g_max=100, global_best=5.0, eps=1e-6) is False
    assert fw.improvement == 0.5


def test_loser_out_leader_never_restarts():
    fw = _fw(best_fitness=5.0)
    assert loser_out_check(fw, g=50, g_max=100, global_best=5.0, eps=1e-6) is False


def test_restart_resets_state():
    problem = make_problem("sphere", 4, seed=0)
    config = SwarmConfig(df_factors=(1.05, 10.0))
    old = _fw(best_fitness=123.0)
    old.df = 77.0
    old.df_factor = 10.0
    old.gen_count = 9
    fresh = restart_firework(old, problem, config, np.random.default_rng(1))
    assert fresh.df == 5.0
    assert fresh.gen_count == 0
    assert fresh.df_factor == 10.0
    assert np.all(fresh.mean >= -50.0) and np.all(fresh.mean <= 50.0)
    assert fresh.scale == 200.0
    assert fresh.improvement == 0.0
    assert fresh.best_fitness == problem.evaluate(fresh.mean)


def test_run_deterministic():
    problem = make_problem("rastrigin", 3, seed=0)
    a = run(problem, SwarmConfig(), seed=4, budget=3_000)
    b = run(problem, SwarmConfig(), seed=4, budget=3_000)
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.best_position, b.best_position)
    assert a.evals_used == b.evals_used
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert dataclasses.astuple(ra) == dataclasses.astuple(rb)


def test_run_budget_accounting():
    problem = make_problem("ackley", 3, seed=0)
    for budget in (500, 1_001, 2_345):
        config = SwarmConfig()
        result = run(problem, config, seed=0, budget=budget)
        assert result.evals_used <= budget + config.n_fireworks


def test_run_sphere_10d_converges():
    problem = make_problem("sphere", 10, seed=0)
    result = run(problem, SwarmConfig(), seed=0)
    assert result.best_fitness - problem.f_star < 1e-8
    assert result.evals_used <= 100_000 + 2


def test_run_single_firework_never_restarts():
    problem = make_problem("rastrigin", 2, seed=0)
    config = SwarmConfig(n_fireworks=1, df_factors=(1.05,))
    result = run(problem, config, seed=3, budget=2_000)
    assert result.restarts == 0


def test_run_trace_covers_all_fireworks():
    problem = make_problem("griewank", 2, seed=0)
    result = run(problem, SwarmConfig(), seed=1, budget=1_000)
    full_gens = {r.gen for r in result.trace if not r.restart}
    for g in sorted(full_gens)[:-1]:
        rows = [r for r in result.trace if r.gen == g]
        assert {r.fw for r in rows} == {0, 1}


def test_run_best_gap_non_increasing():
    problem = make_problem("rosenbrock", 3, seed=0)
    result = run(problem, SwarmConfig(), seed=2, budget=5_000)
    gaps = [r.best_gap for r in result.trace]
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert result.best_fitness - problem.f_star == pytest.approx(gaps[-1], abs=1e-12)


def test_run_df_non_decreasing_between_restarts():
    problem = make_problem("rastrigin", 3, seed=0)
    result = run(problem, SwarmConfig(), seed=5, budget=8_000)
    last_df = {}
    for row in result.trace:
        if row.fw in last_df and not row.restart:
            assert row.df >= last_df[row.fw]
        last_df[row.fw] = row.df


def test_run_restarts_happen_on_multimodal():
    problem = make_problem("rastrigin", 5, seed=0)
    result = run(problem, SwarmConfig(), seed=0, budget=20_000)
    assert result.restarts > 0


def test_degenerate_explosion_triggers_restart(monkeypatch):
    problem = make_problem("sphere", 2, seed=0)
    calls = {"n": 0}
    real_explode = swarm_mod.explode

    def flaky(state, params, objective, rng):
        calls["n"] += 1
        if calls["n"] == 3:
            raise DegenerateStateError("forced collapse")
        return real_explode(state, params, objective, rng)

    monkeypatch.setattr(swarm_mod, "explode", flaky)
    result = run(problem, SwarmConfig(), seed=0, budget=400)
    assert result.restarts >= 1
    restart_rows = [r for r in result.trace if r.restart]
    assert any(r.df == 5.0 and r.scale == 200.0 for r in restart_rows)


def test_degenerate_with_evaluated_sparks_keeps_accounting(monkeypatch):
    problem = make_problem("sphere", 2, seed=0)
    config = SwarmConfig()
    _, lam, budget = resolve_run_shape(problem, config, 400)
    calls = {"n": 0}
    real_explode = swarm_mod.explode

    def flaky(state, params, objective, rng):
        calls["n"] += 1
        if calls["n"] == 2:
            sparks = np.zeros((lam, 2))
            fits = problem.evaluate_batch(sparks)
            raise DegenerateStateError("late collapse", sparks=sparks, fitnesses=fits)
        return real_explode(state, params, objective, rng)

    monkeypatch.setattr(swarm_mod, "explode", flaky)
    result = run(problem, config, seed=0, budget=budget)
    assert result.evals_used <= budget + config.n_fireworks
    # the evaluated sparks at the origin must feed the best tracker
    assert result.best_fitness <= problem.evaluate(np.zeros(2))


def test_partial_generation_is_last_after_failure_before_sampling(monkeypatch):
    # the fourth generation has room for one firework, which fails before
    # evaluating a spark: its restart costs one evaluation and leaves room
    # for another explosion, but a generation in which fewer than all
    # fireworks explode is the run's last
    problem = make_problem("sphere", 2, seed=0)
    budget = 2 + 3 * 2 * 10 + 10 + 5
    calls = {"n": 0}
    real_explode = swarm_mod.explode

    def flaky(state, params, objective, rng):
        calls["n"] += 1
        if calls["n"] == 7:
            raise DegenerateStateError("collapse before sampling")
        return real_explode(state, params, objective, rng)

    monkeypatch.setattr(swarm_mod, "explode", flaky)
    result = run(problem, SwarmConfig(), seed=0, budget=budget)
    assert calls["n"] == 7
    assert result.generations == 4
    last = result.trace[-1]
    assert (last.gen, last.fw, last.restart) == (4, 0, True)
    assert result.evals_used <= budget - 10
