"""Explosion generation, strategy constants, and state maintenance tests."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import tfwa.tdist
from tfwa.benchfns import make_problem
from tfwa.explosion import (
    DF_CAP,
    DegenerateStateError,
    FireworkState,
    _evaluate_all,
    _evaluate_one,
    adjust_degree_of_freedom,
    derive_params,
    dynamic_rates,
    effective_mass,
    explode,
    fuse_weights,
    rank_weights,
    regularize_covariance,
    repair_bounds,
)
from tfwa.natgrad import natgrad_weight

# the Gaussian limit approached from below (df 1e8) and at the cap, where df freezes
GAUSSIAN_LIMITS = (1.0e8, DF_CAP)


# frozen: max(ln(0.5 + lam/2) - ln(1 + i), 0) normalised, lam = 4
RANK_W4 = [0.8041628599327295, 0.19583714006727054, 0.0, 0.0]


def test_rank_weights_lam4():
    assert np.allclose(rank_weights(4), RANK_W4, atol=1e-12)


def test_rank_weights_lam2():
    assert np.allclose(rank_weights(2), [1.0, 0.0], atol=1e-12)


def test_rank_weights_lam50_support():
    w = rank_weights(50)
    assert np.sum(w > 0) == 25


def test_rank_weights_rejects_single_spark():
    with pytest.raises(ValueError):
        rank_weights(1)


@given(hst.integers(min_value=2, max_value=200))
@settings(max_examples=50, deadline=None)
def test_rank_weights_simplex(lam):
    w = rank_weights(lam)
    assert w.shape == (lam,)
    assert np.all(w >= 0)
    assert np.all(np.diff(w) <= 1e-15)
    assert math.isclose(float(np.sum(w)), 1.0, abs_tol=1e-12)
    assert w[0] > 0


def test_effective_mass_equal_weights():
    assert effective_mass([0.5, 0.5]) == pytest.approx(2.0, abs=1e-14)


def test_effective_mass_lam4():
    assert effective_mass(rank_weights(4)) == pytest.approx(
        1.4597898888525862, abs=1e-12
    )


def test_effective_mass_lam50():
    assert effective_mass(rank_weights(50)) == pytest.approx(
        13.95132094028516, abs=1e-10
    )


# frozen constants for (lam=4, dim=10) and (lam=50, dim=10)
PARAMS_4_10 = dict(
    mu_eff=1.4597898888525862,
    c_c=0.29009174217653366,
    c_s=0.21019647955504783,
    c_1=0.015485894338048995,
    c_mu=0.0019912029254017137,
)
PARAMS_50_10 = dict(
    mu_eff=13.95132094028516,
    c_c=0.3213250270276325,
    c_s=0.5509704021169283,
    c_1=0.014120173313288879,
    c_mu=0.15223676091189225,
)


@pytest.mark.parametrize(
    "lam,expected", [(4, PARAMS_4_10), (50, PARAMS_50_10)], ids=["lam4", "lam50"]
)
def test_derive_params_frozen(lam, expected):
    p = derive_params(lam, 10)
    for name, value in expected.items():
        assert getattr(p, name) == pytest.approx(value, abs=1e-12), name


@given(hst.integers(min_value=2, max_value=100), hst.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_derive_params_ranges(lam, dim):
    p = derive_params(lam, dim)
    assert 0 < p.c_c < 1
    assert 0 < p.c_s < 1
    assert p.c_1 + p.c_mu <= 1
    assert p.mu_eff >= 1


def test_strategy_params_frozen():
    p = derive_params(10, 5)
    with pytest.raises(FrozenInstanceError):
        p.c_c = 0.5


def test_dynamic_rates_gate_open_at_start():
    p = derive_params(10, 5)
    c_cn, _, h_gate, c_1a = dynamic_rates(p, scale=2.0, path_s=np.zeros(5), gen_count=0)
    assert h_gate == 1
    assert c_1a == pytest.approx(p.c_1, abs=1e-15)
    assert c_cn == pytest.approx(math.sqrt(p.c_c * (2 - p.c_c) * p.mu_eff) / 2.0, abs=1e-15)


def test_dynamic_rates_gate_closes_on_long_path():
    p = derive_params(10, 5)
    long_path = np.full(5, 10.0)
    _, _, h_gate, c_1a = dynamic_rates(p, scale=1.0, path_s=long_path, gen_count=3)
    assert h_gate == 0
    assert c_1a < p.c_1


def test_adjust_df_growth_factor_dominates():
    assert adjust_degree_of_freedom(5.0, 1.0, 2.0, 10.0) == 50.0


def test_adjust_df_plus_one_floor():
    assert adjust_degree_of_freedom(5.0, 1.0, 2.0, 1.05) == 6.0


def test_adjust_df_unchanged_without_improvement():
    assert adjust_degree_of_freedom(5.0, 2.0, 2.0, 10.0) == 5.0
    assert adjust_degree_of_freedom(5.0, 3.0, 2.0, 1.05) == 5.0


def test_adjust_df_cap():
    assert adjust_degree_of_freedom(float(2**30), 1.0, 2.0, 10.0) == float(2**30)
    assert DF_CAP == float(2**30)


def test_repair_bounds_identity_inside():
    rng = np.random.default_rng(0)
    x = np.array([0.0, 0.0])
    assert np.array_equal(repair_bounds(x, -100.0, 100.0, rng), x)


def test_repair_bounds_only_violators_move():
    rng = np.random.default_rng(1)
    out = repair_bounds(np.array([150.0, 0.0]), -100.0, 100.0, rng)
    assert -100.0 <= out[0] <= 100.0
    assert out[1] == 0.0


def test_repair_bounds_resample_is_uniform():
    rng = np.random.default_rng(2)
    x = np.full(100_000, 250.0)
    out = repair_bounds(x, -100.0, 100.0, rng)
    assert np.all((out >= -100.0) & (out <= 100.0))
    assert abs(out.mean() - 0.0) < 0.01 * 200.0


@pytest.mark.parametrize("lb, ub", [(-math.inf, math.inf), (0.0, math.inf), (-1e308, 1e308)])
def test_box_of_infinite_width_rejected(lb, ub):
    # numpy's uniform draws overflow on such a box, so it is refused up front,
    # as a box with lb >= ub is
    with pytest.raises(ValueError, match="finite ub - lb"):
        make_problem("sphere", 3, lb=lb, ub=ub)
    with pytest.raises(ValueError, match="finite ub - lb"):
        repair_bounds(np.array([1.0, -math.inf]), lb, ub, np.random.default_rng(0))


def _assert_pair_rebuilds(out, vals, vecs):
    assert np.all(np.diff(vals) >= 0)
    rebuilt = (vecs * vals) @ vecs.T
    assert np.linalg.norm(rebuilt - out) <= 1e-12 * np.linalg.norm(out)


def test_regularize_identity_fixed_point():
    out, vals, vecs = regularize_covariance(np.eye(3))
    assert np.array_equal(out, np.eye(3))
    _assert_pair_rebuilds(out, vals, vecs)


def test_regularize_lifts_negative_eigenvalue():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    c = q @ np.diag([1.0, 0.5, -1e-15]) @ q.T
    out, pair_vals, pair_vecs = regularize_covariance(c)
    _assert_pair_rebuilds(out, pair_vals, pair_vecs)
    vals = np.linalg.eigvalsh(out)
    floor = 1e-12 * max(1.0, np.trace(out) / 3.0)
    # reconstruction rounding is ~eps relative to the unit eigenvalues,
    # which is a 1e-4 relative wobble on the 1e-12 floor
    assert vals[0] >= floor * 0.99
    assert vals[0] <= floor * 1.01
    assert np.allclose(np.sort(vals)[1:], [0.5, 1.0], atol=1e-10)


def test_regularize_symmetrises():
    c = np.array([[1.0, 0.2 + 1e-9], [0.2, 1.0]])
    out, vals, vecs = regularize_covariance(c)
    assert np.array_equal(out, out.T)
    _assert_pair_rebuilds(out, vals, vecs)


def test_regularize_rejects_non_finite():
    with pytest.raises(DegenerateStateError):
        regularize_covariance(np.array([[1.0, 0.0], [0.0, np.inf]]))


def test_fuse_weights_simplex():
    rank_w = rank_weights(6)
    natural = np.array([1.2, 0.8, 1.0, 0.9, 1.1, 1.05])
    fused = fuse_weights(rank_w, natural)
    assert math.isclose(float(np.sum(fused)), 1.0, abs_tol=1e-12)
    assert np.all(fused >= 0)


def test_fuse_weights_rejects_zero_mass():
    with pytest.raises(DegenerateStateError):
        fuse_weights(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_fuse_weights_rejects_non_finite():
    with pytest.raises(DegenerateStateError):
        fuse_weights(np.array([0.7, 0.3]), np.array([np.nan, 1.0]))


def test_gaussian_limit_weights_collapse_to_rank_weights():
    # natural weights become uniform for huge df, so fusing changes nothing
    s = np.random.default_rng(4).chisquare(10, size=50)
    base = rank_weights(50)
    pos = base > 0
    for df in GAUSSIAN_LIMITS:
        natural = natgrad_weight(s, 10, df)
        assert float(np.max(natural) / np.min(natural)) < 1.001, df
        fused = fuse_weights(rank_weights(50), natural)
        assert np.max(np.abs(fused[pos] - base[pos]) / base[pos]) < 1e-3, df


def _fresh_state(dim, df=5.0, scale=1.0, mean=None, f0=math.inf):
    mean = np.zeros(dim) if mean is None else np.asarray(mean, dtype=float)
    return FireworkState(
        mean=mean.copy(),
        shape=np.eye(dim),
        df=df,
        df_factor=1.05,
        path_c=np.zeros(dim),
        path_s=np.zeros(dim),
        scale=scale,
        last_gen_best=f0,
        best_fitness=f0,
    )


# fitnesses whose bits the NaN policy must keep, NaNs among them
_FITS = [1.5, math.nan, -math.inf, -0.0, math.inf, 0.0, -2.0, math.nan, 5e-324]


class _CachedObjective:
    """Returns one cached array from every batch, and its entries by index."""

    def __init__(self, values, batched):
        self.values = np.array(values)
        if batched:
            self.evaluate_batch = lambda xs: self.values

    def evaluate(self, x):
        return self.values[int(x[0])]


@pytest.mark.parametrize("batched", [True, False], ids=["evaluate_batch", "evaluate-only"])
def test_evaluate_all_counts_nan_as_inf_and_keeps_other_bits(batched):
    objective = _CachedObjective(_FITS, batched)
    xs = np.arange(len(_FITS), dtype=float)[:, None]
    fits = _evaluate_all(objective, xs)
    expected = np.array([math.inf if f != f else f for f in _FITS])
    assert fits.dtype == np.float64
    assert fits.tobytes() == expected.tobytes()
    # the objective's own array is left as it was
    assert objective.values is not fits
    assert np.isnan(objective.values[[1, 7]]).all()


def test_evaluate_one_counts_nan_as_inf_and_keeps_other_bits():
    objective = _CachedObjective(_FITS, batched=True)
    objective.evaluate_batch = None  # a single point goes through evaluate
    got = [_evaluate_one(objective, np.array([float(i)])) for i in range(len(_FITS))]
    assert all(type(f) is float for f in got)
    expected = [math.inf if f != f else f for f in _FITS]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert np.isnan(objective.values[[1, 7]]).all()


def test_explode_sorted_sparks_and_state_commit():
    problem = make_problem("sphere", 2, seed=0, rotated=False, shifted=False)
    state = _fresh_state(2, mean=[1.0, 1.0], f0=2.0)
    params = derive_params(20, 2)
    xs, fits = explode(state, params, problem, np.random.default_rng(5))
    assert xs.shape == (20, 2)
    assert np.all(np.diff(fits) >= 0)
    assert state.last_gen_best == fits[0]
    assert state.best_fitness <= 2.0
    assert state.gen_count == 1
    assert state.scale > 0
    vals = np.linalg.eigvalsh(state.shape)
    assert np.all(vals > 0)


def test_explode_sphere_converges():
    problem = make_problem("sphere", 2, seed=0, rotated=False, shifted=False)
    state = _fresh_state(2, mean=[1.0, 1.0], f0=float(problem.evaluate([1.0, 1.0])))
    params = derive_params(20, 2)
    rng = np.random.default_rng(0)
    for _ in range(60):
        explode(state, params, problem, rng)
    assert state.best_fitness < 1e-10


def test_explode_flat_function_keeps_mean_in_box():
    class Flat:
        lb, ub, dim = -100.0, 100.0, 3

        def evaluate(self, x):
            return 0.0

        def evaluate_batch(self, xs):
            return np.zeros(len(xs))

    state = _fresh_state(3, scale=200.0, f0=0.0)
    params = derive_params(12, 3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        xs, _ = explode(state, params, Flat(), rng)
        assert np.all(state.mean >= xs.min(axis=0) - 1e-9)
        assert np.all(state.mean <= xs.max(axis=0) + 1e-9)
        assert np.all(np.abs(state.mean) <= 100.0)


def test_explode_scale_growth_bounded():
    # reward for running away pushes the step size up as fast as it can go
    class Runaway:
        lb, ub, dim = -1e9, 1e9, 2

        def evaluate(self, x):
            return -float(np.dot(x, x))

        def evaluate_batch(self, xs):
            return -np.einsum("ij,ij->i", xs, xs)

    state = _fresh_state(2, scale=1.0, f0=0.0)
    params = derive_params(10, 2)
    rng = np.random.default_rng(7)
    for _ in range(30):
        before = state.scale
        explode(state, params, Runaway(), rng)
        assert state.scale <= before * math.e * (1 + 1e-12)


def test_explode_df_grows_on_improvement():
    problem = make_problem("sphere", 2, seed=0, rotated=False, shifted=False)
    state = _fresh_state(2, mean=[5.0, 5.0], f0=50.0)
    params = derive_params(20, 2)
    rng = np.random.default_rng(8)
    seen = [state.df]
    for _ in range(10):
        explode(state, params, problem, rng)
        seen.append(state.df)
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert seen[-1] > seen[0]


def test_explode_df_frozen_at_cap():
    problem = make_problem("sphere", 2, seed=0, rotated=False, shifted=False)
    state = _fresh_state(2, df=DF_CAP, mean=[5.0, 5.0], f0=50.0)
    params = derive_params(20, 2)
    rng = np.random.default_rng(9)
    improved = 0
    for _ in range(10):
        before = state.last_gen_best
        explode(state, params, problem, rng)
        improved += state.last_gen_best < before
        assert state.df == DF_CAP
    # df growth was asked for, and the cap held it
    assert improved > 0


def test_explode_deterministic():
    problem = make_problem("rastrigin", 2, seed=0)
    runs = []
    for _ in range(2):
        state = _fresh_state(2, scale=200.0, f0=1e9)
        params = derive_params(10, 2)
        rng = np.random.default_rng(10)
        for _ in range(5):
            explode(state, params, problem, rng)
        runs.append((state.mean.copy(), state.shape.copy(), state.scale, state.df))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]
    assert runs[0][3] == runs[1][3]


def test_explode_literal_psigma_variant_differs_but_works():
    # the unwhitened path normalisation mis-scales the step-size signal,
    # so it converges more slowly; it must still run and improve
    problem = make_problem("sphere", 2, seed=0, rotated=False, shifted=False)
    finals = []
    for literal in (False, True):
        state = _fresh_state(2, mean=[1.0, 1.0], f0=2.0)
        params = derive_params(20, 2, literal_psigma=literal)
        rng = np.random.default_rng(11)
        for _ in range(40):
            explode(state, params, problem, rng)
        finals.append(state.best_fitness)
    assert finals[0] != finals[1]
    assert finals[0] < 1e-10
    assert finals[1] < 2.0


@pytest.mark.parametrize("literal", [False, True], ids=["whitened", "literal-psigma"])
def test_explode_factorises_once(monkeypatch, literal):
    # sampling, Mahalanobis distances and path whitening all reuse the
    # cached eigenpair; the only factorisation is regularize_covariance's
    problem = make_problem("rastrigin", 5, seed=0)
    state = _fresh_state(5, scale=50.0, f0=1e9)
    params = derive_params(12, 5, literal_psigma=literal)
    rng = np.random.default_rng(12)
    explode(state, params, problem, rng)
    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("eigh", "cholesky", "solve"):
        counting(np.linalg, name)
    counting(tfwa.tdist, "solve_triangular")
    explode(state, params, problem, rng)
    assert calls == {"eigh": 1}


def test_cached_eigenpair_tracks_shape():
    problem = make_problem("elliptic", 5, seed=0)
    state = _fresh_state(5, scale=50.0, f0=float(problem.evaluate(np.zeros(5))))
    params = derive_params(12, 5)
    rng = np.random.default_rng(13)
    for _ in range(150):
        explode(state, params, problem, rng)
        rebuilt = (state.eigvecs * state.eigvals) @ state.eigvecs.T
        assert np.linalg.norm(rebuilt - state.shape) <= 1e-10 * np.linalg.norm(state.shape)
    # the loop must have adapted C well away from the identity
    assert state.eigvals[-1] / state.eigvals[0] > 1e3
