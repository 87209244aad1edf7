"""Unit and property tests for the multivariate t distribution."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from tfwa.tdist import DF_CAP, TDistribution, t_draws


def test_identity_construction():
    dist = TDistribution([0.0, 0.0], np.eye(2), 5.0)
    assert dist.dim == 2
    assert dist.df == 5.0
    assert np.array_equal(dist.scale, np.eye(2))


def test_not_positive_definite_rejected():
    with pytest.raises(ValueError):
        TDistribution([0.0], [[-1.0]], 5.0)


def test_zero_df_rejected():
    with pytest.raises(ValueError):
        TDistribution([0.0, 0.0], np.eye(2), 0.0)


def test_negative_df_rejected():
    with pytest.raises(ValueError):
        TDistribution([0.0], [[1.0]], -3.0)


@pytest.mark.parametrize("df", [math.inf, math.nan])
def test_non_finite_df_rejected(df):
    with pytest.raises(ValueError):
        TDistribution([0.0], [[1.0]], df)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        TDistribution([0.0, 0.0, 0.0], np.eye(2), 5.0)


def test_asymmetric_scale_rejected():
    scale = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(ValueError):
        TDistribution([0.0, 0.0], scale, 5.0)


def test_tiny_asymmetry_symmetrised():
    scale = np.array([[1.0, 0.3 + 1e-13], [0.3, 1.0]])
    dist = TDistribution([0.0, 0.0], scale, 5.0)
    assert np.array_equal(dist.scale, dist.scale.T)


def test_non_finite_scale_rejected():
    scale = np.array([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(ValueError):
        TDistribution([0.0, 0.0], scale, 5.0)


# frozen reference values: ln(1/pi), ln(1/sqrt(2 pi)), ln(1/(2 pi))
CAUCHY_AT_ZERO = -1.1447298858494002
GAUSS_AT_ZERO = -0.9189385332046727

# the Gaussian limit approached from below (df 1e8) and at the cap, where df freezes
GAUSSIAN_LIMITS = (1.0e8, DF_CAP)
BIVARIATE_DF2_AT_ZERO = -1.8378770664093453


def test_log_density_cauchy_at_zero():
    dist = TDistribution([0.0], [[1.0]], 1.0)
    assert math.isclose(dist.log_density([0.0]), CAUCHY_AT_ZERO, abs_tol=1e-12)


def test_log_density_gaussian_limit_at_zero():
    for df in GAUSSIAN_LIMITS:
        dist = TDistribution([0.0], [[1.0]], df)
        assert math.isclose(dist.log_density([0.0]), GAUSS_AT_ZERO, abs_tol=1e-6), df


def test_log_density_bivariate_df2_at_zero():
    dist = TDistribution([0.0, 0.0], np.eye(2), 2.0)
    assert math.isclose(dist.log_density([0.0, 0.0]), BIVARIATE_DF2_AT_ZERO, abs_tol=1e-12)


# log-density at the mean under an identity scale, lgamma(a + d/2) - lgamma(a)
# - (d/2) log(2 pi a) with a = df/2, frozen from mpmath at 800 digits: at
# df = 1e300 both lgamma terms hold about 300 digits before the point
LOG_DENSITY_DFS = (2.5, 5.0, 1e4, 1e8, DF_CAP, 1e15, 1e300)
LOG_DENSITY_AT_MEAN = {
    1: (-1.01663959346045, -0.9686195890547241, -0.9189635332046311, -0.9189385357046728,
        -0.9189385334375034, -0.918938533204673, -0.9189385332046728),
    2: (-1.8378770664093456, -1.8378770664093456, -1.8378770664093456, -1.8378770664093456,
        -1.8378770664093456, -1.8378770664093456, -1.8378770664093456),
    3: (-2.5180444232485826, -2.624175098670115, -2.7567406046136433, -2.7568155921140183,
        -2.756815598915526, -2.7568155996140176, -2.756815599614018),
    10: (-4.987227265205734, -6.521157625131689, -9.187385931780202, -9.189385132046734,
         -9.189385313420276, -9.189385332046708, -9.189385332046728),
    30: (-2.2305080245295756, -9.516084948778078, -27.54717626679116, -27.568153896140384,
         -27.568155800562444, -27.56815599613997, -27.56815599614018),
}


@pytest.mark.parametrize("d", sorted(LOG_DENSITY_AT_MEAN))
def test_log_density_constant_keeps_its_digits_as_df_grows(d):
    # lgamma(a + d/2) and lgamma(a) both grow as a log a, so their plain
    # difference loses the constant's digits long before df reaches 1e300
    for df, expected in zip(LOG_DENSITY_DFS, LOG_DENSITY_AT_MEAN[d]):
        got = TDistribution(np.zeros(d), np.eye(d), df).log_density(np.zeros(d))
        assert math.isclose(got, expected, abs_tol=1e-12), (df, got, expected)


def test_log_density_matches_external_univariate():
    # frozen from scipy.stats.t(df=3, loc=1, scale=2).logpdf(2.0)
    dist = TDistribution([1.0], [[4.0]], 3.0)
    assert math.isclose(dist.log_density([2.0]), -1.8541214455305277, abs_tol=1e-10)


def test_log_density_matches_external_bivariate():
    # frozen from scipy.stats.multivariate_t(loc, shape, df=7).logpdf
    mean = np.array([1.0, -2.0])
    scale = np.array([[2.0, 0.3], [0.3, 1.0]])
    dist = TDistribution(mean, scale, 7.0)
    assert math.isclose(dist.log_density([0.0, 0.0]), -4.712754653692459, abs_tol=1e-10)
    assert math.isclose(dist.log_density([3.0, 1.0]), -6.056219444692694, abs_tol=1e-10)


def test_log_density_batch_matches_scalar():
    dist = TDistribution([0.5, -0.5], np.diag([2.0, 0.5]), 4.0)
    xs = np.array([[0.0, 0.0], [1.0, 1.0], [-3.0, 2.0]])
    batch = dist.log_density(xs)
    singles = [dist.log_density(x) for x in xs]
    assert np.allclose(batch, singles, atol=1e-14)


def test_density_integrates_to_one_1d():
    grid = np.linspace(-100.0, 100.0, 400_001)
    for df in (3.0, 5.0, 30.0):
        dist = TDistribution([0.0], [[1.0]], df)
        pdf = np.exp(dist.log_density(grid[:, None]))
        mass = np.trapezoid(pdf, grid)
        assert abs(mass - 1.0) < 1e-4


def test_mahalanobis_identity_scale():
    dist = TDistribution([0.0, 0.0], np.eye(2), 5.0)
    assert dist.mahalanobis([3.0, 4.0]) == pytest.approx(25.0, abs=1e-12)


def test_mahalanobis_at_mean_is_zero():
    dist = TDistribution([1.0, 2.0, 3.0], np.eye(3) * 2.0, 5.0)
    assert dist.mahalanobis([1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-14)


def test_mahalanobis_anisotropic():
    dist = TDistribution([0.0, 0.0], np.diag([4.0, 1.0]), 5.0)
    assert dist.mahalanobis([2.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_mahalanobis_batch_shape():
    dist = TDistribution([0.0, 0.0], np.eye(2), 5.0)
    xs = np.array([[3.0, 4.0], [0.0, 0.0]])
    s = dist.mahalanobis(xs)
    assert s.shape == (2,)
    assert np.allclose(s, [25.0, 0.0], atol=1e-12)


def test_mahalanobis_rotation_invariant():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    scale = a @ a.T + 0.5 * np.eye(3)
    mean = rng.normal(size=3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    dist = TDistribution(mean, scale, 6.0)
    rotated = TDistribution(q @ mean, q @ scale @ q.T, 6.0)
    for _ in range(5):
        x = rng.normal(size=3) * 4.0
        assert abs(dist.mahalanobis(x) - rotated.mahalanobis(q @ x)) < 1e-10


def test_moments_df5():
    dist = TDistribution([0.0, 0.0], np.eye(2), 5.0)
    mean, cov = dist.moments()
    assert np.array_equal(mean, [0.0, 0.0])
    assert np.allclose(cov, (5.0 / 3.0) * np.eye(2), atol=1e-14)


def test_moments_df2_undefined():
    _, cov = TDistribution([0.0], [[3.0]], 2.0).moments()
    assert cov is None


def test_moments_near_gaussian():
    s = np.array([[2.0, 0.4], [0.4, 1.0]])
    _, cov = TDistribution([0.0, 0.0], s, 1.0e6).moments()
    assert np.max(np.abs(cov - s)) / np.max(np.abs(s)) < 1e-5


def test_sample_shape_and_determinism():
    dist = TDistribution([1.0, -1.0], np.eye(2), 5.0)
    a = dist.sample(100, np.random.default_rng(42))
    b = dist.sample(100, np.random.default_rng(42))
    assert a.shape == (100, 2)
    assert np.array_equal(a, b)


# frozen draws, seed 2024: sampling must stay on the same generator stream
PIN_SCALE = np.array([[2.0, 0.6, -0.3], [0.6, 1.5, 0.2], [-0.3, 0.2, 0.8]])
PIN_DRAWS = {
    3.0: [
        [2.158470431882182, -0.15051410514655061, 1.415306834484896],
        [0.19804409239158127, -3.1730211735910534, 0.4479953753689673],
    ],
    DF_CAP: [
        [2.455023344883565, 0.32292951031340733, 1.6496131236972698],
        [-0.376283669407808, -4.013090582370567, 0.4107518070079218],
    ],
}


@pytest.mark.parametrize("df", sorted(PIN_DRAWS))
def test_sample_pinned_values(df):
    dist = TDistribution([1.0, -2.0, 0.5], PIN_SCALE, df)
    x = dist.sample(2, np.random.default_rng(2024))
    assert np.allclose(x, PIN_DRAWS[df], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("df", [3.0, 1.0e7, DF_CAP])
def test_t_draws_distance_matches_mahalanobis(df):
    # the eigen-basis factor B D reproduces the scale, and |z|^2 df/u is the
    # distance the Cholesky solve computes
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4))
    scale = a @ a.T + 0.5 * np.eye(4)
    vals, vecs = np.linalg.eigh(scale)
    y, s = t_draws(vecs * np.sqrt(vals), df, 500, rng)
    assert y.shape == (500, 4) and s.shape == (500,)
    ref = TDistribution(np.zeros(4), scale, df).mahalanobis(y)
    assert np.allclose(s, ref, rtol=1e-10, atol=0.0)


def test_sample_covariance_df5():
    dist = TDistribution([0.0, 0.0], np.eye(2), 5.0)
    x = dist.sample(1_000_000, np.random.default_rng(0))
    cov = np.cov(x.T)
    target = 5.0 / 3.0
    assert np.allclose(cov, target * np.eye(2), atol=0.03 * target)


def test_sample_gaussian_limit_ks():
    for df in GAUSSIAN_LIMITS:
        dist = TDistribution([0.0, 0.0, 0.0], np.eye(3), df)
        x = dist.sample(10_000, np.random.default_rng(0))
        for j in range(3):
            assert st.kstest(x[:, j], "norm").pvalue > 0.01, df


def test_sample_cauchy_tail_frequency():
    # exact standard Cauchy tail: 1 - (2/pi) arctan(5)
    dist = TDistribution([0.0], [[1.0]], 1.0)
    x = dist.sample(1_000_000, np.random.default_rng(2))
    freq = np.mean(np.abs(x) > 5.0)
    assert abs(freq - 0.12566591637800228) < 0.002


def test_tail_ordering_heavy_vs_light():
    n = 10_000_000
    heavy = TDistribution([0.0], [[1.0]], 1.0).sample(n, np.random.default_rng(3))
    p_heavy = np.mean(np.abs(heavy) > 5.0)
    for df in GAUSSIAN_LIMITS:
        light = TDistribution([0.0], [[1.0]], df).sample(n, np.random.default_rng(4))
        p_light = max(np.mean(np.abs(light) > 5.0), 1.0 / n)
        assert p_heavy / p_light > 1e4, df


def test_gaussian_shortcut_agrees_with_compound():
    # the compound draw just below the Gaussian limit and the plain Gaussian
    # draw at it must agree
    below = TDistribution([0.0], [[1.0]], DF_CAP * 0.99)
    above = TDistribution([0.0], [[1.0]], DF_CAP)
    xa = below.sample(20_000, np.random.default_rng(5)).ravel()
    xb = above.sample(20_000, np.random.default_rng(6)).ravel()
    assert st.ks_2samp(xa, xb).pvalue > 0.01


def test_sample_mean_location():
    dist = TDistribution([5.0, -3.0], np.eye(2) * 0.25, 8.0)
    x = dist.sample(200_000, np.random.default_rng(7))
    assert np.allclose(x.mean(axis=0), [5.0, -3.0], atol=0.02)


@given(hst.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sample_deterministic_for_any_seed(seed):
    dist = TDistribution([0.0, 0.0], np.eye(2), 4.0)
    a = dist.sample(8, np.random.default_rng(seed))
    b = dist.sample(8, np.random.default_rng(seed))
    assert np.array_equal(a, b)


@given(
    hst.lists(hst.floats(min_value=-50, max_value=50), min_size=2, max_size=2),
    hst.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_mahalanobis_non_negative(x, df):
    dist = TDistribution([0.0, 0.0], np.array([[2.0, 0.5], [0.5, 1.0]]), df)
    assert dist.mahalanobis(np.array(x)) >= 0.0


@given(
    hst.integers(min_value=1, max_value=12),
    hst.floats(min_value=0.0, max_value=8.0),
    hst.integers(min_value=0, max_value=2**32 - 1),
    hst.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_numpy_solves_match_scipy_triangular_solve(d, log_spread, seed, batch):
    # the Cholesky solves take numpy's general solve; scipy's triangular one
    # is the oracle, within 64 kappa ulps at condition numbers up to 1e8
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vals = 10.0 ** np.concatenate([[0.0, log_spread], rng.uniform(0.0, log_spread, d)])[:d]
    kappa = vals.max() / vals.min()
    tol = 64.0 * kappa * 2.0**-52
    dist = TDistribution(rng.normal(size=d), (q * vals) @ q.T, 5.0)
    x = dist.mean + rng.normal(size=(5, d) if batch else d) * np.sqrt(vals.max())
    w = scipy.linalg.solve_triangular(dist.chol, np.atleast_2d(x - dist.mean).T, lower=True)
    ref = np.einsum("ij,ij->j", w, w)
    got = np.atleast_1d(dist.mahalanobis(x))
    assert np.all(np.abs(got - ref) <= tol * ref)
    assert np.max(np.abs(dist.scale_inverse() @ dist.scale - np.eye(d))) <= tol
