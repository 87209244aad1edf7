"""Fisher information and natural-gradient weight tests.

The Monte Carlo estimator is the oracle for the closed forms here (and the
closed forms are the oracle for the estimator); tolerances follow the
1/sqrt(n) standard error at the stated draw counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tfwa.natgrad import (
    covariance_natural_gradient,
    fisher_closed_form,
    fisher_monte_carlo,
    fisher_scale_block,
    moment_identity_residuals,
    natgrad_weight,
)
from tfwa.tdist import DF_CAP, TDistribution

# the Gaussian limit approached from below (df 1e8) and at the cap, where df freezes
GAUSSIAN_LIMITS = (1.0e8, DF_CAP)


def _seeded_spd(d, seed, jitter=0.5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


def test_closed_form_bivariate_identity_df6():
    blocks = fisher_closed_form(TDistribution([0.0, 0.0], np.eye(2), 6.0))
    assert np.allclose(blocks.mean_block, 0.8 * np.eye(2), atol=1e-14)
    a, b = blocks.scale_factor_pair
    assert a == pytest.approx(0.4, abs=1e-14)
    assert b == pytest.approx(-0.05, abs=1e-14)


def test_closed_form_univariate():
    # (v + 1) / ((v + 3) sigma^2) with sigma^2 = 4, v = 5
    blocks = fisher_closed_form(TDistribution([0.0], [[4.0]], 5.0))
    assert blocks.mean_block[0, 0] == pytest.approx(0.1875, abs=1e-14)


def test_closed_form_gaussian_limit_unit_scale():
    for df in GAUSSIAN_LIMITS:
        blocks = fisher_closed_form(TDistribution([0.0], [[1.0]], df))
        assert abs(blocks.mean_block[0, 0] - 1.0) < 1e-6, df


@given(
    hst.integers(min_value=1, max_value=4),
    hst.floats(min_value=2.5, max_value=50.0),
    hst.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_coefficient_signs(d, df, seed):
    dist = TDistribution(np.zeros(d), _seeded_spd(d, seed), df)
    blocks = fisher_closed_form(dist)
    a, b = blocks.scale_factor_pair
    assert a > 0 > b
    assert abs(b) < a
    assert np.allclose(blocks.mean_block, blocks.mean_block.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(blocks.mean_block) > 0)


def test_scale_block_univariate_closed_form():
    # reduces to v / (2 (v + 3) sigma^4); sigma^2 = 1, v = 5 gives 5/16
    block = fisher_scale_block(TDistribution([0.0], [[1.0]], 5.0))
    assert block.shape == (1, 1)
    assert block[0, 0] == pytest.approx(0.3125, abs=1e-14)


def test_scale_block_symmetric_positive_definite():
    dist = TDistribution(np.zeros(3), _seeded_spd(3, 11), 7.0)
    block = fisher_scale_block(dist)
    assert block.shape == (6, 6)
    assert np.allclose(block, block.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(block) > 0)


def test_monte_carlo_needs_large_n():
    dist = TDistribution([0.0], [[1.0]], 5.0)
    with pytest.raises(ValueError):
        fisher_monte_carlo(dist, 100, np.random.default_rng(0))


def test_monte_carlo_mean_block_bivariate():
    dist = TDistribution(np.zeros(2), _seeded_spd(2, 7), 6.0)
    est = fisher_monte_carlo(dist, 500_000, np.random.default_rng(7))
    ref = fisher_closed_form(dist).mean_block
    err = np.linalg.norm(est[:2, :2] - ref) / np.linalg.norm(ref)
    assert err < 0.05


def test_monte_carlo_scalar_gaussian_limit():
    dist = TDistribution([0.0], [[1.0]], 1.0e6)
    est = fisher_monte_carlo(dist, 500_000, np.random.default_rng(8))
    assert abs(est[0, 0] - 1.0) < 0.05


def test_monte_carlo_scale_block_trace_structure():
    dist = TDistribution(np.zeros(3), np.eye(3), 5.0)
    est = fisher_monte_carlo(dist, 500_000, np.random.default_rng(9))
    ref = fisher_scale_block(dist)
    err = np.linalg.norm(est[3:, 3:] - ref) / np.linalg.norm(ref)
    assert err < 0.08


def test_monte_carlo_output_is_symmetric():
    dist = TDistribution(np.zeros(2), np.eye(2), 4.0)
    est = fisher_monte_carlo(dist, 20_000, np.random.default_rng(10))
    assert est.shape == (5, 5)
    assert np.allclose(est, est.T, atol=1e-10)


def test_monte_carlo_cross_block_vanishes():
    # location/scale cross terms are zero by elliptical symmetry
    dist = TDistribution(np.zeros(2), _seeded_spd(2, 13), 6.0)
    est = fisher_monte_carlo(dist, 500_000, np.random.default_rng(13))
    diag_magnitude = np.sqrt(np.outer(np.diag(est), np.diag(est)))
    rel = np.abs(est[:2, 2:]) / diag_magnitude[:2, 2:]
    assert np.max(rel) < 0.05


def test_weight_frozen_values():
    assert natgrad_weight(30.0, 30, 5.0) == pytest.approx(37.0 / 35.0, abs=1e-14)
    assert natgrad_weight(0.0, 2, 2.0) == pytest.approx(3.0, abs=1e-14)


def test_weight_scalar_type_and_broadcast():
    w = natgrad_weight(1.0, 3, 5.0)
    assert isinstance(w, float)
    ws = natgrad_weight(np.array([0.0, 1.0, 2.0]), 3, 5.0)
    assert ws.shape == (3,)
    assert np.all(np.diff(ws) < 0)


def test_weight_gaussian_limit_is_one():
    assert abs(natgrad_weight(10.0, 10, 1e10) - 1.0) < 1e-6


@given(
    hst.floats(min_value=0.0, max_value=500.0),
    hst.floats(min_value=0.1, max_value=400.0),
    hst.integers(min_value=1, max_value=100),
    hst.floats(min_value=0.5, max_value=1e6),
)
@settings(max_examples=60, deadline=None)
def test_weight_positive_and_decreasing(s, ds, dim, df):
    w0 = natgrad_weight(s, dim, df)
    w1 = natgrad_weight(s + ds, dim, df)
    assert w0 > 0
    assert w1 < w0


def test_covariance_gradient_gaussian_reduction():
    # points with s = dim make the heavy-tail factor drop out exactly
    d = 3
    scale = _seeded_spd(d, 21)
    chol = np.linalg.cholesky(scale)
    for df in GAUSSIAN_LIMITS:
        dist = TDistribution(np.zeros(d), scale, df)
        rng = np.random.default_rng(21)
        for _ in range(5):
            e = rng.normal(size=d)
            e /= np.linalg.norm(e)
            x = chol @ e * np.sqrt(d)
            assert dist.mahalanobis(x) == pytest.approx(d, rel=1e-12)
            grad = covariance_natural_gradient(dist, x)
            target = np.outer(x, x) - scale
            assert np.linalg.norm(grad - target) <= 1e-6 * max(1.0, np.linalg.norm(target)), df


def test_moment_identities_isotropic():
    dist = TDistribution(np.zeros(3), np.eye(3), 5.0)
    r1, r2 = moment_identity_residuals(dist, 1_000_000, np.random.default_rng(31))
    assert r1 < 0.02
    assert r2 < 0.02


def test_moment_identities_near_gaussian():
    dist = TDistribution([0.0], [[1.0]], 1.0e6)
    r1, r2 = moment_identity_residuals(dist, 1_000_000, np.random.default_rng(32))
    assert r1 < 0.02
    assert r2 < 0.02


def test_moment_identities_anisotropic_df3():
    dist = TDistribution(np.zeros(2), np.diag([4.0, 1.0]), 3.0)
    r1, r2 = moment_identity_residuals(dist, 1_000_000, np.random.default_rng(33))
    assert r1 < 0.03
    assert r2 < 0.03
