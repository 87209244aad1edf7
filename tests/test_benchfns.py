"""Benchmark suite: instance seeding, optima, rotations, known values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tfwa.benchfns import _KERNELS, PROBLEM_NAMES, make_problem

ALL_NAMES = sorted(PROBLEM_NAMES)


def test_roster():
    assert set(PROBLEM_NAMES) == {
        "sphere",
        "elliptic",
        "rosenbrock",
        "ackley",
        "rastrigin",
        "griewank",
        "lunacek_bi_rastrigin",
    }


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_problem("banana", 5)


def test_dim_one_rejected():
    with pytest.raises(ValueError):
        make_problem("sphere", 1)


def test_instances_deterministic():
    a = make_problem("rastrigin", 12, seed=5)
    b = make_problem("rastrigin", 12, seed=5)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)
    c = make_problem("rastrigin", 12, seed=6)
    assert not np.array_equal(a.shift, c.shift)


def test_different_functions_get_different_instances():
    a = make_problem("sphere", 8, seed=0)
    b = make_problem("ackley", 8, seed=0)
    assert not np.array_equal(a.shift, b.shift)


@pytest.mark.parametrize("seed", range(5))
def test_rotation_orthogonal_dim30(seed):
    problem = make_problem("sphere", 30, seed=seed)
    r = problem.rotation
    assert np.max(np.abs(r.T @ r - np.eye(30))) < 1e-10
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-8)


def test_shift_interior():
    for name in ALL_NAMES:
        problem = make_problem(name, 10, seed=3)
        assert np.all(problem.shift >= -50.0)
        assert np.all(problem.shift <= 50.0)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("dim", [2, 10, 30])
def test_optimum_value(name, dim):
    problem = make_problem(name, dim, seed=1)
    x_star, f_star = problem.optimum()
    assert f_star == 0.0
    assert np.array_equal(x_star, problem.shift)
    assert abs(problem.evaluate(x_star)) <= 1e-12


@pytest.mark.parametrize("name", ["sphere", "elliptic", "rastrigin"])
def test_optimum_is_strict(name):
    problem = make_problem(name, 6, seed=2)
    x_star, _ = problem.optimum()
    bump = x_star.copy()
    bump[0] += 1e-3
    assert problem.evaluate(bump) > 0.0


def test_sphere_plain_values():
    problem = make_problem("sphere", 3, seed=0, rotated=False, shifted=False)
    assert problem.evaluate(np.zeros(3)) == 0.0
    assert problem.evaluate(np.array([1.0, 2.0, 2.0])) == pytest.approx(9.0, abs=1e-12)


def test_rastrigin_plain_origin():
    problem = make_problem("rastrigin", 4, seed=0, rotated=False, shifted=False)
    assert abs(problem.evaluate(np.zeros(4))) < 1e-12


def test_ackley_plain_origin():
    problem = make_problem("ackley", 5, seed=0, rotated=False, shifted=False)
    assert abs(problem.evaluate(np.zeros(5))) < 1e-12


def test_griewank_plain_values():
    problem = make_problem("griewank", 2, seed=0, rotated=False, shifted=False)
    assert abs(problem.evaluate(np.zeros(2))) < 1e-12
    # at z = (pi, 0): 1 + pi^2/4000 - cos(pi) * cos(0) = 2 + pi^2/4000
    expected = 2.0 + np.pi**2 / 4000.0
    assert problem.evaluate(np.array([np.pi, 0.0])) == pytest.approx(expected, abs=1e-12)


def test_rosenbrock_plain_values():
    problem = make_problem("rosenbrock", 2, seed=0, rotated=False, shifted=False)
    # optimum relocated to the origin; the classic (0,0) valley point maps
    # to x = (-1,-1) and keeps its value 1
    assert abs(problem.evaluate(np.zeros(2))) < 1e-12
    assert problem.evaluate(np.array([-1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)


def test_elliptic_conditioning():
    problem = make_problem("elliptic", 5, seed=0, rotated=False, shifted=False)
    e_first = np.zeros(5)
    e_first[0] = 1.0
    e_last = np.zeros(5)
    e_last[-1] = 1.0
    ratio = problem.evaluate(e_last) / problem.evaluate(e_first)
    assert ratio == pytest.approx(1e6, rel=1e-12)


def test_lunacek_two_funnels():
    problem = make_problem("lunacek_bi_rastrigin", 4, seed=0, rotated=False, shifted=False)
    assert abs(problem.evaluate(np.zeros(4))) < 1e-12
    # the second funnel is a strictly positive local optimum
    rng = np.random.default_rng(0)
    assert min(problem.evaluate(rng.uniform(-5, 5, 4)) for _ in range(50)) > 0.0


def test_sphere_rotation_invariance():
    plain = make_problem("sphere", 7, seed=4, rotated=False)
    rotated = make_problem("sphere", 7, seed=4, rotated=True)
    assert np.array_equal(plain.shift, rotated.shift)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-100, 100, 7)
        a, b = plain.evaluate(x), rotated.evaluate(x)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_batch_matches_scalar():
    # gemm vs gemv rounding keeps these from being bit-identical
    for name in ALL_NAMES:
        problem = make_problem(name, 4, seed=5)
        xs = np.random.default_rng(2).uniform(-100, 100, size=(6, 4))
        batch = problem.evaluate_batch(xs)
        singles = np.array([problem.evaluate(x) for x in xs])
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)


def test_evaluation_bit_identical():
    problem = make_problem("ackley", 6, seed=6)
    x = np.random.default_rng(3).uniform(-100, 100, 6)
    assert problem.evaluate(x) == problem.evaluate(x.copy())


def test_non_finite_input_rejected():
    problem = make_problem("sphere", 3, seed=0)
    with pytest.raises(ValueError):
        problem.evaluate(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        problem.evaluate(np.array([np.inf, 0.0, 0.0]))


def test_wrong_length_rejected():
    problem = make_problem("sphere", 3, seed=0)
    with pytest.raises(ValueError):
        problem.evaluate(np.zeros(4))


@given(
    hst.sampled_from(ALL_NAMES),
    hst.lists(hst.floats(min_value=-100, max_value=100), min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_values_finite_and_non_negative(name, coords):
    problem = make_problem(name, 5, seed=9)
    value = problem.evaluate(np.array(coords))
    assert np.isfinite(value)
    assert value >= 0.0


# Each kernel as the one expression that allocates all its temporaries; the
# in-place kernels must give these bits.


def _sphere_reference(z):
    return (z * z).sum(axis=1)


def _elliptic_reference(z):
    coef = 10.0 ** (6.0 * np.arange(z.shape[1]) / (z.shape[1] - 1))
    return (coef * z * z).sum(axis=1)


def _rosenbrock_reference(z):
    zr = z + 1.0
    a, b = zr[:, :-1], zr[:, 1:]
    return (100.0 * (b - a * a) ** 2 + (a - 1.0) ** 2).sum(axis=1)


def _ackley_reference(z):
    d = z.shape[1]
    quad = np.sqrt((z * z).sum(axis=1) / d)
    cosm = np.cos(2.0 * math.pi * z).sum(axis=1) / d
    return -20.0 * np.exp(-0.2 * quad) - np.exp(cosm) + 20.0 + math.e


def _rastrigin_reference(z):
    return (z * z - 10.0 * np.cos(2.0 * math.pi * z) + 10.0).sum(axis=1)


def _griewank_reference(z):
    d = z.shape[1]
    quad = (z * z).sum(axis=1) / 4000.0
    prod = np.cos(z / np.sqrt(np.arange(1, d + 1))).prod(axis=1)
    return quad - prod + 1.0


def _lunacek_bi_rastrigin_reference(z):
    d = z.shape[1]
    mu0 = 2.5
    s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
    mu1 = -math.sqrt((mu0 * mu0 - 1.0) / s)
    funnel_a = (z * z).sum(axis=1)
    funnel_b = d + s * ((z + (mu0 - mu1)) ** 2).sum(axis=1)
    ripple = 10.0 * (d - np.cos(2.0 * math.pi * z).sum(axis=1))
    return np.minimum(funnel_a, funnel_b) + ripple


_REFERENCE = {
    "sphere": _sphere_reference,
    "elliptic": _elliptic_reference,
    "rosenbrock": _rosenbrock_reference,
    "ackley": _ackley_reference,
    "rastrigin": _rastrigin_reference,
    "griewank": _griewank_reference,
    "lunacek_bi_rastrigin": _lunacek_bi_rastrigin_reference,
}


@pytest.mark.parametrize("dim", [2, 3, 10, 100])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_in_place_kernel_matches_reference_bits(name, dim):
    rng = np.random.default_rng(dim)
    for magnitude in (1e-3, 1e-1, 1.0, 10.0, 1e2, 1e4, 1e6):
        z = magnitude * rng.standard_normal((64, dim))
        expected = _REFERENCE[name](z)
        got = _KERNELS[name](z.copy())
        assert got.dtype == np.float64 and got.shape == (64,)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), magnitude


@pytest.mark.parametrize("name", ALL_NAMES)
def test_evaluation_leaves_the_callers_points(name):
    # the kernels overwrite the rotated batch, never the points it came from
    problem = make_problem(name, 10, seed=4)
    xs = np.random.default_rng(4).uniform(-100, 100, size=(20, 10))
    before = xs.tobytes()
    problem.evaluate_batch(xs)
    assert xs.tobytes() == before
    x = xs[3]
    problem.evaluate(x)
    assert xs.tobytes() == before
