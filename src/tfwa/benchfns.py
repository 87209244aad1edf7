"""Shifted and rotated benchmark functions.

Every problem evaluates ``f(z)`` with ``z = R (x - o)`` where ``o`` is a
seeded shift drawn from the centre half of the box and ``R`` a seeded
rotation matrix; the optimum therefore sits at ``x = o`` with value 0.
Rosenbrock internally works on ``z + 1`` so its optimum is also relocated
to the shift.

A kernel takes the rotated (n, d) batch ``z`` that
:meth:`BenchmarkProblem.evaluate_batch` made and owns it: it may overwrite
``z`` and holds at most one other array of that size, so an evaluation never
needs more than two batch-sized arrays and never writes to the caller's
points.  Each kernel applies the same elementwise operations in the same order
as its textbook expression (an in-place ``z *= c`` for ``c * z`` only swaps
commutative IEEE operands), so the values are bit for bit those of that
expression.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import blas

_KERNELS = {}


def _register(name):
    def deco(fn):
        _KERNELS[name] = fn
        return fn

    return deco


@_register("sphere")
def _sphere(z):
    z *= z
    return z.sum(axis=1)


@functools.cache
def _elliptic_coef(d):
    coef = 10.0 ** (6.0 * np.arange(d) / (d - 1))
    # shared by every caller, so nobody may write to it
    coef.flags.writeable = False
    return coef


@_register("elliptic")
def _elliptic(z):
    # (coef * z) * z
    cz = _elliptic_coef(z.shape[1]) * z
    cz *= z
    return cz.sum(axis=1)


@_register("rosenbrock")
def _rosenbrock(z):
    # optimum relocated to z = 0 by working on z + 1:
    # 100 (b - a^2)^2 + (a - 1)^2 with a, b the leading and trailing d - 1
    # coordinates of z + 1
    z += 1.0
    a, b = z[:, :-1], z[:, 1:]
    out = a * a
    np.subtract(b, out, out=out)
    out *= out
    out *= 100.0
    # b is spent, so square a - 1 over the whole of z: contiguous operands
    # keep numpy from allocating iteration buffers
    z -= 1.0
    z *= z
    out += a
    return out.sum(axis=1)


def _cos_2pi(z):
    """cos(2 pi z) as a new array."""
    c = (2.0 * math.pi) * z
    return np.cos(c, out=c)


@_register("ackley")
def _ackley(z):
    d = z.shape[1]
    cosm = _cos_2pi(z).sum(axis=1) / d
    z *= z
    quad = np.sqrt(z.sum(axis=1) / d)
    return -20.0 * np.exp(-0.2 * quad) - np.exp(cosm) + 20.0 + math.e


@_register("rastrigin")
def _rastrigin(z):
    # z^2 - 10 cos(2 pi z) + 10
    c = _cos_2pi(z)
    c *= 10.0
    z *= z
    z -= c
    z += 10.0
    return z.sum(axis=1)


@_register("griewank")
def _griewank(z):
    d = z.shape[1]
    c = z / np.sqrt(np.arange(1, d + 1))
    prod = np.cos(c, out=c).prod(axis=1)
    z *= z
    quad = z.sum(axis=1) / 4000.0
    return quad - prod + 1.0


@_register("lunacek_bi_rastrigin")
def _lunacek_bi_rastrigin(z):
    # Two-funnel construction: a quadratic funnel with its floor at 0 (the
    # relocated optimum), a second funnel with floor d at mu1 - mu0, and a
    # rastrigin ripple on top.  Constants follow the usual two-funnel
    # parameterisation: mu0 = 2.5, depth s = 1 - 1/(2 sqrt(d + 20) - 8.2),
    # mu1 = -sqrt((mu0^2 - 1)/s).
    d = z.shape[1]
    mu0 = 2.5
    s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
    mu1 = -math.sqrt((mu0 * mu0 - 1.0) / s)
    ripple = 10.0 * (d - _cos_2pi(z).sum(axis=1))
    zb = z + (mu0 - mu1)
    zb *= zb
    funnel_b = d + s * zb.sum(axis=1)
    z *= z
    funnel_a = z.sum(axis=1)
    return np.minimum(funnel_a, funnel_b) + ripple


PROBLEM_NAMES = tuple(sorted(_KERNELS))


@dataclass(frozen=True, eq=False)
class BenchmarkProblem:
    """One concrete shifted/rotated problem instance."""

    name: str
    dim: int
    lb: float
    ub: float
    shift: np.ndarray
    rotation: np.ndarray
    f_star: float = 0.0

    def evaluate_batch(self, xs) -> np.ndarray:
        """Evaluate an (n, d) batch of points, returning an (n,) array."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) batch, got {xs.shape}")
        if not np.isfinite(xs).all():
            raise ValueError("evaluation points must be finite")
        # a new array, so the kernel may overwrite it
        z = (xs - self.shift) @ self.rotation.T
        return _KERNELS[self.name](z)

    def evaluate(self, x) -> float:
        """Evaluate a single d-vector."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got {x.shape}")
        return float(self.evaluate_batch(x[None, :])[0])

    def optimum(self):
        """Return ``(x_star, f_star)``; the optimum sits at the shift."""
        return self.shift.copy(), self.f_star


@blas.one_thread()
def _rotation_matrix(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def make_problem(
    name: str,
    dim: int,
    seed: int = 0,
    rotated: bool = True,
    shifted: bool = True,
    lb: float = -100.0,
    ub: float = 100.0,
) -> BenchmarkProblem:
    """Build a deterministic problem instance.

    The same ``(name, dim, seed)`` triple always yields the same shift and
    rotation.  The rotation comes from the QR factorisation of a seeded
    Gaussian matrix with the positive-diagonal sign convention, then the
    determinant is corrected to +1.  Like a run, it is built with OpenBLAS
    held at one thread (:func:`tfwa.blas.one_thread`): from d = 300 the
    factorisation's bits depend on the thread count.  Requires ``dim >= 2``.
    """
    if name not in _KERNELS:
        raise ValueError(
            f"unknown benchmark function {name!r}; available: {', '.join(PROBLEM_NAMES)}"
        )
    if dim < 2:
        raise ValueError(f"benchmark problems require dim >= 2, got {dim}")
    if not lb < ub:
        raise ValueError(f"invalid bounds [{lb}, {ub}]")
    rng = np.random.default_rng([seed, dim, zlib.crc32(name.encode())])
    if shifted:
        quarter = (ub - lb) / 4.0
        shift = rng.uniform(lb + quarter, ub - quarter, size=dim)
    else:
        shift = np.zeros(dim)
    rotation = _rotation_matrix(dim, rng) if rotated else np.eye(dim)
    return BenchmarkProblem(
        name=name, dim=dim, lb=float(lb), ub=float(ub), shift=shift, rotation=rotation
    )
