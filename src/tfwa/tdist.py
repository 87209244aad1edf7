"""Multivariate Student's t distribution.

The distribution is parameterised by a location vector ``mean``, a positive
definite scale matrix ``scale`` and the degrees of freedom ``df``.  The scale
matrix is *not* the covariance: the covariance is ``df / (df - 2) * scale``
and only exists for ``df > 2``.  As ``df`` grows the distribution approaches
a Gaussian with covariance ``scale``; ``df = 1`` is the multivariate Cauchy.

Sampling uses the classic normal / chi-squared compound representation

    x = mean + A z * sqrt(df / u),  z ~ N(0, I),  u ~ chi2(df),

where ``A`` is any factor with ``A A' = scale``: :class:`TDistribution`
uses the lower Cholesky factor, the explosion operator the eigen-basis
factor ``B D`` it already holds.  The squared Mahalanobis distance of such a
draw is ``|z|^2 * df / u`` whatever the factor, so :func:`t_draws` returns it
without a solve.  ``DF_CAP`` is the Gaussian limit: the optimiser never
grows df past it, and at it the sampler draws no mixing variables and takes
the plain Gaussian branch.

The module needs numpy alone.  :meth:`TDistribution.mahalanobis` and
:meth:`TDistribution.scale_inverse` solve with the Cholesky factor through
:func:`solve_triangular`, numpy's general solve: numpy has no triangular
one, and only the validation layer (Fisher blocks, moment identities)
reaches these solves, not a run.  The log-density's normalising constant is
summed as ``log1p`` terms, so it keeps its digits as df grows without bound.
"""

from __future__ import annotations

import math

import numpy as np

# The Gaussian limit of the degrees of freedom.  Here the chi-squared mixing
# factor sqrt(df / u) has a standard deviation of about 2e-5 around 1, far
# below sampling noise at any feasible sample size, so the Gaussian branch is
# statistically indistinguishable from the compound one.
DF_CAP = float(2**30)

_SYMMETRY_TOL = 1e-10

# The half step lgamma(a + 1/2) - lgamma(a) - log(a) / 2 comes from
# math.lgamma below this a, and above it from its asymptotic series, whose
# first term left out, 31 / (18432 a^9), is below 1e-16 there.
_HALF_STEP_SERIES_A = 30.0


def solve_triangular(lower, b):
    """Solve ``lower @ x = b`` for the lower triangular ``lower``.

    numpy has no triangular solver, so this is its general LU solve.
    """
    return np.linalg.solve(lower, b)


def _log_gamma_ratio(a, d):
    """``lgamma(a + d/2) - lgamma(a) - (d/2) log(a)`` without cancellation.

    Each whole step adds ``log1p((k + offset) / a)``, and an odd ``d`` adds
    the half step; the sum tends to 0 as ``a`` grows.
    """
    offset = 0.5 * (d % 2)
    terms = [math.log1p((k + offset) / a) for k in range(d // 2)]
    if d % 2 and a < _HALF_STEP_SERIES_A:
        terms.append(math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(a))
    elif d % 2:
        r = 1.0 / (a * a)
        terms.append((-1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * 17 / 14336))) / a)
    return math.fsum(terms)


def t_draws(factor, df, n, rng):
    """Draw ``n`` centred t vectors with scale ``factor @ factor.T``.

    Returns ``(y, s)``: the (n, d) draws and their (n,) squared Mahalanobis
    distances under that scale, ``|z|^2 * df / u``.  ``rng`` is a
    ``numpy.random.Generator``; the normal block is drawn before the
    chi-squared mixing variables, which are skipped at or above
    ``DF_CAP``.
    """
    z = rng.standard_normal((n, factor.shape[1]))
    y = z @ factor.T
    s = np.einsum("ij,ij->i", z, z)
    if df < DF_CAP:
        mix = df / rng.chisquare(df, size=n)
        y *= np.sqrt(mix)[:, None]
        s *= mix
    return y, s


class TDistribution:
    """Frozen multivariate Student's t distribution.

    Parameters
    ----------
    mean : array_like, shape (d,)
        Location vector.
    scale : array_like, shape (d, d)
        Symmetric positive definite scale matrix.
    df : float
        Degrees of freedom, must be positive and finite.

    Raises
    ------
    ValueError
        If ``scale`` is not symmetric within tolerance, not positive
        definite, or if ``df`` is not positive and finite.

    Notes
    -----
    The Cholesky factor of ``scale`` is computed once at construction and
    reused by :meth:`sample`, :meth:`log_density` and :meth:`mahalanobis`.
    Instances hold no random state; treat them as immutable.
    """

    def __init__(self, mean, scale, df):
        mean = np.asarray(mean, dtype=float)
        scale = np.asarray(scale, dtype=float)
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError("mean must be a non-empty vector")
        d = mean.shape[0]
        if scale.shape != (d, d):
            raise ValueError(
                f"scale must have shape ({d}, {d}) to match mean, got {scale.shape}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(scale)):
            raise ValueError("mean and scale must be finite")
        if not (0 < df < math.inf):
            raise ValueError(f"degrees of freedom must be positive and finite, got {df}")
        asym = float(np.max(np.abs(scale - scale.T)))
        if asym > _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(scale)))):
            raise ValueError(
                f"scale matrix is not symmetric (max asymmetry {asym:.3e})"
            )
        scale = 0.5 * (scale + scale.T)
        try:
            chol = np.linalg.cholesky(scale)
        except np.linalg.LinAlgError as exc:
            raise ValueError("scale matrix is not positive definite") from exc
        self.mean = mean
        self.scale = scale
        self.df = float(df)
        self.dim = d
        self.chol = chol
        self._log_det_scale = 2.0 * float(np.sum(np.log(np.diag(chol))))

    def sample(self, n, rng):
        """Draw ``n`` independent vectors, shape (n, d).

        ``rng`` is a ``numpy.random.Generator``; identical generator states
        produce identical draws.
        """
        if n < 1:
            raise ValueError("need at least one draw")
        y, _ = t_draws(self.chol, self.df, n, rng)
        return self.mean + y

    def mahalanobis(self, x):
        """Squared Mahalanobis distance (x - mean)' scale^{-1} (x - mean).

        Accepts a single d-vector (returns a float) or an (n, d) batch of
        rows (returns an (n,) array).
        """
        x = np.asarray(x, dtype=float)
        dev = np.atleast_2d(x) - self.mean
        w = solve_triangular(self.chol, dev.T)
        s = np.einsum("ij,ij->j", w, w)
        return float(s[0]) if x.ndim == 1 else s

    def log_density(self, x):
        """Log of the density at ``x``.

        The normalising constant is the Gaussian one plus
        :func:`_log_gamma_ratio` at ``a = df / 2``, which keeps full
        precision for any finite ``df`` and tends to 0 in the Gaussian limit.
        """
        s = self.mahalanobis(np.asarray(x, dtype=float))
        v, d = self.df, self.dim
        const = (
            _log_gamma_ratio(0.5 * v, d)
            - 0.5 * d * math.log(2.0 * math.pi)
            - 0.5 * self._log_det_scale
        )
        return const - 0.5 * (d + v) * np.log1p(s / v)

    def scale_inverse(self):
        """Inverse of the scale matrix, solved through the Cholesky factor."""
        inv_l = solve_triangular(self.chol, np.eye(self.dim))
        return inv_l.T @ inv_l

    def moments(self):
        """Return ``(mean, covariance)``.

        The covariance is ``df / (df - 2) * scale`` for ``df > 2`` and
        ``None`` otherwise (the second moment does not exist).
        """
        if self.df > 2:
            return self.mean.copy(), (self.df / (self.df - 2.0)) * self.scale
        return self.mean.copy(), None

    def __repr__(self):
        return f"TDistribution(dim={self.dim}, df={self.df})"
