"""Single-firework explosion generation.

One explosion draws a population of sparks from a t distribution centred on
the firework, ranks them by fitness, fuses logarithmic rank weights with the
per-spark natural-gradient weights, and recombines: the mean moves to the
fused weighted average, the shape matrix gets rank-one (evolution path) and
rank-mu (weighted spark) updates, the global step size follows cumulative
path length control, and the degrees of freedom grow whenever the generation
improved on the previous one, so the sampler anneals from heavy tails toward
a Gaussian.

Every use of the shape matrix C = B D^2 B' goes through its eigenpair, which
the firework caches: sparks are ``B D z`` scaled by the t mixing factor,
their squared Mahalanobis distance is ``|z|^2`` times that factor squared,
and the step-size path is whitened by ``C^{-1/2} = B D^{-1} B'`` (Hansen, "The
CMA Evolution Strategy: A Tutorial", arXiv:1604.00772).  The one
eigendecomposition per generation is the one :func:`regularize_covariance`
makes anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .natgrad import natgrad_weight
from .tdist import DF_CAP, t_draws


class DegenerateStateError(RuntimeError):
    """Adaptive state can no longer produce a valid sampling distribution.

    Raised when the shape matrix or step size collapses to something that
    cannot be factorised.  Callers restart the firework.  When the failure
    happens after the sparks were already evaluated, the evaluated positions
    and fitnesses ride along, sorted best first as :func:`explode` returns
    them, so the caller can keep its bookkeeping exact.  A swarm cell keeps
    copies of the best spark and its fitness, not the error, since its
    traceback pins :func:`explode`'s frame and its spark-sized arrays.
    """

    def __init__(self, message, sparks=None, fitnesses=None):
        super().__init__(message)
        self.sparks = sparks
        self.fitnesses = fitnesses


@dataclass
class FireworkState:
    """Mutable per-firework adaptive state.

    ``shape`` is the correlation-structure matrix C of the sampling
    distribution T(mean, scale^2 C, df); ``scale`` is the scalar step size.
    ``path_c`` and ``path_s`` are the shape and step-size evolution paths.
    ``last_gen_best`` is the best spark fitness of the most recent
    generation (the initial mean fitness right after a (re)start),
    ``gen_improvement`` the raw decrease of that value in the most recent
    generation (may be negative), and ``improvement`` the last accepted
    improvement used by the loser-out tournament.  ``gen_count`` counts
    generations since the last (re)start.  ``eigvals`` and ``eigvecs`` are
    the eigenpair of ``shape``; construction computes it unless both are
    given, and :func:`explode` rewrites it together with ``shape``.  ``rng``
    is the firework's own generator, which a run's driver hands to
    :func:`explode` and to the firework's restarts.
    """

    mean: np.ndarray
    shape: np.ndarray
    df: float
    df_factor: float
    path_c: np.ndarray
    path_s: np.ndarray
    scale: float
    last_gen_best: float
    best_fitness: float
    improvement: float = 0.0
    gen_improvement: float = 0.0
    gen_count: int = 0
    eigvals: np.ndarray | None = field(default=None, repr=False)
    eigvecs: np.ndarray | None = field(default=None, repr=False)
    rng: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.eigvals is None or self.eigvecs is None:
            self.eigvals, self.eigvecs = np.linalg.eigh(self.shape)


@dataclass(frozen=True)
class StrategyParams:
    """Strategy constants, fixed by the population size and dimension.

    See :func:`derive_params`; ``mu`` counts the positive rank weights,
    which lead ``raw_weights``.  An instance holds no per-firework state, so
    one serves every firework of a run; the rates that depend on a
    firework's state are computed in :func:`update`.
    """

    lam: int
    dim: int
    raw_weights: np.ndarray
    mu: int
    mu_eff: float
    c_c: float
    c_s: float
    c_1: float
    c_mu: float
    literal_psigma: bool = False


def rank_weights(lam: int) -> np.ndarray:
    """Logarithmic rank-based recombination weights, normalised to sum 1.

    Rank i (0-based, best first) gets max(ln(0.5 + lam/2) - ln(1 + i), 0)
    before normalisation; roughly the better half of the population carries
    positive weight.  Requires ``lam >= 2``.
    """
    if lam < 2:
        raise ValueError(f"need at least two sparks, got lam={lam}")
    # math.log1p, since np.log1p gives other last bits under AVX-512 dispatch
    w = np.maximum(math.log(0.5 + 0.5 * lam) - np.array([math.log1p(i) for i in range(lam)]), 0.0)
    return w / w.sum()


def effective_mass(weights) -> float:
    """Effective selection mass (sum w)^2 / sum(w^2) of a weight vector."""
    w = np.asarray(weights, dtype=float)
    return float(w.sum()) ** 2 / float(w @ w)


def fuse_weights(rank_w, natural_w) -> np.ndarray:
    """Elementwise product of rank and natural weights, renormalised to 1."""
    fused = np.asarray(rank_w, dtype=float) * np.asarray(natural_w, dtype=float)
    total = fused.sum()
    if not (total > 0) or not np.isfinite(total):
        raise DegenerateStateError("fused recombination weights are degenerate")
    return fused / total


def derive_params(lam: int, dim: int, literal_psigma: bool = False) -> StrategyParams:
    """Build the static strategy constants for population size ``lam``.

    The learning rates follow the standard cumulative-adaptation recipe:
    ``c_c`` and ``c_s`` are the path decay rates, ``c_1``/``c_mu`` the
    rank-one and rank-mu shape learning rates; ``c_s`` also damps the step
    size.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    w = rank_weights(lam)
    mu_eff = effective_mass(w)
    c_c = (4.0 + mu_eff / dim) / (4.0 + dim + 2.0 * mu_eff / dim)
    c_s = (2.0 + mu_eff) / (dim + mu_eff + 5.0)
    c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
    c_mu = min(
        1.0 - c_1,
        2.0 * (mu_eff + 1.0 / mu_eff - 2.0) / (mu_eff + (dim + 2.0) ** 2),
    )
    return StrategyParams(
        lam=lam,
        dim=dim,
        raw_weights=w,
        mu=int(np.count_nonzero(w)),
        mu_eff=mu_eff,
        c_c=c_c,
        c_s=c_s,
        c_1=c_1,
        c_mu=c_mu,
        literal_psigma=literal_psigma,
    )


def adjust_degree_of_freedom(df, fit, f_best, factor):
    """Grow df when the generation improved on the previous one.

    On improvement (``fit < f_best``) the new value is
    ``min(max(df * factor, df + 1), DF_CAP)``: the factor drives geometric
    growth, the ``df + 1`` floor keeps progress when the factor is close to
    1, and the cap, the Gaussian limit, keeps the value finite; a df at the
    cap stays there.  Without improvement df is unchanged.
    """
    if fit < f_best:
        return min(max(df * factor, df + 1.0), DF_CAP)
    return df


def repair_bounds(x, lb, ub, rng):
    """Resample out-of-bounds coordinates uniformly inside [lb, ub].

    In-bounds coordinates are untouched.  Works elementwise on vectors or
    (n, d) batches.
    """
    # a box of infinite width would overflow numpy's uniform draws
    if not (lb < ub and math.isfinite(float(ub) - float(lb))):
        raise ValueError(f"invalid bounds [{lb}, {ub}]: need lb < ub and a finite ub - lb")
    out = np.array(x, dtype=float)
    bad = (out < lb) | (out > ub)
    n_bad = int(bad.sum())
    if n_bad:
        out[bad] = rng.uniform(lb, ub, size=n_bad)
    return out


def regularize_covariance(shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project a shape matrix back onto the symmetric positive definite cone.

    Symmetrises, then raises any eigenvalue below
    ``1e-12 * max(1, trace / d)`` to that floor.  Returns ``(C, vals, vecs)``:
    the projected matrix and its eigenpair, ascending eigenvalues with the
    eigenvectors as columns.  A matrix that is already comfortably positive
    definite is returned after symmetrisation only, so the identity is a
    fixed point, and the pair is then exactly ``eigh`` of the returned
    matrix.  Non-finite entries (or a failed eigendecomposition) mean the
    adaptive state has collapsed and raise :class:`DegenerateStateError`.
    """
    shape = np.asarray(shape, dtype=float)
    if not np.all(np.isfinite(shape)):
        raise DegenerateStateError("shape matrix contains non-finite entries")
    sym = 0.5 * (shape + shape.T)
    floor = 1e-12 * max(1.0, float(np.trace(sym)) / sym.shape[0])
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise DegenerateStateError("shape matrix eigendecomposition failed") from exc
    if vals[0] >= floor:
        return sym, vals, vecs
    vals = np.maximum(vals, floor)
    out = (vecs * vals) @ vecs.T
    return 0.5 * (out + out.T), vals, vecs


def _evaluate_all(objective, xs):
    """Fitnesses of the rows of ``xs`` as a new array, a NaN counting as
    ``+inf``, the worst value, so that it cannot hide finite values.  A run
    calls its objective only here, a firework's start as a one-row batch."""
    batch = getattr(objective, "evaluate_batch", None)
    if batch is not None:
        fits = np.asarray(batch(xs), dtype=float)
    else:
        fits = np.array([float(objective.evaluate(x)) for x in xs])
    return np.fmin(fits, np.inf)  # fmin takes the non-NaN operand


def update(state: FireworkState, params: StrategyParams, xs, s, fits) -> dict:
    """The firework's new field values after one generation, as a dict.

    ``xs`` are the sparks sorted best first, ``fits`` their fitnesses and
    ``s`` the squared Mahalanobis distances of their draws, taken before
    :func:`repair_bounds`: a repaired spark gets its natural-gradient weight
    from where it was drawn, not from where it was evaluated.  The gate
    ``h_gate`` reads the step-size path from before this generation with
    exponent ``2 gen_count + 1``; Hansen's tutorial gates on the updated
    path with ``2 (gen_count + 1)``.  Reads no generator and writes nothing;
    a degenerate fusion or shape raises :class:`DegenerateStateError`.
    """
    d, mu, c_c, c_s = params.dim, params.mu, params.c_c, params.c_s
    c_cn = math.sqrt(c_c * (2.0 - c_c) * params.mu_eff) / state.scale
    c_sn = math.sqrt(c_s * (2.0 - c_s) * params.mu_eff) / state.scale
    norm2 = float(np.dot(state.path_s, state.path_s))
    horizon = 1.0 - (1.0 - c_s) ** (2 * state.gen_count + 1)
    h_gate = int(norm2 / (d * horizon) <= 2.0 + 4.0 / (d + 1.0))
    # the rank-one rate makes up the variance a closed gate keeps out of path_c
    c_1a = params.c_1 * (1.0 - (1.0 - h_gate**2) * c_c * (2.0 - c_c))

    # rank weights past the first mu are zero, so only the leading sparks
    # enter the recombination
    top = xs[:mu]
    fused = fuse_weights(params.raw_weights[:mu], natgrad_weight(s[:mu], d, state.df))

    mean = top.T @ fused
    delta_m = mean - state.mean

    dev = (top - state.mean) / state.scale
    base = 1.0 - c_1a - params.c_mu * float(fused.sum())
    shape = (
        base * state.shape
        + params.c_1 * np.outer(state.path_c, state.path_c)
        + params.c_mu * (dev.T * fused) @ dev
    )

    path_c = (1.0 - c_c) * state.path_c + c_cn * h_gate * delta_m
    # C^{-1/2} delta_m by default; literal_psigma uses C^{-1} delta_m
    coef = state.eigvecs.T @ delta_m
    axes = state.eigvals if params.literal_psigma else np.sqrt(state.eigvals)
    back = state.eigvecs @ (coef / axes)
    path_s = (1.0 - c_s) * state.path_s + c_sn * back

    scale = state.scale * math.exp(min(1.0, 0.5 * c_s * (float(np.dot(path_s, path_s)) / d - 1.0)))

    shape, eigvals, eigvecs = regularize_covariance(shape)
    gen_best = float(fits[0])
    return dict(
        mean=mean,
        shape=shape,
        eigvals=eigvals,
        eigvecs=eigvecs,
        path_c=path_c,
        path_s=path_s,
        scale=scale,
        df=adjust_degree_of_freedom(state.df, gen_best, state.last_gen_best, state.df_factor),
        gen_improvement=state.last_gen_best - gen_best,
        last_gen_best=gen_best,
        best_fitness=min(state.best_fitness, gen_best),
        gen_count=state.gen_count + 1,
    )


def explode(state: FireworkState, params: StrategyParams, objective, rng):
    """Run one explosion generation: draw, evaluate, :func:`update`, and
    write the new fields into ``state``.

    ``objective`` must expose ``lb``, ``ub`` and ``evaluate(x) -> float``
    (an ``evaluate_batch`` method is used when present).  Returns the pair
    ``(positions, fitnesses)`` of the evaluated sparks sorted best first,
    a NaN fitness as ``+inf`` (:func:`_evaluate_all`).  A raised
    :class:`DegenerateStateError` leaves ``state`` untouched; once the sparks
    were evaluated it carries them.
    """
    if not (np.isfinite(state.scale) and state.scale > 0):
        raise DegenerateStateError(f"step size collapsed to {state.scale}")

    # mean + scale * draws, in place; repair_bounds returns a copy, so the
    # rebinding frees the draws before the sparks are evaluated
    xs, s = t_draws(state.eigvecs * np.sqrt(state.eigvals), state.df, params.lam, rng)
    xs *= state.scale
    xs += state.mean
    xs = repair_bounds(xs, objective.lb, objective.ub, rng)
    fits = _evaluate_all(objective, xs)

    order = np.argsort(fits, kind="stable")
    xs, s, fits = xs[order], s[order], fits[order]
    try:
        fields = update(state, params, xs, s, fits)
    except DegenerateStateError as exc:
        exc.sparks, exc.fitnesses = xs, fits
        raise
    vars(state).update(fields)
    return xs, fits
