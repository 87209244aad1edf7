"""Reference optimisers sharing the swarm's budget and restart accounting.

* ``uniform_fwa_run``: classic fireworks explosions, uniform in a shrinking
  or growing hypercube around each firework, driven by the swarm's
  generation loop and loser-out tournament; isolates the contribution of
  the adapted t sampler.
* ``random_search_run``: uniform sampling over the whole box, in its own
  block loop, recorded through the swarm's run record.

Each has a cell entry point (``uniform_fwa_cell``, ``random_search_cell``)
that takes a problem, a config and the seeds of a grid cell's repetitions,
and returns one result per seed, equal to the run's on its own.  The swarm's
driver (``tfwa.swarm._drive``) seeds, starts and pins BLAS for the firework
cells, so ``uniform_fwa_cell`` supplies only how to start, restart and
explode a uniform firework, and one seed starts it at the t fireworks'
means; random search keeps its own loop and BLAS pin, but keeps its
best-so-far point, trace rows and result in the driver's run record
(``tfwa.swarm._Run``), so a trace row means the same for every
algorithm.  Every runner needs only ``lb``, ``ub``, ``dim`` and ``evaluate``
from the objective, and calls it only through ``explosion._evaluate_all``,
which uses ``evaluate_batch`` when it has one; a firework's start is a
one-row batch.  The Gaussian limit needs no code here: it is the swarm run
with ``df_init`` at ``DF_CAP``, a row of the harness's algorithm table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas
from .explosion import _evaluate_all
from .swarm import (
    RunResult,
    SwarmConfig,
    _drive,
    _fresh_firework,
    _Run,
    resolve_run_shape,
)

# Uniform-firework amplitude: starts at this fraction of the box width, grows
# by AMPLITUDE_GROWTH on improvement and shrinks by AMPLITUDE_DECAY otherwise,
# clamped to the box width.
AMPLITUDE_INIT = 0.5
AMPLITUDE_GROWTH = 1.2
AMPLITUDE_DECAY = 0.9

# Random search draws and evaluates whole generations at a time, and a uniform
# burst whole fireworks, at most this many coordinates per block and at least
# one generation or firework; a block's evaluation temporaries stay at 256 kB.
BLOCK_COORDS = 2**15


@dataclass
class _UniformFirework:
    """Uniform-explosion firework; ``scale`` is the hypercube half-width and
    ``rng`` the firework's own generator."""

    mean: np.ndarray
    scale: float
    last_gen_best: float
    best_fitness: float
    df: float = 0.0
    improvement: float = 0.0
    gen_improvement: float = 0.0
    rng: np.random.Generator | None = field(default=None, repr=False, compare=False)


def uniform_sparks(means, amplitudes, lam, lb, ub, rngs):
    """Sample ``lam`` sparks per firework as one (m, lam, d) block.

    Firework ``j``'s sparks are drawn from ``rngs[j]``, uniformly in
    [means[j] - A, means[j] + A] with ``A = amplitudes[j]``, then clipped to
    the bounds.
    """
    d = means.shape[1]
    span = np.stack([rng.uniform(-a, a, size=(lam, d)) for a, rng in zip(amplitudes, rngs)])
    # np.clip's definition, without its wrapper's per-call cost
    return np.minimum(np.maximum(means[:, None, :] + span, lb), ub)


def uniform_fwa_run(problem, config: SwarmConfig, seed=0, budget=None) -> RunResult:
    """Uniform-explosion fireworks with dynamic amplitude and loser-out restarts.

    Each generation a firework samples ``lam`` sparks in its hypercube and
    greedily moves to the best spark when it improves on the firework's
    fitness, growing the amplitude on improvement and shrinking it
    otherwise.  Budget accounting, the tournament and the trace format are
    the swarm run's, and so are the per-firework generators: one seed starts
    the uniform fireworks at the t fireworks' means.
    """
    return uniform_fwa_cell(problem, config, [seed], budget)[0]


def uniform_fwa_cell(problem, config: SwarmConfig, seeds, budget=None) -> list:
    """One :func:`uniform_fwa_run` result per seed, from one generation loop.

    A burst samples its fireworks' sparks in groups of at most
    ``BLOCK_COORDS`` coordinates, and at least one firework, and evaluates
    each group in one call, so a cell holds one group's sparks, however many
    runs it has; each firework still draws from its own generator, and the
    objective evaluates each point on its own, so every result equals the
    run's on its own bit for bit.
    """
    _, lam, budget = resolve_run_shape(problem, config, budget)
    box = float(problem.ub - problem.lb)

    def new(_, rng):
        return _fresh_firework(_UniformFirework, problem, rng, scale=AMPLITUDE_INIT * box)

    group = max(1, BLOCK_COORDS // (lam * problem.dim))

    # one call per group, so a group's sparks are freed before the next is drawn
    def best_sparks(fws):
        sparks = uniform_sparks(
            np.array([fw.mean for fw in fws]),
            [fw.scale for fw in fws],
            lam,
            problem.lb,
            problem.ub,
            [fw.rng for fw in fws],
        )
        fits = _evaluate_all(problem, sparks.reshape(-1, problem.dim)).reshape(len(fws), lam)
        picks = fits.argmin(axis=1)
        rows = np.arange(len(fws))
        return zip(sparks[rows, picks], fits[rows, picks].tolist(), [False] * len(fws))

    def burst(fws):
        starts = range(0, len(fws), group)
        outcomes = [o for start in starts for o in best_sparks(fws[start : start + group])]
        for fw, (x, gen_best, _) in zip(fws, outcomes):
            fw.gen_improvement = fw.last_gen_best - gen_best
            # The firework only ever moves to an improving spark, so its
            # current fitness is also its all-time best.
            if gen_best < fw.last_gen_best:
                fw.mean = x
                fw.last_gen_best = fw.best_fitness = gen_best
                fw.scale = min(fw.scale * AMPLITUDE_GROWTH, box)
            else:
                fw.scale *= AMPLITUDE_DECAY
        return outcomes

    return _drive(
        problem,
        config,
        seeds,
        lam,
        budget,
        new=new,
        fresh=lambda fw: new(None, fw.rng),
        burst=burst,
    )


@blas.run_settings()
def random_search_run(problem, config: SwarmConfig, seed=0, budget=None) -> RunResult:
    """Uniform random search over the full box, one batch per generation.

    It spends no evaluation on starting points and has no tournament, so it
    keeps its own loop rather than the swarm's generation driver, but holds
    its run in the driver's run record (:class:`tfwa.swarm._Run`), which
    tracks its best-so-far point, writes its trace rows and builds its
    result.  Whole generations are drawn and evaluated in blocks of up to
    ``BLOCK_COORDS`` coordinates.  Uniform draws fill the stream in order
    and an objective evaluates each point on its own, so the result equals
    drawing and evaluating one generation per call.
    """
    rng = np.random.default_rng(seed)
    n, lam, budget = resolve_run_shape(problem, config, budget)
    batch = n * lam
    d = problem.dim
    box = float(problem.ub - problem.lb)
    block = max(1, BLOCK_COORDS // (batch * d))
    total = budget // batch
    run = _Run([], float(getattr(problem, "f_star", 0.0)))
    g = 0
    while g < total:
        k = min(block, total - g)
        xs = rng.uniform(problem.lb, problem.ub, size=(k * batch, d))
        fits = _evaluate_all(problem, xs).reshape(k, batch)
        picks = fits.argmin(axis=1)
        gen_bests = fits[np.arange(k), picks]
        for j, (i, f) in enumerate(zip(picks.tolist(), gen_bests.tolist())):
            g += 1
            run.track(f, xs[j * batch + i])
            run.record(g, 0, f, 0.0, box, False)
    run.generations, run.evals = g, g * batch
    return run.result()


def random_search_cell(problem, config: SwarmConfig, seeds, budget=None) -> list:
    """One :func:`random_search_run` result per seed.

    Each run keeps its own block loop and run record, one run after
    another: its block sampling already spreads the per-call cost over many
    generations, so the driver's shared generation loop would save nothing.
    """
    return [random_search_run(problem, config, seed, budget) for seed in seeds]
