"""Multi-firework generation driver with loser-out tournament restarts.

A swarm of ``n_fireworks`` fireworks explodes synchronously.  After every
full generation each firework is checked against the current leader: if
its recent per-generation improvement, extrapolated over the remaining
generations, cannot close the gap between its own all-time best and the
best current firework fitness, it is thrown out and restarted from a fresh
uniform position.  The driver owns the budget and the tournament, and its
run record (``_Run``) the best-so-far tracking, the trace rows and the
result, for random search's own loop too; an algorithm supplies only how to
start, restart and explode its fireworks, so the t firework here and the
baselines share the same seeding and accounting.  Each t firework carries
its own degree-of-freedom growth factor, so one can anneal to Gaussian
sampling quickly while another keeps heavy tails for longer.

Each firework draws from its own generator, which the driver spawns from
the run's seed, so its explosions do not depend on one another.  The driver
therefore takes the repetitions of one grid cell through one generation loop
(:func:`run_cell`), each run keeping its own budget, tournament and trace,
and once a burst proves costly a generation's fireworks explode in chunks on
a thread pool, with the same results as exploding them in turn and one run
at a time.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from .explosion import (
    DegenerateStateError,
    FireworkState,
    _evaluate_one,
    derive_params,
    explode,
)
from .tdist import DF_CAP

# A run's fireworks explode on a thread pool once the cheaper of its first two
# generations took at least this many seconds per burst.  Sampling, the
# eigendecomposition, the matrix products and most objectives release the
# GIL, so costly bursts overlap, while a cheap one costs less than its
# hand-off; 1 ms is near the measured crossover of t and uniform fireworks.
THREAD_MIN_BURST_S = 1e-3


@dataclass
class SwarmConfig:
    """Run configuration.

    ``sparks_per_firework`` and ``budget`` default to ``10 * dim /
    n_fireworks`` and ``10000 * dim`` when left as ``None``.  ``df_factors``
    must provide one growth factor per firework.  ``eps`` is the minimum
    fitness decrease that counts as progress for the tournament.
    ``df_init`` lies in ``[2, DF_CAP]``; at ``DF_CAP``, the Gaussian limit,
    the degrees of freedom stay frozen.
    """

    n_fireworks: int = 2
    df_factors: tuple = (1.05, 10.0)
    df_init: float = 5.0
    sparks_per_firework: int | None = None
    budget: int | None = None
    eps: float = 1e-6
    seed: int = 0
    literal_psigma: bool = False


@dataclass(slots=True)
class TraceRecord:
    """One firework's state snapshot at the end of one generation.

    ``gap`` is the firework's current fitness minus the problem optimum,
    ``best_gap`` the swarm-wide best-so-far gap after this generation's
    events, and ``restart`` marks generations in which this firework was
    restarted (by the tournament or after a degenerate state).
    """

    gen: int
    fw: int
    gap: float
    df: float
    scale: float
    restart: bool
    best_gap: float


@dataclass
class RunResult:
    best_position: np.ndarray
    best_fitness: float
    evals_used: int
    generations: int
    trace: list = field(default_factory=list)

    @property
    def restarts(self) -> int:
        return sum(1 for r in self.trace if r.restart)


def resolve_run_shape(problem, config: SwarmConfig):
    """Return the concrete (n_fireworks, sparks_per_firework, budget) triple.

    Applies the dimension-dependent defaults and validates the
    configuration against the problem.
    """
    n = config.n_fireworks
    _require_int("n_fireworks", n)
    if n < 1:
        raise ValueError(f"need at least one firework, got {n}")
    if len(config.df_factors) != n:
        raise ValueError(
            f"df_factors must provide one factor per firework "
            f"({n}), got {len(config.df_factors)}"
        )
    for factor in config.df_factors:
        _require_real("df_factors", factor)
    _require_real("df_init", config.df_init)
    _require_real("eps", config.eps)
    if not isinstance(config.literal_psigma, (bool, np.bool_)):
        raise ValueError(f"literal_psigma must be true or false, got {config.literal_psigma!r}")
    # written so that a NaN fails the check
    if any(not f > 1.0 for f in config.df_factors):
        raise ValueError("df growth factors must exceed 1")
    if not 2.0 <= config.df_init <= DF_CAP:
        raise ValueError(f"df_init must lie in [2, {DF_CAP:.0f}], got {config.df_init}")
    if not config.eps > 0:
        raise ValueError("eps must be positive")
    lam = config.sparks_per_firework
    if lam is None:
        lam = max(2, round(10 * problem.dim / n))
    budget = config.budget if config.budget is not None else 10000 * problem.dim
    _require_int("sparks_per_firework", lam)
    _require_int("budget", budget)
    if lam < 2:
        raise ValueError(f"need at least two sparks per firework, got {lam}")
    if budget < n * (lam + 1):
        raise ValueError(
            f"budget {budget} cannot cover initialisation plus one "
            f"generation ({n * (lam + 1)} evaluations)"
        )
    return n, int(lam), int(budget)


def _require_int(name, value):
    """Raise ValueError unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_real(name, value):
    """Raise ValueError unless ``value`` is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _fresh_firework(cls, problem, rng, **fields):
    """A ``cls`` firework at a uniform mean in the centre half of the box.

    The centre half is ``[lb + w/4, ub - w/4]`` with ``w = ub - lb``.  The
    mean is drawn from ``rng``, which the firework keeps for its explosions,
    and evaluated once; ``fields`` supply the algorithm's own state.
    """
    quarter = (problem.ub - problem.lb) / 4.0
    mean = rng.uniform(problem.lb + quarter, problem.ub - quarter, size=problem.dim)
    f0 = _evaluate_one(problem, mean)
    return cls(
        mean=mean,
        last_gen_best=f0,
        best_fitness=f0,
        rng=rng,
        **fields,
    )


def _fresh_t_firework(problem, config: SwarmConfig, df_factor, rng) -> FireworkState:
    """A t firework at a centre-half mean drawn from ``rng``; one evaluation.

    The shape matrix starts at the identity with step size ``ub - lb``, both
    evolution paths at zero and the degrees of freedom at ``df_init``.
    """
    d = problem.dim
    return _fresh_firework(
        FireworkState,
        problem,
        rng,
        shape=np.eye(d),
        # the eigenpair of the identity, exactly as eigh returns it
        eigvals=np.ones(d),
        eigvecs=np.eye(d),
        df=float(config.df_init),
        df_factor=float(df_factor),
        path_c=np.zeros(d),
        path_s=np.zeros(d),
        scale=float(problem.ub - problem.lb),
    )


def loser_out_check(fw: FireworkState, g, g_max, global_best, eps) -> bool:
    """Decide whether a firework should be thrown out and restarted.

    First folds the most recent generation's improvement into the accepted
    improvement ``fw.improvement`` when it exceeds ``eps``.  The firework is
    a loser when that improvement, sustained over the remaining
    ``g_max - g`` generations, still cannot close the gap between its
    all-time best fitness and ``global_best`` (the best current firework
    fitness in the swarm).
    """
    if fw.gen_improvement > eps:
        fw.improvement = fw.gen_improvement
    return fw.improvement * (g_max - g) < fw.best_fitness - global_best


def restart_firework(fw: FireworkState, problem, config: SwarmConfig, rng):
    """Fresh firework state at a uniform position drawn from ``rng``; one
    evaluation.

    The degree-of-freedom growth factor is the only field inherited from
    the thrown-out firework; a run passes the thrown-out firework's own
    generator as ``rng``.
    """
    return _fresh_t_firework(problem, config, fw.df_factor, rng)


def run_cell(problem, configs) -> list:
    """One :func:`run` result per config in ``configs``, from one generation loop.

    The configs may differ only in their seeds.  :func:`_drive` starts firework
    ``i`` of each run as :func:`_fresh_t_firework` with growth factor
    ``df_factors[i]``, explodes the runs' fireworks side by side and restarts
    them through :func:`restart_firework`; each result equals ``run(problem,
    config)`` bit for bit.
    """
    _, lam, budget = _cell_shape(problem, configs)
    config = configs[0]
    params = derive_params(lam, problem.dim, literal_psigma=config.literal_psigma)

    def attempt(fw):
        try:
            xs, fits = explode(fw, params, problem, fw.rng)
        except DegenerateStateError as exc:
            return exc
        return xs[0], fits[0]

    return _drive(
        problem,
        configs,
        lam,
        budget,
        new=lambda i, rng: _fresh_t_firework(problem, config, config.df_factors[i], rng),
        fresh=lambda fw: restart_firework(fw, problem, config, fw.rng),
        burst=lambda fws: list(map(attempt, fws)),
    )


def run(problem, config: SwarmConfig) -> RunResult:
    """Full optimisation run on ``problem`` under ``config``.

    Deterministic given ``config.seed``.  Budget accounting, restarts and
    the trace follow :func:`_drive`.
    """
    return run_cell(problem, [config])[0]


def _cell_shape(problem, configs):
    """The run shape (:func:`resolve_run_shape`) of a cell's configs, which
    may differ only in their seeds."""
    if not configs:
        raise ValueError("a cell needs at least one config")
    first = configs[0]
    shape = resolve_run_shape(problem, first)
    if any(replace(c, seed=first.seed) != first for c in configs):
        raise ValueError("the configs of a cell may differ only in their seeds")
    return shape


# The number of processes that share this process's cores.  A grid's
# processes, the calling one among them, set it to the worker count while they
# run jobs, so that their runs together explode on no more threads than there
# are cores.
_sharing = 1


def _share_cores(processes: int) -> int:
    """Note that ``processes`` processes, this one among them, share its
    cores; returns the count noted before."""
    global _sharing
    previous, _sharing = _sharing, processes
    return previous


def _cores() -> int:
    """This process's share of the cores it may run on."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, cores // _sharing)


def _chunks(items, parts):
    """``items`` cut into ``min(parts, len(items))`` contiguous chunks whose
    sizes differ by at most one."""
    parts = min(parts, len(items))
    size, extra = divmod(len(items), parts)
    cuts = [i * size + min(i, extra) for i in range(parts + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


class _Run:
    """One run's record: its fireworks, evaluation count, best-so-far point,
    trace and last generation, and the number ``k`` of its fireworks that
    explode in the current generation.  Every algorithm's run writes its
    trace rows through :meth:`record`, against the problem's ``f_star``."""

    def __init__(self, fireworks, f_star):
        self.fireworks = fireworks
        self.f_star = f_star
        self.evals = len(fireworks)
        self.best_f, self.best_x = math.inf, None
        self.trace = []
        self.generations = 0
        self.k = 0
        self.restarted = set()
        for fw in fireworks:
            self.track(fw.best_fitness, fw.mean)

    def track(self, f, x):
        if f < self.best_f:
            self.best_f, self.best_x = float(f), x.copy()

    def record(self, g, i, f, df, scale, restart):
        """Append firework ``i``'s row for generation ``g``, whose fitness is
        ``f``; its best gap is the run's best-so-far at this point."""
        self.trace.append(
            TraceRecord(g, i, f - self.f_star, df, scale, restart, self.best_f - self.f_star)
        )

    def restart(self, i, fresh):
        fw = self.fireworks[i] = fresh(self.fireworks[i])
        self.evals += 1
        self.track(fw.best_fitness, fw.mean)
        self.restarted.add(i)

    def result(self) -> RunResult:
        return RunResult(self.best_x, self.best_f, self.evals, self.generations, self.trace)


@blas.run_settings()
def _drive(problem, configs, lam, budget, new, fresh, burst) -> list:
    """Generation loop shared by every firework algorithm; one
    :class:`RunResult` per config.

    ``configs`` are those of the R runs of one cell, which differ only in
    their seeds.  The caller resolves the run shape that the runs share
    (:func:`_cell_shape`): ``lam`` sparks per explosion and ``budget``
    evaluations per run; the tournament threshold is the configs' ``eps``.
    Each run spawns ``n_fireworks`` generators from ``default_rng(seed)``
    and starts firework ``i`` as ``new(i, rng)`` with the ``i``-th of them:
    a firework at a fresh mean, evaluated once, that keeps ``rng`` as its
    own generator.  So one seed starts every algorithm's fireworks at the
    same means.  Every generation explodes the runs' fireworks with
    ``burst(fws)``, which takes a list of fireworks, from any runs, and
    returns one outcome per firework in order: the generation's best spark
    and its fitness, or the :class:`DegenerateStateError` the explosion
    raised; an error that carries the evaluated sparks, best first, costs
    the run ``lam`` evaluations and offers it the first spark.  A burst
    updates each firework in place and draws only from that firework's own
    generator.  A firework whose explosion failed is
    replaced by ``fresh(fw)`` (a new firework, one evaluation); after a
    complete generation the loser-out tournament replaces its losers the
    same way.

    BLAS: the whole cell, its starting evaluations included, runs under
    :func:`tfwa.blas.run_settings`, so OpenBLAS is held at one thread.

    Budget: each run counts its own evaluations against ``budget``.  Its
    count at the start of a generation decides how many of its fireworks
    explode, the leading ones whose ``lam`` sparks each still fit within
    the budget.  A generation in which fewer than all explode is the run's
    last; the other runs go on.  Restarts come after the explosions, one
    evaluation each, and the tournament only runs after complete
    generations, so a run's total count stays within budget + n_fireworks.

    Threads: the first two generations explode in turn and are timed.  If
    the cheaper of the two took at least :data:`THREAD_MIN_BURST_S` per
    firework, the rest of the cell explodes on a pool of ``min(R *
    n_fireworks, cores)`` threads, where cores is this process's share of
    the cores it may run on (:func:`_cores`): each thread takes one
    contiguous chunk of the generation's fireworks, so ``burst`` and the
    objective may be called from several threads at once; otherwise the
    whole generation is one ``burst``.  Either way each run then handles
    its outcomes in firework order: best-so-far tracking, restarts, the
    tournament and the trace rows, so both paths, and a run on its own or
    among others, give the same result.
    """
    n, eps = configs[0].n_fireworks, configs[0].eps
    f_star = float(getattr(problem, "f_star", 0.0))
    runs = [
        _Run([new(i, rng) for i, rng in enumerate(np.random.default_rng(c.seed).spawn(n))], f_star)
        for c in configs
    ]
    workers = min(n * len(runs), _cores())
    explode_all = burst
    burst_s = math.inf  # the cheapest mean time per firework of the timed generations
    g_max = (budget - n) // (n * lam)

    def settle(run, outcomes, g):
        run.restarted = set()
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, DegenerateStateError):
                if outcome.fitnesses is not None:
                    run.evals += lam
                    run.track(outcome.fitnesses[0], outcome.sparks[0])
                run.restart(i, fresh)
            else:
                run.evals += lam
                x, f = outcome
                run.track(f, x)

        fireworks = run.fireworks
        if run.k == n:
            global_best = min(fw.last_gen_best for fw in fireworks)
            for i in range(n):
                if i not in run.restarted and loser_out_check(
                    fireworks[i], g, g_max, global_best, eps
                ):
                    run.restart(i, fresh)

        for i in range(run.k):
            fw = fireworks[i]
            run.record(g, i, fw.last_gen_best, fw.df, fw.scale, i in run.restarted)
        if run.k:
            run.generations = g

    live = runs
    g = 0
    with ExitStack() as stack:
        while live:
            g += 1
            if g == 3 and workers > 1 and burst_s >= THREAD_MIN_BURST_S:
                pool = stack.enter_context(ThreadPoolExecutor(workers))

                def explode_all(fws):
                    return [o for part in pool.map(burst, _chunks(fws, workers)) for o in part]

            batch = []
            for run in live:
                run.k = min(n, max(0, (budget - run.evals) // lam))
                batch += run.fireworks[: run.k]
            start = time.perf_counter()
            outcomes = explode_all(batch) if batch else []
            if g <= 2:
                burst_s = min(burst_s, (time.perf_counter() - start) / max(len(batch), 1))
            at = 0
            for run in live:
                settle(run, outcomes[at : at + run.k], g)
                at += run.k
            live = [run for run in live if run.k == n]

    return [run.result() for run in runs]
