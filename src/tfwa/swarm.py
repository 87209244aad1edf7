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
therefore takes the repetitions of one grid cell, one config and a seed per
run, through one generation loop (:func:`run_cell`), each run keeping its own
budget, tournament and trace, and once a burst proves costly a generation's
fireworks explode in chunks on a thread pool, with the same results as
exploding them in turn and one run at a time.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import time
from array import array
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import blas
from .explosion import (
    DegenerateStateError,
    FireworkState,
    _evaluate_all,
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
    """An algorithm setting; a run's seed and budget are arguments of the
    runners, not fields.

    ``sparks_per_firework`` defaults to ``10 * dim / n_fireworks`` when left
    as ``None``.  ``df_factors`` must provide one growth factor per firework.
    ``eps`` is the minimum fitness decrease that counts as progress for the
    tournament.  ``df_init`` lies in ``[2, DF_CAP]``; at ``DF_CAP``, the
    Gaussian limit, the degrees of freedom stay frozen.
    """

    n_fireworks: int = 2
    df_factors: tuple = (1.05, 10.0)
    df_init: float = 5.0
    sparks_per_firework: int | None = None
    eps: float = 1e-6


@dataclass(slots=True)
class TraceRecord:
    """One firework's state snapshot at the end of one generation.

    ``gap`` is the firework's current fitness minus the problem optimum,
    ``best_gap`` the swarm-wide best-so-far gap after this generation's
    events, and ``restart`` marks generations in which this firework was
    restarted (by the tournament or after a degenerate state).  A run holds
    its rows in a :class:`Trace` and builds a record only when one is read.
    """

    gen: int
    fw: int
    gap: float
    df: float
    scale: float
    restart: bool
    best_gap: float


# Every fact of a trace row's layout follows from TraceRecord's fields: a row
# stores one float64 per field, in field order.  Each field type names the
# cast that reads its float64 back and the spelling of its value in a JSONL
# line as json.dumps writes it: %.0f spells a whole float as an int, %s the
# "true" or "false" that the writer puts in place of a bool's 0 or 1, and %r
# a float as float.__repr__ does.
_TRACE_TYPES = {"int": (int, "%.0f"), "bool": (bool, "%s"), "float": (float, "%r")}
_TRACE_FIELDS = fields(TraceRecord)
TRACE_WIDTH = len(_TRACE_FIELDS)
_RESTART = [f.name for f in _TRACE_FIELDS].index("restart")
_CASTS = [_TRACE_TYPES[f.type][0] for f in _TRACE_FIELDS]
_BOOL_COLUMNS = [i for i, f in enumerate(_TRACE_FIELDS) if f.type == "bool"]
_TRACE_LINE = (
    "{" + ", ".join(f'"{f.name}": {_TRACE_TYPES[f.type][1]}' for f in _TRACE_FIELDS) + "}\n"
)

# A trace is formatted and written this many rows at a time, so writing one
# holds a block's text and numbers, never the whole file's.
TRACE_BLOCK_ROWS = 128


def _record(row):
    """The :class:`TraceRecord` of ``row``, one trace row's float64s."""
    return TraceRecord(*[cast(x) for cast, x in zip(_CASTS, row)])


class Trace(Sequence):
    """A run's trace: a read-only sequence of :class:`TraceRecord` over one
    flat float64 buffer.

    ``rows`` holds ``TRACE_WIDTH`` numbers per row, in field order, with a
    bool as 0 or 1, so a row takes 56 bytes; a record is built from them
    each time one is read.  Every run's trace rows are exact in float64:
    ``gen`` and ``fw`` are counts, and the others are floats.  Two traces are
    equal when their buffers are.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=None):
        self.rows = array("d") if rows is None else rows

    @classmethod
    def of(cls, records):
        """The trace of ``records``, an iterable of :class:`TraceRecord`."""
        rows = array("d")
        for record in records:
            rows.extend(astuple(record))
        return cls(rows)

    def __len__(self):
        return len(self.rows) // TRACE_WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if not -n <= index < n:
            raise IndexError("trace index out of range")
        start = (index % n) * TRACE_WIDTH
        return _record(self.rows[start : start + TRACE_WIDTH])

    def __iter__(self):
        numbers = iter(self.rows)
        return (_record(row) for row in zip(*[numbers] * TRACE_WIDTH))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"Trace({list(self)!r})"

    @property
    def restarts(self) -> int:
        """The number of rows that mark a restart."""
        # a view of the restart column, so nothing is copied
        return int(np.count_nonzero(np.frombuffer(self.rows)[_RESTART::TRACE_WIDTH]))

    def write(self, fh):
        """Write the trace to the text file ``fh`` as JSONL,
        ``TRACE_BLOCK_ROWS`` rows at a time.

        Each line is byte for byte ``json.dumps`` of a record's fields in
        :class:`TraceRecord` order, ``{"gen": ..., "fw": ..., ...}``, plus
        ``"\\n"``: floats as ``float.__repr__`` gives them, ``NaN``,
        ``Infinity`` and ``-Infinity`` for the non-finite ones, and
        ``true``/``false`` for a bool.
        """
        rows, step = self.rows, TRACE_BLOCK_ROWS * TRACE_WIDTH
        for start in range(0, len(rows), step):
            block = rows[start : start + step].tolist()
            for col in _BOOL_COLUMNS:
                block[col::TRACE_WIDTH] = ["true" if r else "false" for r in block[col::TRACE_WIDTH]]
            text = (_TRACE_LINE * (len(block) // TRACE_WIDTH)) % tuple(block)
            # every number follows ": ", and only a non-finite float's repr
            # starts with a letter or "-i"
            fh.write(
                text.replace(": nan", ": NaN")
                .replace(": inf", ": Infinity")
                .replace(": -inf", ": -Infinity")
            )


@dataclass
class RunResult:
    """A run's outcome.  ``trace`` is a :class:`Trace`."""

    best_position: np.ndarray
    best_fitness: float
    evals_used: int
    generations: int
    trace: Trace = field(default_factory=Trace)

    @property
    def restarts(self) -> int:
        return self.trace.restarts


def resolve_run_shape(problem, config: SwarmConfig, budget=None):
    """Return the concrete (n_fireworks, sparks_per_firework, budget) triple.

    Applies the dimension-dependent defaults, ``budget`` ``10000 * dim``
    when ``None``, and validates the configuration against the problem.
    """
    n = config.n_fireworks
    _require_int("n_fireworks", n)
    if n < 1:
        raise ValueError(f"need at least one firework, got {n}")
    if not isinstance(config.df_factors, (list, tuple)):
        raise ValueError(f"df_factors must be a list, got {config.df_factors!r}")
    if len(config.df_factors) != n:
        raise ValueError(
            f"df_factors must provide one factor per firework "
            f"({n}), got {len(config.df_factors)}"
        )
    for factor in config.df_factors:
        _require_real("df_factors", factor)
    _require_real("df_init", config.df_init)
    _require_real("eps", config.eps)
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
    if budget is None:
        budget = 10000 * problem.dim
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
    f0 = float(_evaluate_all(problem, mean[None])[0])
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


def run_cell(problem, config: SwarmConfig, seeds, budget=None) -> list:
    """One :func:`run` result per seed in ``seeds``, from one generation loop.

    :func:`_drive` starts firework ``i`` of each run as
    :func:`_fresh_t_firework` with growth factor ``df_factors[i]``, explodes
    the runs' fireworks side by side and restarts them through
    :func:`restart_firework`; each result equals ``run(problem, config, seed,
    budget)`` bit for bit.
    """
    _, lam, budget = resolve_run_shape(problem, config, budget)
    params = derive_params(lam, problem.dim)

    # An outcome owns only copies: a view of the best spark would keep the
    # whole (lam, d) spark array alive, and a raised error's traceback would
    # keep explode's frame and its spark-sized locals
    def attempt(fw):
        try:
            xs, fits = explode(fw, params, problem, fw.rng)
        except DegenerateStateError as exc:
            if exc.fitnesses is None:
                return None, None, True
            return exc.sparks[0].copy(), exc.fitnesses[0], True
        return xs[0].copy(), fits[0], False

    return _drive(
        problem,
        config,
        seeds,
        lam,
        budget,
        new=lambda i, rng: _fresh_t_firework(problem, config, config.df_factors[i], rng),
        fresh=lambda fw: restart_firework(fw, problem, config, fw.rng),
        burst=lambda fws: list(map(attempt, fws)),
    )


def run(problem, config: SwarmConfig, seed=0, budget=None) -> RunResult:
    """Full optimisation run on ``problem`` under ``config``, of ``budget``
    evaluations (``10000 * dim`` when ``None``).

    Deterministic given ``seed``.  Budget accounting, restarts and the trace
    follow :func:`_drive`.
    """
    return run_cell(problem, config, [seed], budget)[0]


# The number of processes that share the cores the current job runs on.  A
# grid job sets it to the grid's process count while it runs, in the calling
# process and in pool workers alike (``harness._run_cells``), so that the
# grid's runs together explode on no more threads than there are cores.
_processes = contextvars.ContextVar("processes", default=1)


def _cores() -> int:
    """The current job's share of the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, cores // _processes.get())


def _chunks(items, parts):
    """``items`` cut into ``min(parts, len(items))`` contiguous chunks whose
    sizes differ by at most one."""
    parts = min(parts, len(items))
    size, extra = divmod(len(items), parts)
    cuts = [i * size + min(i, extra) for i in range(parts + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


class _Run:
    """One run's record: its fireworks, evaluation count, best-so-far point,
    trace rows and last generation, and the number ``k`` of its fireworks
    that explode in the current generation.  Every algorithm's run writes its
    trace rows through :meth:`record`, against the ``f_star`` of its
    ``problem`` (0 when it has none), into one flat float64 buffer (see
    :class:`Trace`)."""

    def __init__(self, fireworks, problem):
        self.fireworks = fireworks
        self.f_star = float(getattr(problem, "f_star", 0.0))
        self.evals = len(fireworks)
        self.best_f, self.best_x = math.inf, None
        self.rows = array("d")
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
        self.rows.extend((g, i, f - self.f_star, df, scale, restart, self.best_f - self.f_star))

    def restart(self, i, fresh):
        fw = self.fireworks[i] = fresh(self.fireworks[i])
        self.evals += 1
        self.track(fw.best_fitness, fw.mean)
        self.restarted.add(i)

    def result(self) -> RunResult:
        """The run's result; its trace keeps an exact-size copy of the rows,
        which the run record lets go."""
        # a growing array over-allocates by about 1/16; the slice does not
        rows, self.rows = self.rows, None
        trace = Trace(rows[:])
        return RunResult(self.best_x, self.best_f, self.evals, self.generations, trace)


@blas.run_settings()
def _drive(problem, config, seeds, lam, budget, new, fresh, burst) -> list:
    """Generation loop shared by every firework algorithm; one
    :class:`RunResult` per seed.

    The R runs of one cell share ``config`` and each has its own seed in
    ``seeds``.  The caller resolves their run shape
    (:func:`resolve_run_shape`): ``lam`` sparks per explosion and ``budget``
    evaluations per run; the tournament threshold is ``config.eps``.
    Each run spawns ``n_fireworks`` generators from ``default_rng(seed)``
    and starts firework ``i`` as ``new(i, rng)`` with the ``i``-th of them:
    a firework at a fresh mean, evaluated once, that keeps ``rng`` as its
    own generator.  So one seed starts every algorithm's fireworks at the
    same means.  Every generation explodes the runs' fireworks with
    ``burst(fws)``, which takes a list of fireworks, from any runs, and
    returns one outcome per firework in order, the tuple ``(x, f, failed)``:
    the generation's best spark, as its own array, and its fitness, both
    ``None`` when nothing was evaluated, and whether the explosion failed.
    An outcome with a spark costs the run ``lam`` evaluations.  So no outcome
    keeps a generation's spark array alive into the next generation, and a
    cell's memory does not grow with its runs.  A burst updates each
    firework in place and draws only from that firework's own generator.  A
    firework whose explosion failed is replaced by ``fresh(fw)`` (a new
    firework, one evaluation); after a complete generation the loser-out
    tournament replaces its losers the same way.

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
    firework, the rest of the cell explodes on ``workers = min(R *
    n_fireworks, cores)`` threads, where cores is the cores this process may
    run on, divided by the grid's process count when a grid job runs the
    cell (:func:`_cores`): each generation is cut into up to ``workers``
    contiguous chunks, which a pool of ``workers`` threads explodes, so
    ``burst`` and the objective may be called from several threads at once;
    otherwise the whole generation is one ``burst``.
    Either way each run then handles its outcomes in firework order:
    best-so-far tracking, restarts, the tournament and the trace rows, so
    both paths, and a run on its own or among others, give the same result.
    The pool threads allocate from the heap the timed generations grew,
    since :func:`tfwa.blas.keep_heap` caps glibc at one arena.
    """
    n, eps = config.n_fireworks, config.eps
    runs = [
        _Run([new(i, rng) for i, rng in enumerate(np.random.default_rng(seed).spawn(n))], problem)
        for seed in seeds
    ]
    workers = min(n * len(runs), _cores())
    explode_all = burst
    burst_s = math.inf  # the cheapest mean time per firework of the timed generations
    g_max = (budget - n) // (n * lam)

    def settle(run, outcomes, g):
        run.restarted = set()
        for i, (x, f, failed) in enumerate(outcomes):
            if x is not None:
                run.evals += lam
                run.track(f, x)
            if failed:
                run.restart(i, fresh)

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
                    chunks = pool.map(burst, _chunks(fws, workers))
                    return [outcome for chunk in chunks for outcome in chunk]

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
