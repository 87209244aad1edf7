"""Explosions on threads, per-firework generators and the per-run BLAS pin.

A run, or a cell of runs, times its first two generations, which explode in
turn; when the cheaper of them took at least ``swarm.THREAD_MIN_BURST_S``
per firework, the rest of its generations explode in contiguous chunks of
the generation's fireworks on a thread pool.  Each firework draws from its
own generator and each run handles its outcomes in firework order, so the
threaded and the in-turn path, and a run alone or in a cell, must give the
same run, bit for bit.
Every run holds BLAS at one thread, which also makes a d=100 run independent
of the thread count the process started with.
"""

import collections
import dataclasses
import math
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tfwa.harness as harness_mod
import tfwa.swarm as swarm_mod
from algorithms import ALGORITHMS, cell_of, run_of
from tfwa import blas
from tfwa.baselines import random_search_cell, random_search_run, uniform_fwa_run
from tfwa.benchfns import make_problem
from tfwa.explosion import DegenerateStateError
from tfwa.harness import ExperimentConfig, run_experiment
from tfwa.swarm import SwarmConfig, _chunks, run, run_cell

SRC = Path(__file__).resolve().parents[1] / "src"

DIM = 48  # above the crossover
LAM = 240  # the default sparks per firework at DIM with two fireworks
TIMED = 2  # generations a run explodes in turn to time its bursts

IN_TURN, THREADED = math.inf, 0.0  # burst-cost thresholds that force each path

needs_blas = pytest.mark.skipif(blas.threads() is None, reason="no bundled OpenBLAS")

# the algorithms whose fireworks the swarm's driver explodes, on threads or in turn
FIREWORK_ALGOS = [algo for algo in ALGORITHMS if algo != "random-search"]


class _Problem:
    """Delegates to a benchmark problem and records how it is called.

    A run evaluates a firework's start as a one-row batch and a burst's
    sparks as a batch of at least two, so the row count tells them apart.
    """

    def __init__(self, problem, fail=False):
        self.problem = problem
        self.dim, self.lb, self.ub = problem.dim, problem.lb, problem.ub
        self.f_star = problem.f_star
        self.fail = fail  # whether bursts raise
        self.points = []  # every start evaluated, in order
        # the thread and point count of each burst, in order, and before each
        # pooled generation's bursts its chunk sizes, a list (_mark_chunks)
        self.log = []
        self.blas_threads = set()  # BLAS thread counts seen by any evaluation

    def evaluate(self, x):
        raise AssertionError("a run evaluates its objective in batches")

    def evaluate_batch(self, xs):
        self.blas_threads.add(blas.threads())
        if len(xs) == 1:
            self.points.append(np.array(xs[0], dtype=float))
        elif self.fail:
            raise RuntimeError("objective failed")
        else:
            self.log.append((threading.get_ident(), len(xs)))
        return self.problem.evaluate_batch(xs)

    @property
    def threads(self):
        """Threads that evaluated a batch."""
        return {entry[0] for entry in self.log if isinstance(entry, tuple)}

    def split_after_timing(self, timed, lam, workers):
        """Whether the first ``timed`` batches, the timed generations', ran on
        the calling thread, and every later generation was pooled: at most
        ``workers`` other threads evaluated the sparks of all its chunks."""
        caller = threading.get_ident()
        head, generations = [], []
        for entry in self.log:
            if isinstance(entry, list):
                generations.append((entry, collections.Counter()))
            elif generations:
                generations[-1][1][entry[0]] += entry[1]
            else:
                head.append(entry[0])
        if head != [caller] * timed or not generations:
            return False
        return all(
            caller not in points
            and sum(points.values()) == lam * sum(sizes)
            and len(points) <= workers
            for sizes, points in generations
        )


def _mark_chunks(monkeypatch, problem):
    """Have each pooled generation note its chunk sizes in ``problem.log``
    before its fireworks explode; returns ``problem``."""

    def chunks(items, parts):
        cut = _chunks(items, parts)
        problem.log.append([len(c) for c in cut])
        return cut

    monkeypatch.setattr(swarm_mod, "_chunks", chunks)
    return problem


class _Clock:
    """Stands in for ``time.perf_counter``: each reading is ``tick`` seconds
    after the one before, so every timed generation takes ``tick`` seconds,
    however long it really took."""

    def __init__(self, tick):
        self.tick = tick
        self.now = 0.0

    def __call__(self):
        self.now += self.tick
        return self.now


def _timed_batches(algo, n_fireworks):
    """The batches of a run's timed generations: a uniform generation
    evaluates all its fireworks' sparks in one, a t generation makes one per
    firework."""
    return TIMED * (1 if algo == "uniform-fwa" else n_fireworks)


def _force(monkeypatch, min_burst_s, cores=2):
    """Send every algorithm down one path after its timed generations, on a
    pool of up to ``cores`` threads."""
    monkeypatch.setattr(swarm_mod, "THREAD_MIN_BURST_S", min_burst_s)
    monkeypatch.setattr(swarm_mod, "_cores", lambda: cores)


def _as_tuple(result):
    return (
        result.best_fitness,
        result.best_position.tobytes(),
        result.evals_used,
        result.generations,
        [dataclasses.astuple(r) for r in result.trace],
    )


@pytest.mark.parametrize("algo", FIREWORK_ALGOS)
@pytest.mark.parametrize("tail", [0, LAM + 17], ids=["whole-generations", "ends-mid-generation"])
def test_threaded_matches_in_turn(monkeypatch, algo, tail):
    # 8 generations use 2 + 8 * 2 * LAM evaluations plus at most 16 restarts,
    # so a tail of LAM + 17 leaves room for the first firework of a ninth
    config, budget = SwarmConfig(), 2 + 8 * 2 * LAM + tail
    results, problems = [], []
    for min_burst_s in (IN_TURN, THREADED):
        _force(monkeypatch, min_burst_s)
        problem = _mark_chunks(monkeypatch, _Problem(make_problem("rastrigin", DIM, seed=0)))
        problems.append(problem)
        results.append(run_of(algo)(problem, config, 3, budget))
    in_turn, threaded = results
    assert _as_tuple(threaded) == _as_tuple(in_turn)
    assert problems[0].threads == {threading.get_ident()}
    assert problems[1].split_after_timing(_timed_batches(algo, config.n_fireworks), LAM, 2)
    if tail:
        assert [(r.gen, r.fw) for r in in_turn.trace[-2:]] == [(8, 1), (9, 0)]


def test_threaded_matches_in_turn_under_stress(monkeypatch):
    # more fireworks and pool threads than cores, and thread switches every
    # few microseconds: a firework touching another's state or generator, or
    # outcomes taken in completion order, would show as a different run
    config = SwarmConfig(
        n_fireworks=6,
        df_factors=(1.05, 10.0, 2.0, 1.5, 3.0, 5.0),
        sparks_per_firework=60,
    )
    # 12 generations, then 2 or 3 fireworks of a 13th (at most 72 restarts)
    budget = 6 + 12 * 6 * 60 + 2 * 60 + 73
    interval = sys.getswitchinterval()
    results = []
    try:
        sys.setswitchinterval(1e-5)
        for min_burst_s in (IN_TURN, THREADED):
            _force(monkeypatch, min_burst_s, cores=6)
            results.append(run(make_problem("rastrigin", DIM, seed=1), config, 11, budget))
    finally:
        sys.setswitchinterval(interval)
    assert _as_tuple(results[1]) == _as_tuple(results[0])
    last = results[0].trace[-1]
    assert last.gen == 13 and last.fw in (1, 2)


def test_threaded_matches_in_turn_with_degenerate_fireworks(monkeypatch):
    # the second firework fails after evaluating its sparks in its third
    # generation since a (re)start, the first before sampling in its fourth
    real_explode = swarm_mod.explode

    def explode(state, params, objective, rng):
        if state.df_factor == 10.0 and state.gen_count == 2:
            xs, fits = real_explode(state, params, objective, rng)
            events.append("after-evaluation")
            raise DegenerateStateError("forced", sparks=xs, fitnesses=fits)
        if state.df_factor == 1.05 and state.gen_count == 3:
            events.append("before-sampling")
            raise DegenerateStateError("forced before sampling")
        return real_explode(state, params, objective, rng)

    config, budget = SwarmConfig(), 2 + 9 * 2 * LAM + LAM
    results, seen = [], []
    for min_burst_s in (IN_TURN, THREADED):
        events = []
        monkeypatch.setattr(swarm_mod, "explode", explode)
        _force(monkeypatch, min_burst_s)
        results.append(run(make_problem("rastrigin", DIM, seed=0), config, 5, budget))
        seen.append(sorted(events))
    in_turn, threaded = results
    assert _as_tuple(threaded) == _as_tuple(in_turn)
    assert seen[0] == seen[1]
    assert {"after-evaluation", "before-sampling"} <= set(seen[0])
    assert in_turn.restarts >= len(seen[0])
    assert in_turn.evals_used <= budget + config.n_fireworks


@pytest.mark.parametrize("algo", FIREWORK_ALGOS)
def test_cell_on_the_pool_matches_runs_in_turn(monkeypatch, algo):
    # three runs' fireworks in chunks on three threads: 12 generations leave
    # 52 - restarts evaluations, so a run with at most two restarts explodes
    # one firework of a 13th and the others none; the runs' last outcomes
    # arrive in uneven chunks and must not mix into another run's
    seeds, budget = range(3), 2 + 12 * 2 * 50 + 52
    _force(monkeypatch, IN_TURN)
    alone = [
        run_of(algo)(make_problem("rastrigin", 10, seed=0), SwarmConfig(), s, budget) for s in seeds
    ]
    _force(monkeypatch, THREADED, cores=3)
    problem = _mark_chunks(monkeypatch, _Problem(make_problem("rastrigin", 10, seed=0)))
    pooled = cell_of(algo)(problem, SwarmConfig(), seeds, budget)
    assert [_as_tuple(r) for r in pooled] == [_as_tuple(r) for r in alone]
    assert problem.split_after_timing(_timed_batches(algo, 2 * len(seeds)), 50, 3)
    assert len(problem.threads) > 1
    assert len({len(r.trace) for r in alone}) > 1


@pytest.mark.parametrize("min_burst_s", [IN_TURN, THREADED], ids=["in-turn", "threaded"])
def test_cell_with_degenerate_fireworks_matches_runs(monkeypatch, min_burst_s):
    # the second firework of each run fails after evaluating its sparks in
    # its third generation since a (re)start
    real_explode = swarm_mod.explode

    def explode(state, params, objective, rng):
        if state.df_factor == 10.0 and state.gen_count == 2:
            xs, fits = real_explode(state, params, objective, rng)
            raise DegenerateStateError("forced", sparks=xs, fitnesses=fits)
        return real_explode(state, params, objective, rng)

    monkeypatch.setattr(swarm_mod, "explode", explode)
    seeds, budget = range(3), 2 + 9 * 2 * 50 + 50
    _force(monkeypatch, IN_TURN)
    alone = [run(make_problem("rastrigin", 10, seed=0), SwarmConfig(), s, budget) for s in seeds]
    _force(monkeypatch, min_burst_s, cores=4)
    cell = run_cell(make_problem("rastrigin", 10, seed=0), SwarmConfig(), seeds, budget)
    assert [_as_tuple(r) for r in cell] == [_as_tuple(r) for r in alone]
    assert all(r.restarts >= 3 for r in alone)


def test_burst_cost_picks_the_path(monkeypatch):
    # at the default threshold a cheap burst stays in turn, and a costly one
    # goes to the pool, where it gives the in-turn run's bits; the run's
    # clock, not the host, decides which timed generations are costly
    monkeypatch.setattr(swarm_mod, "_cores", lambda: 2)
    config, budget = SwarmConfig(), 2 + 6 * 2 * 50
    for algo in ("tfwa", "uniform-fwa"):
        results, problems = [], []
        for tick in (0.0, 1.0):
            monkeypatch.setattr(swarm_mod.time, "perf_counter", _Clock(tick))
            problem = _mark_chunks(monkeypatch, _Problem(make_problem("sphere", 10, seed=0)))
            problems.append(problem)
            results.append(run_of(algo)(problem, config, 0, budget))
        cheap, costly = problems
        assert cheap.threads == {threading.get_ident()}, algo
        timed = _timed_batches(algo, config.n_fireworks)
        assert costly.split_after_timing(timed, 50, 2), algo
        assert _as_tuple(results[1]) == _as_tuple(results[0]), algo


@pytest.mark.parametrize(
    "runs, cores", [(1, 2), (3, 3)], ids=["one-run-two-cores", "three-runs-three-cores"]
)
def test_pool_has_one_thread_per_worker(monkeypatch, runs, cores):
    # a cell on min(R * n_fireworks, cores) workers explodes every chunk of a
    # pooled generation on a pool thread, the calling thread waiting
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(swarm_mod, "ThreadPoolExecutor", Pool)
    _force(monkeypatch, THREADED, cores=cores)
    problem = _mark_chunks(monkeypatch, _Problem(make_problem("rastrigin", 10, seed=0)))
    run_cell(problem, SwarmConfig(), range(runs), 2 + 4 * 2 * 50)
    assert sizes == [cores]
    assert problem.split_after_timing(TIMED * 2 * runs, 50, cores)


@needs_blas
@pytest.mark.parametrize("failing", [0, 2], ids=["first-chunk", "later-chunk"])
def test_failed_chunk_raises_and_leaves_no_pool_thread(monkeypatch, failing):
    # an explosion fails in a pooled generation only in its first chunk, or
    # only in its last: either way the cell raises that error after its pool
    # threads have ended, and restores the BLAS thread count
    chunk_of = {}  # id of each firework of the generation -> its chunk's index
    pooled_on = set()  # threads that exploded a chunk
    real_explode = swarm_mod.explode

    def chunks(items, parts):
        cut = _chunks(items, parts)
        chunk_of.clear()
        chunk_of.update((id(fw), k) for k, chunk in enumerate(cut) for fw in chunk)
        return cut

    def explode(state, params, objective, rng):
        chunk = chunk_of.get(id(state))
        if chunk is not None:
            pooled_on.add(threading.get_ident())
        if chunk == failing:
            raise RuntimeError(f"explosion failed in chunk {failing}")
        return real_explode(state, params, objective, rng)

    _force(monkeypatch, THREADED, cores=3)
    monkeypatch.setattr(swarm_mod, "_chunks", chunks)
    monkeypatch.setattr(swarm_mod, "explode", explode)
    alive = set(threading.enumerate())
    before = blas.threads()
    try:
        blas.set_threads(2)
        with pytest.raises(RuntimeError, match=f"failed in chunk {failing}"):
            problem = make_problem("rastrigin", 10, seed=0)
            run_cell(problem, SwarmConfig(), range(3), 2 + 4 * 2 * 50)
        assert blas.threads() == 2
    finally:
        blas.set_threads(before)
    assert set(threading.enumerate()) == alive
    assert len(set(chunk_of.values())) == 3
    assert pooled_on and threading.get_ident() not in pooled_on


def test_one_core_explodes_in_turn(monkeypatch):
    _force(monkeypatch, THREADED, cores=1)
    problem = _Problem(make_problem("rastrigin", DIM, seed=0))
    run(problem, SwarmConfig(), seed=0, budget=2 + 2 * 2 * LAM)
    assert problem.threads == {threading.get_ident()}


@pytest.mark.parametrize("sharing, share", [(1, 4), (2, 2), (3, 1), (8, 1)])
def test_cores_is_the_process_share(monkeypatch, sharing, share):
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    token = swarm_mod._processes.set(sharing)
    try:
        assert swarm_mod._cores() == share
    finally:
        swarm_mod._processes.reset(token)
    assert swarm_mod._cores() == 4


def test_grid_workers_share_the_cores(monkeypatch):
    # a grid on as many workers as cores leaves each run one core, so its
    # fireworks explode in turn, the calling process's runs included
    class InlinePool:
        """A process pool that runs each job in this process when its result
        is asked for, after the caller has run its own."""

        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            job = Future()

            def result():
                if not job.done():
                    job.set_result(fn(*args))
                return Future.result(job)

            job.result = result
            return job

    def cell(*args):
        shares.append(swarm_mod._cores())
        return run_cell(*args)

    pools, shares, problems = [], [], []
    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness_mod, "make_problem", lambda *args: _record(make_problem(*args)))
    monkeypatch.setattr(harness_mod, "run_cell", cell)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def _record(problem):
        problems.append(_Problem(problem))
        return problems[-1]

    config = ExperimentConfig(
        suite=("rastrigin",), dims=(DIM,), algos=("tfwa",), reps=2, budget_multiplier=60, workers=2
    )
    rows, _ = run_experiment(config)
    assert pools == [1] and shares == [1, 1] and len(rows) == 2
    assert [p.threads for p in problems] == [{threading.get_ident()}] * 2
    assert swarm_mod._cores() == 2


def test_concurrent_grids_each_read_their_own_share(monkeypatch):
    # two grids run at once from two threads of one process, sphere on two
    # processes and rastrigin on three, their pools on threads too; every
    # job waits until all five have started, so both grids are inside their
    # jobs when each job reads its share of twelve cores, and once both
    # grids end, this thread's share is all twelve again
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 12)
    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
    started = threading.Barrier(5, timeout=30)
    shares = collections.defaultdict(list)
    lock = threading.Lock()

    def cell(problem, config, seeds, budget):
        started.wait()
        with lock:
            shares[problem.name].append(swarm_mod._cores())
        return random_search_cell(problem, config, seeds, budget)

    monkeypatch.setattr(harness_mod, "random_search_cell", cell)
    grid = dict(dims=(2,), algos=("random-search",), budget_multiplier=20)
    grids = [
        ExperimentConfig(suite=(name,), reps=workers, workers=workers, **grid)
        for name, workers in (("sphere", 2), ("rastrigin", 3))
    ]
    with ThreadPoolExecutor(2) as callers:
        ends = list(callers.map(run_experiment, grids))
    assert [len(rows) for rows, _ in ends] == [2, 3]
    assert shares == {"sphere": [6, 6], "rastrigin": [4, 4, 4]}
    assert swarm_mod._cores() == 12


_D100_SCRIPT = """
import sys
from tfwa.benchfns import make_problem
from tfwa.swarm import SwarmConfig, run

result = run(make_problem("rastrigin", 100, seed=0), SwarmConfig(), seed=0, budget=12_002)
result.trace.write(sys.stdout)
sys.stdout.write(repr(result.best_fitness) + " " + result.best_position.tobytes().hex() + "\\n")
"""


def test_d100_trace_ignores_blas_thread_count():
    outputs = []
    for count in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, PYTHONPATH=str(SRC))
        env.pop("OMP_NUM_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-c", _D100_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") > 2 * 10  # 2 trace rows per generation, then the best
    assert outputs[0] == outputs[1]


_D300_ROTATION_SCRIPT = """
import hashlib
from tfwa.benchfns import make_problem

print(hashlib.sha256(make_problem("sphere", 300, seed=0).rotation.tobytes()).hexdigest())
"""


def test_d300_problem_ignores_blas_thread_count():
    # from d = 300 OpenBLAS's QR gives different bits at one and two threads,
    # so the instance itself would depend on the machine without the pin
    digests = []
    for count in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, PYTHONPATH=str(SRC))
        env.pop("OMP_NUM_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-c", _D300_ROTATION_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests.append(proc.stdout)
    assert len(digests[0].strip()) == 64
    assert digests[0] == digests[1]


@needs_blas
@pytest.mark.parametrize(
    "runner",
    [run, uniform_fwa_run, random_search_run],
    ids=["tfwa", "uniform-fwa", "random-search"],
)
@pytest.mark.parametrize("dim", [5, DIM])
def test_run_pins_one_blas_thread_and_restores(runner, dim):
    problem = _Problem(make_problem("rastrigin", dim, seed=0))
    before = blas.threads()
    try:
        blas.set_threads(2)
        runner(problem, SwarmConfig(), seed=0, budget=2 + 3 * 10 * dim)
        assert blas.threads() == 2
    finally:
        blas.set_threads(before)
    assert problem.blas_threads == {1}


@needs_blas
def test_failed_run_restores_blas_threads():
    problem = _Problem(make_problem("sphere", 5, seed=0), fail=True)
    before = blas.threads()
    try:
        blas.set_threads(2)
        with pytest.raises(RuntimeError, match="objective failed"):
            run(problem, SwarmConfig(), seed=0, budget=1_000)
        assert blas.threads() == 2
    finally:
        blas.set_threads(before)


@needs_blas
def test_runs_in_two_threads_share_one_blas_pin():
    # A enters, B enters, A leaves while B is still inside: B must still read
    # one thread, and once both have left the count is the one A found
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def first():
        with blas.one_thread():
            a_in.set()
            assert b_in.wait(30)
        a_out.set()

    def second():
        assert a_in.wait(30)
        with blas.one_thread():
            b_in.set()
            assert a_out.wait(30)
            return blas.threads()

    before = blas.threads()
    try:
        blas.set_threads(2)
        with ThreadPoolExecutor(2) as pool:
            a, b = pool.submit(first), pool.submit(second)
            a.result()
            inside = b.result()
        after = blas.threads()
    finally:
        blas.set_threads(before)
    assert (inside, after) == (1, 2)


@needs_blas
def test_blas_pin_holds_under_many_threads():
    # more threads than cores enter and leave the pin at a short switch
    # interval: a lost update of the pin count would let a body read two
    # threads, or leave the process at one
    start = threading.Barrier(8, timeout=30)

    def body(_):
        seen = set()
        start.wait()
        for _ in range(2000):
            with blas.one_thread():
                seen.add(blas.threads())
        return seen

    before, interval = blas.threads(), sys.getswitchinterval()
    try:
        blas.set_threads(2)
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(8) as pool:
            seen = set().union(*pool.map(body, range(8), timeout=60))
        after = blas.threads()
    finally:
        sys.setswitchinterval(interval)
        blas.set_threads(before)
    assert (seen, after) == ({1}, 2)


@needs_blas
def test_kernel_names_the_core_openblas_runs():
    assert blas.kernel()
    if platform.machine() == "x86_64":
        # a core that every x86-64 CPU with AVX runs, forced as CI's kernels job does
        env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge", PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", "from tfwa import blas; print(blas.kernel())"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert proc.stdout == "Sandybridge\n"


def test_kernel_is_none_without_the_library_or_its_getter(monkeypatch):
    monkeypatch.setattr(blas, "_lib", False)
    assert blas.kernel() is None
    monkeypatch.setattr(blas, "_lib", SimpleNamespace())  # a library without the getter
    assert blas.kernel() is None


def test_algorithms_start_fireworks_at_same_means():
    # one seed starts tfwa, its Gaussian limit and the uniform baseline at
    # the same means, and every firework at a different one; in a cell of
    # two runs each run starts where it starts on its own
    config = SwarmConfig(n_fireworks=3, df_factors=(1.05, 10.0, 2.0))
    starts = []
    for algo in FIREWORK_ALGOS:
        problem = _Problem(make_problem("sphere", 5, seed=0))
        cell_of(algo)(problem, config, [7, 8], 400)
        starts.append(np.stack(problem.points[:6]))
    alone = []
    for seed in (7, 8):
        problem = _Problem(make_problem("sphere", 5, seed=0))
        run(problem, config, seed, 400)
        alone += problem.points[:3]
    assert np.array_equal(starts[0], np.stack(alone))
    assert np.array_equal(starts[0], starts[1])
    assert np.array_equal(starts[0], starts[2])
    assert len({row.tobytes() for row in starts[0]}) == 6
