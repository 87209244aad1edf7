"""Peak memory of one explosion, one batch evaluation and one grid cell, in
spark-sized arrays, and the memory of a run's trace.

numpy reports its array buffers to ``tracemalloc``, so the traced peak above
the start of a call counts the arrays the call holds at once.  At d = 100 an
explosion draws lam = 500 sparks: one spark-sized (lam, d) float array is
400 kB, and the pins below are multiples of it.  A cell of R runs holds one
explosion's arrays at a time, whatever R is, plus each run's own state, of
which the two t fireworks' shape and eigenvector matrices, 320 kB, are most:
an outcome keeps only its best spark, never a view of the spark array or a
traceback that pins ``explode``'s frame, and a uniform burst samples its
fireworks in groups of at most ``BLOCK_COORDS`` coordinates.  A trace row is
seven float64s, 56 bytes, while the run holds it, and a trace is written a
block of rows at a time.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

import tfwa.harness
import tfwa.swarm as swarm_mod
from tfwa.baselines import uniform_fwa_cell, uniform_fwa_run
from tfwa.benchfns import PROBLEM_NAMES, make_problem
from tfwa.explosion import DegenerateStateError, FireworkState, derive_params, explode
from tfwa.harness import _run_cells
from tfwa.swarm import RunResult, SwarmConfig, Trace, TraceRecord, _chunks, run_cell

DIM, LAM = 100, 500
BATCH_BYTES = LAM * DIM * 8
# a t run's two fireworks each keep a (d, d) shape and eigenvector matrix
RUN_MATRICES = 2 * 2 * DIM * DIM * 8


def _traced_peak(fn):
    """Bytes that ``fn()`` holds at its peak, above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(PROBLEM_NAMES))
def test_evaluate_batch_holds_at_most_two_and_a_half_batches(name):
    # the shifted batch and its rotation are two; the kernel works in the
    # rotated batch plus at most one temporary of its size
    problem = make_problem(name, DIM, seed=0)
    xs = np.random.default_rng(1).uniform(-100.0, 100.0, size=(LAM, DIM))
    problem.evaluate_batch(xs)
    peak = _traced_peak(lambda: problem.evaluate_batch(xs))
    assert peak <= 2.5 * BATCH_BYTES, peak / BATCH_BYTES


def test_explode_holds_at_most_three_spark_arrays():
    # the sparks, plus evaluate_batch's two while they are evaluated; the
    # draws are scaled in place and dropped once repair_bounds copies them
    problem = make_problem("rastrigin", DIM, seed=0)
    rng = np.random.default_rng(0)
    state = FireworkState(
        mean=rng.uniform(-50.0, 50.0, DIM),
        shape=np.eye(DIM),
        df=5.0,
        df_factor=1.05,
        path_c=np.zeros(DIM),
        path_s=np.zeros(DIM),
        scale=20.0,
        last_gen_best=math.inf,
        best_fitness=math.inf,
    )
    params = derive_params(LAM, DIM)
    explode(state, params, problem, rng)
    peak = _traced_peak(lambda: explode(state, params, problem, rng))
    assert peak <= 3.25 * BATCH_BYTES, peak / BATCH_BYTES


def test_a_run_holds_its_trace_in_56_bytes_a_row():
    # about 2000 rows: two uniform fireworks of ten sparks over 1000 generations
    problem = make_problem("sphere", 2, seed=0)
    uniform_fwa_run(problem, SwarmConfig(), seed=0, budget=20_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = uniform_fwa_run(problem, SwarmConfig(), seed=0, budget=20_000)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    rows = len(result.trace)
    assert rows > 1900
    # the result's other fields and the objects around the buffer are the constant
    assert held <= 7 * 8 * rows + 4096, held / rows


def _trace_write_peak(tmp_path, monkeypatch, rows):
    """Traced peak of a job whose one run has a trace of ``rows`` rows."""
    trace = [
        TraceRecord(g // 2, g % 2, 1.0 / (g + 1), 5.0, 100.0 / (g + 3), g % 9 == 0, 1.0 / (g + 2))
        for g in range(rows)
    ]
    result = RunResult(np.zeros(2), 0.0, 0, 0, Trace.of(trace))
    monkeypatch.setattr(tfwa.harness, "random_search_cell", lambda *args: [result])
    (tmp_path / "traces").mkdir(exist_ok=True)
    job = (("sphere", 2, 0), "random-search", SwarmConfig(), None, [0], str(tmp_path))
    _run_cells(job)
    return _traced_peak(lambda: _run_cells(job))


def test_writing_a_trace_holds_one_block(tmp_path, monkeypatch):
    # ten times the rows would be ten times the peak if the file's text were
    # built whole; a block at a time, the peak stays put
    small = _trace_write_peak(tmp_path, monkeypatch, 2_000)
    large = _trace_write_peak(tmp_path, monkeypatch, 20_000)
    assert large <= 1.25 * small, (small, large)


def _forced_degenerate(monkeypatch):
    """Have the second t firework of each run fail after evaluating its
    sparks in its third generation since a (re)start; returns the list that
    each forced failure appends to."""
    real_explode = swarm_mod.explode
    forced = []

    def explode(state, params, objective, rng):
        if state.df_factor == 10.0 and state.gen_count == 2:
            xs, fits = real_explode(state, params, objective, rng)
            forced.append(len(xs))
            raise DegenerateStateError("forced", sparks=xs, fitnesses=fits)
        return real_explode(state, params, objective, rng)

    monkeypatch.setattr(swarm_mod, "explode", explode)
    return forced


def _cell_peak(cell, reps, generations):
    """Traced peak of an in-turn rastrigin d=100 cell of ``reps`` runs."""
    problem = make_problem("rastrigin", DIM, seed=0)
    budget = 2 + generations * 2 * LAM
    cell(problem, SwarmConfig(), [0], budget)
    return _traced_peak(lambda: cell(problem, SwarmConfig(), range(reps), budget))


@pytest.mark.parametrize(
    "reps, generations, degenerate",
    [(1, 6, False), (5, 6, False), (3, 9, True)],
    ids=["one-run", "five-runs", "three-runs-degenerate"],
)
def test_a_t_cell_holds_three_spark_arrays_and_its_runs_matrices(
    monkeypatch, reps, generations, degenerate
):
    # one explosion's three arrays at a time, and each run's four (d, d)
    # matrices; the slack is the runs' vectors, generators and traces
    monkeypatch.setattr(swarm_mod, "THREAD_MIN_BURST_S", math.inf)
    forced = _forced_degenerate(monkeypatch) if degenerate else []
    peak = _cell_peak(run_cell, reps, generations)
    bound = 3 * BATCH_BYTES + reps * RUN_MATRICES + 0.5 * BATCH_BYTES
    assert peak <= bound, (peak / BATCH_BYTES, bound / BATCH_BYTES)
    assert len(forced) >= (reps if degenerate else 0)


@pytest.mark.parametrize("reps", [1, 5])
def test_a_uniform_cell_holds_three_and_a_half_spark_arrays(monkeypatch, reps):
    # at d=100 one firework's sparks exceed BLOCK_COORDS, so each burst
    # samples and evaluates one firework at a time
    monkeypatch.setattr(swarm_mod, "THREAD_MIN_BURST_S", math.inf)
    peak = _cell_peak(uniform_fwa_cell, reps, 6)
    assert peak <= 3.5 * BATCH_BYTES, peak / BATCH_BYTES


@pytest.mark.parametrize("degenerate", [False, True], ids=["plain", "degenerate"])
def test_a_pooled_generation_starts_with_the_last_ones_sparks_freed(monkeypatch, degenerate):
    # every generation after the two timed ones explodes on a pool of two
    # threads and starts by cutting its fireworks into chunks; by then no
    # array that explode returned in the generation before may be alive,
    # nor one that a failed explosion carried
    real_explode = swarm_mod.explode
    returned, alive = [], []

    def explode(state, params, objective, rng):
        xs, fits = real_explode(state, params, objective, rng)
        returned.extend([weakref.ref(xs), weakref.ref(fits)])
        return xs, fits

    def chunks(items, parts):
        alive.append(sum(ref() is not None for ref in returned))
        returned.clear()
        return _chunks(items, parts)

    monkeypatch.setattr(swarm_mod, "explode", explode)
    forced = _forced_degenerate(monkeypatch) if degenerate else []
    monkeypatch.setattr(swarm_mod, "_chunks", chunks)
    monkeypatch.setattr(swarm_mod, "THREAD_MIN_BURST_S", 0.0)
    monkeypatch.setattr(swarm_mod, "_cores", lambda: 2)
    problem = make_problem("rastrigin", 10, seed=0)
    run_cell(problem, SwarmConfig(), range(2), 2 + 12 * 2 * 50)
    assert alive == [0] * 10, alive
    assert len(forced) >= (4 if degenerate else 0)
