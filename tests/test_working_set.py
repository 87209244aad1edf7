"""Peak memory of one explosion and one batch evaluation, in spark-sized arrays.

numpy reports its array buffers to ``tracemalloc``, so the traced peak above
the start of a call counts the arrays the call holds at once.  At d = 100 an
explosion draws lam = 500 sparks: one spark-sized (lam, d) float array is
400 kB, and the pins below are multiples of it.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tfwa.benchfns import PROBLEM_NAMES, make_problem
from tfwa.explosion import FireworkState, derive_params, explode

DIM, LAM = 100, 500
BATCH_BYTES = LAM * DIM * 8


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
