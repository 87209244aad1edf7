"""The heap setting every run applies: glibc keeps freed memory in one heap.

Under glibc the first run in a process raises the mmap and trim thresholds
and caps glibc at one arena (``blas.keep_heap``), so a run's large
temporaries are reused from the heap instead of being returned to the kernel
and faulted in again every generation, and pool threads reuse them too.  The
setting is per process and cannot be undone, so the fault and arena counts
are taken in a fresh interpreter.
"""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tfwa import blas
from tfwa.baselines import random_search_run
from tfwa.benchfns import make_problem
from tfwa.swarm import SwarmConfig, run

SRC = Path(__file__).resolve().parents[1] / "src"

on_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")

_FAULTS_SCRIPT = """
import resource
from tfwa.baselines import random_search_run, uniform_fwa_run
from tfwa.benchfns import make_problem
from tfwa.swarm import SwarmConfig, run

def faults(runner, problem, budget):
    config = SwarmConfig(seed=0, budget=budget)
    runner(problem, config)  # warm up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    runner(problem, config)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

d100 = make_problem("rastrigin", 100, seed=0)
print(
    faults(run, d100, 20_000),
    faults(uniform_fwa_run, d100, 20_000),
    faults(random_search_run, make_problem("rastrigin", 10, seed=0), 100_000),
)
"""


_ARENAS_SCRIPT = """
import ctypes
import tfwa.swarm as swarm
from tfwa.benchfns import make_problem
from tfwa.swarm import SwarmConfig, run

# every generation after the two timed ones explodes on a pool of two threads
swarm.THREAD_MIN_BURST_S = 0
swarm._cores = lambda: 2
run(make_problem("rastrigin", 100, seed=0), SwarmConfig(seed=0, budget=2 + 4 * 2 * 500))
ctypes.CDLL(None).malloc_stats()
"""


def _python(script):
    """The finished process of ``python -c script`` with ``src`` importable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )


@on_glibc
def test_warm_runs_do_not_page_fault():
    # without the setting these runs took about 14,700, 2,200 and 6,200
    # minor faults: each generation's temporaries of 400-512 KB went back
    # to the kernel when freed and were faulted in again
    tfwa, uniform, random_search = map(int, _python(_FAULTS_SCRIPT).stdout.split())
    assert tfwa < 1000
    assert uniform < 1000
    assert random_search < 1000


@on_glibc
def test_pooled_run_allocates_from_one_arena():
    # without the cap a pool thread got an arena of its own, about 2 MB
    # that the trim threshold kept for the life of the process
    stats = _python(_ARENAS_SCRIPT).stderr.splitlines()
    assert sum(line.startswith("Arena ") for line in stats) == 1


def _same_run(a, b):
    return (
        a.best_fitness == b.best_fitness
        and np.array_equal(a.best_position, b.best_position)
        and (a.evals_used, a.generations, a.trace) == (b.evals_used, b.generations, b.trace)
    )


def _fake_libc(monkeypatch, libc, accepts=lambda param: True):
    """Make the next run look for ``mallopt`` afresh, under ``libc``, and
    record the calls it makes, accepting those whose parameter ``accepts``;
    return the list of calls."""
    blas.threads()  # the OpenBLAS lookup also goes through ctypes.CDLL
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return int(accepts(param))

    monkeypatch.setattr(blas, "_heap_kept", False)
    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: (libc, "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return calls


CONFIG = SwarmConfig(seed=3, budget=2_000)


def test_off_glibc_nothing_is_called_and_the_run_is_unchanged(monkeypatch):
    problem = make_problem("rastrigin", 5, seed=0)
    expected = run(problem, CONFIG)
    calls = _fake_libc(monkeypatch, "")
    result = run(problem, CONFIG)
    assert calls == []
    assert _same_run(result, expected)


def test_heap_setting_is_applied_once_per_process(monkeypatch):
    calls = _fake_libc(monkeypatch, "glibc")
    problem = make_problem("rastrigin", 5, seed=0)
    run(problem, CONFIG)
    random_search_run(problem, CONFIG)
    run(problem, CONFIG)
    mib = 2**20
    assert calls == [(-3, 32 * mib), (-1, 64 * mib), (-8, 1)]


def test_refused_mmap_threshold_warns_and_leaves_trim_alone(monkeypatch):
    # the trim threshold alone would switch glibc's dynamic threshold off
    # and fault more, not less
    calls = _fake_libc(monkeypatch, "glibc", accepts=lambda param: False)
    with pytest.warns(UserWarning, match="mallopt"):
        run(make_problem("rastrigin", 5, seed=0), CONFIG)
    assert calls == [(-3, 32 * 2**20)]


def test_refused_arena_cap_warns_after_the_thresholds(monkeypatch):
    calls = _fake_libc(monkeypatch, "glibc", accepts=lambda param: param != -8)
    with pytest.warns(UserWarning, match=r"mallopt\(-8, 1\)"):
        run(make_problem("rastrigin", 5, seed=0), CONFIG)
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20), (-8, 1)]
