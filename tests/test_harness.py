"""Experiment runner, file outputs, and CLI behaviour."""

import csv
import io
import json
import math
import multiprocessing
import numbers
import os
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

import tfwa.harness
import tfwa.swarm
from tfwa.harness import (
    ALGORITHMS,
    RESULT_FIELDS,
    ExperimentConfig,
    _run_cells,
    _summarise,
    load_experiment,
    main,
    run_experiment,
    validate_experiment,
)
from tfwa.benchfns import PROBLEM_NAMES, make_problem
from tfwa.swarm import RunResult, SwarmConfig, Trace, TraceRecord
from tfwa.tdist import DF_CAP

EXPERIMENTS = sorted((Path(__file__).resolve().parent.parent / "experiments").glob("*.json"))

SMALL = dict(
    suite=("sphere", "rastrigin"),
    dims=(2,),
    algos=("tfwa", "uniform-fwa"),
    reps=2,
    budget_multiplier=150,
    base_seed=0,
)


def test_validate_rejects_unknown_problem():
    with pytest.raises(ValueError):
        validate_experiment(ExperimentConfig(suite=("nonesuch",)))


def test_validate_rejects_unknown_algo():
    with pytest.raises(ValueError):
        validate_experiment(ExperimentConfig(algos=("simulated-annealing",)))


def test_validate_rejects_bad_counts():
    with pytest.raises(ValueError):
        validate_experiment(ExperimentConfig(reps=0))
    with pytest.raises(ValueError):
        validate_experiment(ExperimentConfig(dims=(1,)))
    with pytest.raises(ValueError):
        validate_experiment(ExperimentConfig(workers=0))


@pytest.mark.parametrize(
    "grid",
    [
        {"suite": ("sphere", "rastrigin", "sphere")},
        {"dims": (2, 5, 2)},
        {"algos": ("tfwa", "tfwa")},
    ],
    ids=["suite", "dims", "algos"],
)
def test_validate_rejects_repeated_entries(grid):
    with pytest.raises(ValueError, match="twice"):
        validate_experiment(ExperimentConfig(**grid))


def test_cli_run_rejects_repeated_problem(tmp_path, capsys):
    argv = ["run", "--suite", "sphere", "sphere", "--dims", "2", "--algos", "random-search"]
    code = main([*argv, "--reps", "3", "--budget-mult", "100", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "suite lists an entry twice" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"suite": [], "reps": 2, "dims": [2]}, "suite is empty"),
        ({"suite": ["sphere"], "dims": []}, "dims is empty"),
        ({"suite": ["sphere"], "dims": [2], "algos": []}, "algos is empty"),
        (
            {
                "suite": ["sphere"],
                "dims": [20, 2],
                "budget_multiplier": 1000,
                "swarm": {"sparks_per_firework": 1000},
            },
            "at dim 2: budget 2000 cannot cover",
        ),
    ],
    ids=["empty-suite", "empty-dims", "empty-algos", "shape-bad-at-one-dim"],
)
def test_cli_run_rejects_grid_before_any_run(tmp_path, capsys, monkeypatch, grid, message):
    # a grid without runs, or with a run shape that fails at one dimension
    # only, is an error before the first run, and nothing is written
    made = []
    monkeypatch.setattr(tfwa.harness, "make_problem", lambda *args: made.append(args))
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(grid))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert made == []
    assert not (tmp_path / "x").exists()


def test_run_experiment_row_grid(tmp_path):
    config = ExperimentConfig(out_dir=str(tmp_path / "out"), **SMALL)
    rows, summary = run_experiment(config)
    assert len(rows) == 2 * 2 * 2
    for problem in ("sphere", "rastrigin"):
        for algo in ("tfwa", "uniform-fwa"):
            sub = [r for r in rows if r["problem"] == problem and r["algo"] == algo]
            assert [r["rep"] for r in sub] == [0, 1]
            assert [r["seed"] for r in sub] == [0, 1]
    for row in rows:
        assert row["evals"] <= 150 * 2 + 2
        assert np.isfinite(row["best_gap"])
    assert len(summary) == 4


def test_run_experiment_files(tmp_path):
    out = tmp_path / "out"
    config = ExperimentConfig(out_dir=str(out), **SMALL)
    rows, summary = run_experiment(config)

    with open(out / "results.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert tuple(header) == RESULT_FIELDS
    assert len(body) == len(rows)

    with open(out / "summary.csv", newline="") as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == len(summary)
    for srow in srows:
        gaps = [
            r["best_gap"]
            for r in rows
            if r["problem"] == srow["problem"]
            and str(r["dim"]) == srow["dim"]
            and r["algo"] == srow["algo"]
        ]
        arr = np.asarray(gaps)
        assert float(srow["mean_gap"]) == pytest.approx(arr.mean(), abs=1e-12)
        assert float(srow["std_gap"]) == pytest.approx(arr.std(ddof=1), abs=1e-12)
        assert float(srow["median_gap"]) == pytest.approx(np.median(arr), abs=1e-12)

    with open(out / "config.json") as fh:
        echo = json.load(fh)
    assert echo["budget_multiplier"] == 150
    assert echo["suite"] == ["sphere", "rastrigin"]

    trace_files = sorted((out / "traces").glob("*.jsonl"))
    assert len(trace_files) == len(rows)
    expected = {
        f"{r['problem']}_d{r['dim']}_{r['algo']}_rep{r['rep']}.jsonl" for r in rows
    }
    assert {p.name for p in trace_files} == expected
    for path in trace_files:
        with open(path) as fh:
            lines = fh.readlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert list(rec.keys()) == ["gen", "fw", "gap", "df", "scale", "restart", "best_gap"]


def test_run_experiment_deterministic_files(tmp_path):
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        run_experiment(ExperimentConfig(out_dir=str(out), **SMALL))
        blob = {"results": (out / "results.csv").read_bytes()}
        for path in sorted((out / "traces").glob("*.jsonl")):
            blob[path.name] = path.read_bytes()
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_run_experiment_workers_match_serial(tmp_path):
    # every algorithm, and every file but config.json (which echoes the
    # worker count), byte for byte
    grid = dict(SMALL, algos=ALGORITHMS)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    run_experiment(ExperimentConfig(out_dir=str(serial), **grid))
    run_experiment(ExperimentConfig(out_dir=str(parallel), workers=2, **grid))
    for name in ("results.csv", "summary.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
    names = sorted(p.name for p in (serial / "traces").iterdir())
    assert names == sorted(p.name for p in (parallel / "traces").iterdir())
    assert len(names) == 2 * 4 * 2
    for name in names:
        assert (serial / "traces" / name).read_bytes() == (
            parallel / "traces" / name
        ).read_bytes(), name


def test_one_cell_grid_is_identical_at_any_worker_count(tmp_path):
    # with fewer cells than workers a cell's repetitions split into chunks,
    # one per worker, and the rows come back in grid order
    blobs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        config = ExperimentConfig(
            suite=("rastrigin",),
            dims=(2,),
            algos=("uniform-fwa",),
            reps=5,
            budget_multiplier=200,
            workers=workers,
            out_dir=str(out),
        )
        rows, _ = run_experiment(config)
        assert [r["rep"] for r in rows] == [0, 1, 2, 3, 4]
        blobs.append(
            {
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in out.rglob("*.*")
                if path.name != "config.json"
            }
        )
    assert len(blobs[0]) == 2 + 5
    assert blobs[0] == blobs[1] == blobs[2]


def _jsonl(trace):
    """The text :meth:`Trace.write` writes for ``trace``."""
    fh = io.StringIO()
    trace.write(fh)
    return fh.getvalue()


_SPECIAL_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    5e-324,
    1e-310,
    2.2250738585072009e-308,
    1e-300,
    -1e300,
    1e16,
    0.1,
    5.0,
    -3.0,
]
# a trace buffer holds float64s only: gen and fw as whole floats, read back as
# ints, and gap, df, scale and best_gap as they were recorded
_TRACE_FLOATS = hst.one_of(
    hst.floats(),
    hst.sampled_from(_SPECIAL_FLOATS),
    hst.sampled_from(_SPECIAL_FLOATS).map(np.float64),
    hst.floats().map(np.float64),
    # whole numbers, which json.dumps spells with a ".0" as float.__repr__ does
    hst.integers(min_value=-(2**53), max_value=2**53).map(float),
)
_TRACE_RECORDS = hst.lists(
    hst.builds(
        TraceRecord,
        gen=hst.integers(min_value=0, max_value=10**9),
        fw=hst.integers(min_value=0, max_value=64),
        gap=_TRACE_FLOATS,
        df=_TRACE_FLOATS,
        scale=_TRACE_FLOATS,
        restart=hst.booleans(),
        best_gap=_TRACE_FLOATS,
    ),
    max_size=7,
)
_LONG_TRACE = [
    TraceRecord(g // 2, g % 2, 0.1 * g, 5.0, 1e16 / (g + 1), g % 7 == 0, 1.0 / (g + 1))
    for g in range(2 * tfwa.swarm.TRACE_BLOCK_ROWS + 3)
]


def _record_bits(rec):
    floats = (rec.gap, rec.df, rec.scale, rec.best_gap)
    return (rec.gen, rec.fw, rec.restart, *(struct.pack("<d", x) for x in floats))


@settings(max_examples=300, deadline=None)
@given(
    records=_TRACE_RECORDS,
    block_rows=hst.sampled_from([1, 2, 3, tfwa.swarm.TRACE_BLOCK_ROWS]),
)
@example(records=_LONG_TRACE, block_rows=tfwa.swarm.TRACE_BLOCK_ROWS)
def test_trace_jsonl_matches_json_dumps(records, block_rows):
    # whatever the block size, and across block ends, the text is json.dumps
    # of each record, line by line
    expected = "".join(
        json.dumps(
            {
                "gen": rec.gen,
                "fw": rec.fw,
                "gap": rec.gap,
                "df": rec.df,
                "scale": rec.scale,
                "restart": rec.restart,
                "best_gap": rec.best_gap,
            }
        )
        + "\n"
        for rec in records
    )
    with mock.patch.object(tfwa.swarm, "TRACE_BLOCK_ROWS", block_rows):
        assert _jsonl(Trace.of(records)) == expected


@settings(max_examples=200, deadline=None)
@given(records=_TRACE_RECORDS)
@example(records=_LONG_TRACE)
def test_trace_reads_back_its_records(records):
    # a Trace of the records gives them back bit for bit, by iteration,
    # index and slice
    result = RunResult(np.zeros(2), 0.0, 0, 0, Trace.of(records))
    trace = result.trace
    assert isinstance(trace, Trace)
    assert len(trace) == len(records)
    expected = [_record_bits(rec) for rec in records]
    assert [_record_bits(rec) for rec in trace] == expected
    assert [_record_bits(trace[i]) for i in range(len(records))] == expected
    assert [_record_bits(trace[i - len(records)]) for i in range(len(records))] == expected
    assert [_record_bits(rec) for rec in trace[1::2]] == expected[1::2]
    assert all(type(rec.gen) is int and type(rec.restart) is bool for rec in trace)
    with pytest.raises(IndexError):
        trace[len(records)]
    assert result.restarts == sum(rec.restart for rec in records)
    # equal as the records' values are, so a NaN makes two traces differ
    has_nan = any(
        math.isnan(x) for rec in records for x in (rec.gap, rec.df, rec.scale, rec.best_gap)
    )
    assert (trace == Trace.of(records)) is not has_nan


def test_run_experiment_gaussian_limit_and_random_search(tmp_path):
    config = ExperimentConfig(
        suite=("sphere",),
        dims=(2,),
        algos=("gaussian-limit", "random-search"),
        reps=1,
        budget_multiplier=150,
        out_dir=str(tmp_path / "out"),
    )
    rows, _ = run_experiment(config)
    assert {r["algo"] for r in rows} == {"gaussian-limit", "random-search"}
    limit_trace = tmp_path / "out" / "traces" / "sphere_d2_gaussian-limit_rep0.jsonl"
    with open(limit_trace) as fh:
        dfs = {json.loads(line)["df"] for line in fh}
    assert dfs == {DF_CAP}


def test_gaussian_limit_row_is_tfwa_at_the_df_cap(tmp_path):
    # the table's gaussian-limit row is tfwa with df_init at DF_CAP and
    # nothing else: its grid writes the rows and traces of a tfwa grid with
    # that swarm field, restarts included
    grid = dict(suite=("sphere", "rastrigin"), dims=(2, 5), reps=2, budget_multiplier=300)
    limit, _ = run_experiment(
        ExperimentConfig(algos=("gaussian-limit",), out_dir=str(tmp_path / "limit"), **grid)
    )
    capped, _ = run_experiment(
        ExperimentConfig(
            algos=("tfwa",),
            swarm=SwarmConfig(df_init=DF_CAP),
            out_dir=str(tmp_path / "capped"),
            **grid,
        )
    )
    assert [{**row, "algo": "tfwa"} for row in limit] == capped
    assert sum(row["restarts"] for row in limit) > 0
    traces = {
        p.name.replace("_gaussian-limit_", "_tfwa_"): p.read_bytes()
        for p in (tmp_path / "limit" / "traces").iterdir()
    }
    assert len(traces) == len(limit)
    assert traces == {p.name: p.read_bytes() for p in (tmp_path / "capped" / "traces").iterdir()}


def test_run_experiment_resolves_runner_at_call_time(monkeypatch):
    # a rebinding of the module attribute substitutes the runner in every job
    real = tfwa.harness.uniform_fwa_cell
    seen = []

    def wrapped(problem, config, seeds, budget):
        seen.append((list(seeds), budget))
        return real(problem, config, seeds, budget)

    monkeypatch.setattr(tfwa.harness, "uniform_fwa_cell", wrapped)
    config = ExperimentConfig(
        suite=("sphere",), dims=(2,), algos=("uniform-fwa",), reps=2, budget_multiplier=100
    )
    rows, _ = run_experiment(config)
    assert seen == [([0, 1], 200)]
    assert len(rows) == 2


@pytest.mark.parametrize("traced", [True, False], ids=["out-dir", "no-out-dir"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_cells_writes_each_trace_and_returns_numbers(tmp_path, monkeypatch, algo, traced):
    # a job returns each run's finished results.csv row, and its runs'
    # traces are on disk by the time it returns
    runner, _ = tfwa.harness._RUNNERS[algo]
    real, results = getattr(tfwa.harness, runner), []

    def keep(problem, config, seeds, budget):
        results.extend(real(problem, config, seeds, budget))
        return results

    monkeypatch.setattr(tfwa.harness, runner, keep)
    (tmp_path / "traces").mkdir()
    # repetitions 1 and 2 of a grid with base seed 3
    out_dir = str(tmp_path) if traced else None
    outcomes = _run_cells((("sphere", 2, 3), algo, SwarmConfig(), 300, [4, 5], out_dir))

    f_star = make_problem("sphere", 2, 3).f_star
    assert outcomes == [
        {
            "problem": "sphere",
            "dim": 2,
            "algo": algo,
            "rep": rep,
            "seed": seed,
            "best_gap": r.best_fitness - f_star,
            "evals": r.evals_used,
            "generations": r.generations,
            "restarts": r.restarts,
        }
        for rep, seed, r in zip((1, 2), (4, 5), results)
    ]
    for row in outcomes:
        assert tuple(row) == RESULT_FIELDS
        assert all(isinstance(row[key], numbers.Real) for key in RESULT_FIELDS[5:])
    written = {p.name: p.read_text() for p in (tmp_path / "traces").iterdir()}
    if traced:
        assert written == {
            f"sphere_d2_{algo}_rep{rep}.jsonl": _jsonl(result.trace)
            for rep, result in zip((1, 2), results)
        }
    else:
        assert written == {}


def test_failed_grid_keeps_finished_traces_and_writes_no_results(tmp_path, monkeypatch):
    # each job writes its traces as it ends, the grid files only come after
    # the last job, so a grid whose second cell raises leaves the first's traces
    def fail(problem, config, seeds, budget):
        raise RuntimeError("cell failed")

    monkeypatch.setattr(tfwa.harness, "uniform_fwa_cell", fail)
    out = tmp_path / "out"
    config = ExperimentConfig(out_dir=str(out), **dict(SMALL, suite=("sphere",)))
    with pytest.raises(RuntimeError, match="cell failed"):
        run_experiment(config)
    assert sorted(p.name for p in out.iterdir()) == ["traces"]
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        "sphere_d2_tfwa_rep0.jsonl",
        "sphere_d2_tfwa_rep1.jsonl",
    ]


# six cells, claimed in this order, each under the key the job log gives it
SIX_CELLS = dict(
    suite=("sphere", "rastrigin", "ackley"),
    dims=(2,),
    algos=("random-search", "uniform-fwa"),
    reps=2,
    budget_multiplier=100,
)
SIX_JOBS = [
    f"{name}/{tfwa.harness._RUNNERS[algo][0]}/0"
    for name in SIX_CELLS["suite"]
    for algo in SIX_CELLS["algos"]
]
ONE_CELL = dict(suite=("rastrigin",), dims=(2,), algos=("uniform-fwa",), reps=5, budget_multiplier=100)
# the one cell's five repetitions in one chunk per worker, keyed by first seed
ONE_CELL_JOBS = {
    workers: [f"rastrigin/uniform_fwa_cell/{seed}" for seed in seeds]
    for workers, seeds in {1: (0,), 2: (0, 3), 3: (0, 2, 4), 4: (0, 2, 3, 4)}.items()
}


@pytest.fixture
def fork_pool(monkeypatch):
    """Grid pools fork their workers, which so inherit this process's
    monkeypatches; returns the worker count of each pool started."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    sizes = []

    def pool(processes, **kwargs):
        sizes.append(processes)
        return ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"), **kwargs)

    monkeypatch.setattr(tfwa.harness, "ProcessPoolExecutor", pool)
    return sizes


def _log_jobs(monkeypatch, log, fail=None, pause=0.0, worker_exits=False, caller_pause=0.0):
    """Make each job append ``<pid> <problem>/<cell runner>/<first seed>``
    to ``log`` as it starts; the job named ``fail`` then raises, a pool
    worker's first job ends its process when ``worker_exits`` is set, and
    the other jobs wait ``pause`` seconds before they run, plus
    ``caller_pause`` in this process.  It wraps each cell runner once, as
    algorithms may share one, and ``_run_cells`` looks the runners up when
    it runs, in a forked pool worker too."""
    caller = os.getpid()

    def logged(name, runner):
        def run(problem, config, seeds, budget):
            key = f"{problem.name}/{name}/{seeds[0]}"
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {key}\n")
            if key == fail:
                raise RuntimeError(f"job {key} failed")
            if worker_exits and os.getpid() != caller:
                os._exit(1)
            time.sleep(pause + (caller_pause if os.getpid() == caller else 0.0))
            return runner(problem, config, seeds, budget)

        return run

    for name in dict.fromkeys(name for name, _ in tfwa.harness._RUNNERS.values()):
        monkeypatch.setattr(tfwa.harness, name, logged(name, getattr(tfwa.harness, name)))


def _job_log(log):
    lines = [line.split() for line in log.read_text().splitlines()]
    return {int(pid) for pid, _ in lines}, [key for _, key in lines]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "grid, keys",
    [(SIX_CELLS, dict.fromkeys((1, 2, 3, 4), SIX_JOBS)), (ONE_CELL, ONE_CELL_JOBS)],
    ids=["six-cells", "one-cell"],
)
def test_every_job_is_claimed_once(tmp_path, monkeypatch, fork_pool, grid, keys, workers):
    # this process and workers - 1 pool workers run the jobs between them,
    # and the rows come back in grid order, as a grid on one process gives
    # them; at four workers, more than a two-core machine has cores, three
    # pool jobs' done-callbacks race this process for claims, which a short
    # switch interval makes interleave often
    expected, _ = run_experiment(ExperimentConfig(**grid))
    log = tmp_path / "jobs.log"
    _log_jobs(monkeypatch, log)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows, _ = run_experiment(ExperimentConfig(workers=workers, **grid))
    finally:
        sys.setswitchinterval(interval)
    pids, claimed = _job_log(log)
    assert sorted(claimed) == sorted(keys[workers])
    assert fork_pool == ([workers - 1] if workers > 1 else [])
    assert len(pids) <= workers
    assert rows == expected


def test_one_worker_starts_no_pool_and_no_lock(tmp_path, monkeypatch, fork_pool):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-process grid made a shared value")

    monkeypatch.setattr(multiprocessing, "Value", refuse)
    log = tmp_path / "jobs.log"
    _log_jobs(monkeypatch, log)
    run_experiment(ExperimentConfig(**SIX_CELLS))
    assert fork_pool == []
    assert _job_log(log) == ({os.getpid()}, SIX_JOBS)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_failed_job_ends_the_grid_and_stops_claims(tmp_path, monkeypatch, fork_pool, workers):
    # the second job raises as it starts while every other job takes 0.5 s,
    # so besides the first two only the jobs the other claimers held when it
    # raised, one each at most, can have started
    log = tmp_path / "jobs.log"
    _log_jobs(monkeypatch, log, fail=SIX_JOBS[1], pause=0.5)
    sharing = tfwa.swarm._sharing
    with pytest.raises(RuntimeError, match=f"job {SIX_JOBS[1]} failed"):
        run_experiment(ExperimentConfig(workers=workers, out_dir=str(tmp_path / "out"), **SIX_CELLS))
    pids, started = _job_log(log)
    assert SIX_JOBS[1] in started
    assert len(set(started)) == len(started)
    assert set(started) <= set(SIX_JOBS[: workers + 1])
    assert len(pids) <= workers
    assert not (tmp_path / "out" / "results.csv").exists()
    assert tfwa.swarm._sharing == sharing


@pytest.mark.parametrize("workers", [2, 3])
def test_dead_worker_ends_the_grid_and_stops_claims(tmp_path, monkeypatch, fork_pool, workers):
    # a pool worker that dies ends its job's future with BrokenProcessPool,
    # and that empties the claims this process holds, so the grid ends
    # without this process running the jobs nobody had claimed; besides the
    # pool's first jobs only this process's next claim can have started
    log = tmp_path / "jobs.log"
    _log_jobs(monkeypatch, log, pause=0.5, worker_exits=True)
    with pytest.raises(BrokenProcessPool):
        run_experiment(ExperimentConfig(workers=workers, **SIX_CELLS))
    _, started = _job_log(log)
    assert set(started) <= set(SIX_JOBS[: workers + 1])


def test_pool_stays_busy_while_this_process_runs_a_long_job(tmp_path, monkeypatch, fork_pool):
    # each pool job claims the pool's next as it ends, so the pool worker
    # runs every other job while this process is still in its first one
    expected, _ = run_experiment(ExperimentConfig(**SIX_CELLS))
    log = tmp_path / "jobs.log"
    _log_jobs(monkeypatch, log, caller_pause=2.0)
    rows, _ = run_experiment(ExperimentConfig(workers=2, **SIX_CELLS))
    lines = [line.split() for line in log.read_text().splitlines()]
    per_pid = Counter(int(pid) for pid, _ in lines)
    assert per_pid.pop(os.getpid()) == 1
    assert list(per_pid.values()) == [5]
    assert sorted(key for _, key in lines) == sorted(SIX_JOBS)
    assert rows == expected


def _grid_files(out):
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*.*"))
        if path.name != "config.json"
    }


# one budget of 11 * dim covers initialisation and one generation at each dim
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@example(grid=dict(suite=["sphere"], dims=[2], algos=["uniform-fwa"], reps=4, budget_multiplier=11))
@given(
    grid=hst.fixed_dictionaries(
        {
            "suite": hst.lists(hst.sampled_from(PROBLEM_NAMES), min_size=1, max_size=3, unique=True),
            "dims": hst.lists(hst.sampled_from([2, 3, 5]), min_size=1, max_size=3, unique=True),
            "algos": hst.lists(hst.sampled_from(ALGORITHMS), min_size=1, max_size=4, unique=True),
            "reps": hst.integers(1, 4),
            "budget_multiplier": hst.integers(11, 100),
        }
    )
)
def test_grid_files_do_not_depend_on_the_worker_count(fork_pool, grid):
    # whichever process claims a job, and however a cell is chunked, the
    # grid's files match those of one process, with one trace per row
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for workers in (1, 2, 3):
            out = Path(tmp, f"w{workers}")
            rows, _ = run_experiment(ExperimentConfig(workers=workers, out_dir=str(out), **grid))
            files[workers] = _grid_files(out)
            assert len(files[workers]) == 2 + len(rows)
        assert files[1] == files[2] == files[3]


def test_rerun_into_a_used_out_dir_drops_the_old_traces(tmp_path):
    # a grid of three repetitions, then one of two into the same directory,
    # leaves one trace per results.csv row; other files in traces/ stay
    out = tmp_path / "out"
    grid = dict(
        suite=("sphere",), dims=(2,), algos=("random-search",), budget_multiplier=50, out_dir=str(out)
    )
    run_experiment(ExperimentConfig(reps=3, **grid))
    (out / "traces" / "notes.txt").write_text("kept\n")
    run_experiment(ExperimentConfig(reps=2, **grid))
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        "notes.txt",
        "sphere_d2_random-search_rep0.jsonl",
        "sphere_d2_random-search_rep1.jsonl",
    ]
    assert len((out / "results.csv").read_text().splitlines()) == 1 + 2


def test_failed_rerun_into_a_used_out_dir_leaves_no_old_results(tmp_path, monkeypatch):
    # a grid whose job raises must not leave an earlier grid's results.csv,
    # summary.csv and config.json behind as if they were its own
    out = tmp_path / "out"
    grid = ExperimentConfig(
        suite=("sphere",),
        dims=(2,),
        algos=("random-search",),
        reps=3,
        budget_multiplier=50,
        out_dir=str(out),
    )
    run_experiment(grid)
    (out / "notes.txt").write_text("kept\n")

    def failing_cell(problem, config, seeds, budget):
        raise RuntimeError("cell failed")

    monkeypatch.setattr(tfwa.harness, "random_search_cell", failing_cell)
    with pytest.raises(RuntimeError, match="cell failed"):
        run_experiment(grid)
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "traces"]
    assert list((out / "traces").iterdir()) == []


def test_cli_rerun_from_config_json_into_its_own_out_dir(tmp_path, capsys):
    # the config is read before the rerun deletes the old config.json
    out = tmp_path / "out"
    argv = ["run", "--suite", "sphere", "--dims", "2", "--algos", "uniform-fwa", "random-search"]
    argv += ["--reps", "2", "--budget-mult", "100", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0

    def files():
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    first = files()
    assert main(["run", "--config", str(out / "config.json"), "--out", str(out)]) == 0
    assert files() == first
    assert len(first) == 3 + 2 * 2


def test_summarise_gives_nan_std_for_infinite_gaps_without_warning():
    # an objective that is NaN everywhere leaves a run at gap inf; its cell's
    # std is nan, as before, but numpy no longer warns about inf - inf
    cells = {
        "all-inf": [math.inf] * 3,
        "one-inf": [1.0, math.inf, 2.0],
        "finite": [1.0, 2.0, 4.0],
        "one-run": [math.inf],
    }
    rows = [
        {"problem": "sphere", "dim": 2, "algo": algo, "best_gap": gap}
        for algo, gaps in cells.items()
        for gap in gaps
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = {row["algo"]: row for row in _summarise(rows)}
    assert [summary[algo]["reps"] for algo in cells] == [3, 3, 3, 1]
    assert [summary[algo]["mean_gap"] for algo in cells] == [math.inf, math.inf, 7 / 3, math.inf]
    assert [summary[algo]["median_gap"] for algo in cells] == [math.inf, 2.0, 2.0, math.inf]
    assert math.isnan(summary["all-inf"]["std_gap"])
    assert math.isnan(summary["one-inf"]["std_gap"])
    assert summary["finite"]["std_gap"] == float(np.std([1.0, 2.0, 4.0], ddof=1))
    assert summary["one-run"]["std_gap"] == 0.0


def test_cli_run_and_outputs(tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = main(
        [
            "run",
            "--suite",
            "sphere",
            "--dims",
            "2",
            "--algos",
            "tfwa",
            "--reps",
            "2",
            "--budget-mult",
            "150",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "sphere d=2 tfwa: mean gap" in stdout
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "config.json").exists()


def test_cli_run_requires_output_dir(capsys):
    code = main(["run", "--suite", "sphere", "--dims", "2", "--reps", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["compare", "--inputs", "a.csv", "b.csv", "--a", "x"], "--a x"),
        (["run", "--suite", "sphere", "--dims", "2", "--out", "x", "--work", "2"], "--work 2"),
        (["rank", "--inputs", "a.csv", "--in", "b.csv"], "--in b.csv"),
    ],
    ids=["compare", "run", "rank"],
)
def test_cli_rejects_abbreviated_flags(tmp_path, capsys, monkeypatch, argv, flag):
    # an abbreviation is an unknown flag, so that a later flag sharing its
    # prefix cannot change what it means
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_run_rejects_unknown_problem(tmp_path, capsys):
    code = main(
        ["run", "--suite", "warts", "--dims", "2", "--reps", "1", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_cli_run_rejects_nan_eps(tmp_path, capsys):
    argv = ["run", "--suite", "sphere", "--dims", "5", "--reps", "1", "--budget-mult", "600"]
    code = main([*argv, "--eps", "nan", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "eps must be positive" in capsys.readouterr().err


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    out = tmp_path / "from_config"
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps(
            {
                "suite": ["sphere"],
                "dims": [2],
                "algos": ["random-search"],
                "reps": 1,
                "budget_multiplier": 100,
                "out_dir": str(out),
            }
        )
    )
    code = main(["run", "--config", str(cfg_path), "--reps", "2"])
    assert code == 0
    with open(out / "config.json") as fh:
        echo = json.load(fh)
    assert echo["reps"] == 2
    assert echo["algos"] == ["random-search"]


def test_cli_config_file_rejects_unknown_swarm_key(tmp_path, capsys):
    # adjust_df was removed: a df_init at the cap is the frozen Gaussian limit
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(
        json.dumps(
            {
                "suite": ["sphere"],
                "dims": [2],
                "reps": 1,
                "budget_multiplier": 100,
                "swarm": {"adjust_df": False},
            }
        )
    )
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "z")])
    assert code == 2
    assert "adjust_df" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_cli_rerun_from_config_json_is_byte_identical(tmp_path, capsys):
    # a non-default seed, budget multiplier and eps, so a field read back
    # under the wrong name or dropped would change the rerun's output
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["run", "--suite", "sphere", "rastrigin", "--dims", "2", "--algos", *ALGORITHMS]
    argv += ["--reps", "2", "--budget-mult", "150", "--seed", "7", "--eps", "1e-5"]
    assert main([*argv, "--out", str(first)]) == 0
    assert main(["run", "--config", str(first / "config.json"), "--out", str(second)]) == 0
    for name in ("results.csv", "summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    names = sorted(p.name for p in (first / "traces").iterdir())
    assert names == sorted(p.name for p in (second / "traces").iterdir())
    assert len(names) == 2 * len(ALGORITHMS) * 2
    for name in names:
        assert (first / "traces" / name).read_bytes() == (
            second / "traces" / name
        ).read_bytes(), name
    echo_first = json.loads((first / "config.json").read_text())
    echo_second = json.loads((second / "config.json").read_text())
    assert echo_first.pop("out_dir") == str(first)
    assert echo_second.pop("out_dir") == str(second)
    assert echo_first == echo_second


@pytest.mark.parametrize("key", ["rep", "budget_mult", "seed", "out"])
def test_cli_config_file_rejects_unknown_key(tmp_path, capsys, key):
    # budget_mult, seed and out are the flags' names, not config.json's
    cfg_path = tmp_path / "exp.json"
    grid = {"suite": ["sphere"], "dims": [2], "algos": ["random-search"], "reps": 3}
    cfg_path.write_text(json.dumps({**grid, key: str(tmp_path / "y") if key == "out" else 2}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("path", EXPERIMENTS, ids=[p.stem for p in EXPERIMENTS])
def test_committed_experiment_loads_and_validates(tmp_path, path):
    validate_experiment(load_experiment(path))
    # a key that is not a field is an error, not a silent default
    copy = tmp_path / path.name
    copy.write_text(json.dumps({**json.loads(path.read_text()), "repetitions": 30}))
    with pytest.raises(TypeError, match="repetitions"):
        load_experiment(copy)


@pytest.mark.parametrize(
    "key, value",
    [
        ("budget_multiplier", 100.5),
        ("dims", [2.5]),
        ("reps", True),
        ("workers", 1.5),
        ("base_seed", 0.0),
        ("swarm", {"n_fireworks": 2.0}),
        ("swarm", {"sparks_per_firework": 10.5}),
    ],
    ids=["budget_multiplier", "dims", "reps", "workers", "base_seed", "n_fireworks", "sparks"],
)
def test_cli_config_file_rejects_non_integer_counts(tmp_path, capsys, key, value):
    # JSON types its numbers itself: a float or a bool once ran, or failed
    # with a message that named another key
    cfg_path = tmp_path / "exp.json"
    grid = {"suite": ["sphere"], "dims": [2], "algos": ["random-search"], "reps": 3}
    cfg_path.write_text(json.dumps({**grid, key: value}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    name = next(iter(value)) if key == "swarm" else key
    assert f"{name} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "fields, flags, message",
    [
        ({"swarm": {"literal_psigma": "no"}}, [], "literal_psigma must be true or false"),
        ({"swarm": {"eps": True}}, [], "eps must be a real number"),
        ({"swarm": {"df_init": "5"}}, [], "df_init must be a real number"),
        ({"swarm": {"df_factors": [1.05, "10"]}}, [], "df_factors must be a real number"),
        ({"swarm": {"df_factors": 5}}, [], "df_factors must be a list"),
        ({}, ["--seed", "-5"], "base_seed must be non-negative"),
        ({"out_dir": 5}, [], "out_dir must be a string"),
        ({"suite": "sphere"}, [], "suite must be a list"),
        ({"dims": 10}, [], "dims must be a list"),
        ({"algos": "tfwa"}, [], "algos must be a list"),
    ],
    ids=[
        "literal_psigma",
        "eps",
        "df_init",
        "df_factors",
        "df_factors_not_list",
        "negative_seed",
        "out_dir",
        "suite",
        "dims",
        "algos",
    ],
)
def test_cli_config_file_rejects_mistyped_values(
    tmp_path, capsys, monkeypatch, fields, flags, message
):
    # a non-empty string once switched literal_psigma on and true ran as
    # eps = 1, both exiting 0; "out_dir": 5 ran the whole grid into ./5
    # before failing; the others failed with a message that named no key,
    # or the wrong one
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "exp.json"
    grid = {"suite": ["sphere"], "dims": [2], "algos": ["tfwa"], "reps": 1}
    cfg_path.write_text(json.dumps({**grid, **fields}))
    out = [] if "out_dir" in fields else ["--out", str(tmp_path / "x")]
    code = main(["run", "--config", str(cfg_path), *flags, *out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_cli_run_rejects_out_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch, below):
    # such an --out once ran the whole grid and only then failed to write
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    made = []
    real = tfwa.harness.make_problem
    monkeypatch.setattr(tfwa.harness, "make_problem", lambda *args: made.append(args) or real(*args))
    out = blocker / "x" if below else blocker
    argv = ["run", "--suite", "sphere", "--dims", "2", "--algos", "random-search", "--reps", "2"]
    code = main([*argv, "--budget-mult", "100", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert made == []
    assert blocker.read_text() == "not a directory"


def test_integer_df_init_writes_the_same_trace(tmp_path, capsys):
    # an int df_init once reached restarted fireworks' rows as "df": 5
    outs = []
    for df_init in (5, 5.0):
        out = tmp_path / f"df{df_init!r}"
        cfg_path = tmp_path / f"df{df_init!r}.json"
        grid = {"suite": ["sphere"], "dims": [2], "reps": 1, "budget_multiplier": 100}
        cfg_path.write_text(json.dumps({**grid, "swarm": {"df_init": df_init}}))
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert repr(echo["swarm"]["df_init"]) == repr(df_init)
        outs.append((out / "traces" / "sphere_d2_tfwa_rep0.jsonl").read_bytes())
    assert outs[0] == outs[1]
    assert b'"restart": true' in outs[0]


def test_run_experiment_rejects_path_out_dir(tmp_path):
    # a Path once wrote results.csv, summary.csv and a truncated config.json,
    # then failed to serialise itself and wrote no traces
    out = tmp_path / "x"
    config = ExperimentConfig(
        suite=("sphere",), dims=(2,), algos=("random-search",), reps=1, out_dir=out
    )
    with pytest.raises(ValueError, match="out_dir must be a string"):
        run_experiment(config)
    assert not out.exists()


def test_validate_accepts_numpy_integers():
    validate_experiment(
        ExperimentConfig(dims=(np.int64(2),), reps=np.int32(3), budget_multiplier=np.int64(50))
    )


def test_cli_config_file_rejects_per_run_swarm_fields(tmp_path, capsys):
    # a run's seed and budget are not swarm fields: the grid sets them per run
    cfg_path = tmp_path / "exp.json"
    grid = {"suite": ["sphere"], "dims": [2], "algos": ["random-search"], "reps": 3}
    for key, value in (("seed", 9), ("budget", 500)):
        cfg_path.write_text(json.dumps({**grid, "swarm": {key: value}}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"unexpected keyword argument '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_cli_config_file_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "y")])
    assert code == 2


@pytest.mark.parametrize("text", ["[1, 2]", '{"suite": ["sphere"], "swarm": [1]}'])
def test_cli_config_file_rejects_non_object(tmp_path, capsys, text):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(text)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _make_results(tmp_path, label, *algos):
    out = tmp_path / label
    config = ExperimentConfig(
        suite=("sphere", "rastrigin"),
        dims=(2,),
        algos=algos,
        reps=5,
        budget_multiplier=200,
        out_dir=str(out),
    )
    run_experiment(config)
    return out / "results.csv"


# per (problem, algo) gaps at d=2, in grid order: one function for each verdict
PAIRED_GAPS = {
    ("sphere", "tfwa"): [1e-9, 2e-9, 3e-9, 4e-9, 5e-9],
    ("sphere", "uniform-fwa"): [0.1, 0.2, 0.3, 0.4, 0.5],
    ("rastrigin", "tfwa"): [5.0, 6.0, 7.0, 8.0, 9.0],
    ("rastrigin", "uniform-fwa"): [1.0, 2.0, 3.0, 4.0, 4.5],
    ("ackley", "tfwa"): [1.0, 3.0, 5.0, 7.0, 9.0],
    ("ackley", "uniform-fwa"): [2.0, 4.0, 6.0, 8.0, 10.0],
}

# what `compare --a tfwa.csv --b uniform.csv` printed on PAIRED_GAPS before
# compare read --inputs
PINNED_COMPARE = [
    "ackley_d2: U=10.0 p=0.6905 -> tie",
    "rastrigin_d2: U=25.0 p=0.007937 -> b",
    "sphere_d2: U=0.0 p=0.007937 -> a",
    "win/lose/tie (a vs b, alpha=0.05): 1/1/1",
]


def _only(algo, gaps=PAIRED_GAPS):
    return {(problem, a): sample for (problem, a), sample in gaps.items() if a == algo}


def _write_results(path, gaps):
    """A results.csv of the d=2 runs ``gaps`` maps ``(problem, algo)`` to."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS, lineterminator="\n")
        writer.writeheader()
        for (problem, algo), sample in gaps.items():
            for rep, gap in enumerate(sample):
                row = dict(problem=problem, dim=2, algo=algo, rep=rep, seed=rep, best_gap=gap)
                writer.writerow({**row, "evals": 1000, "generations": 10, "restarts": 0})
    return path


@pytest.fixture
def paired_and_split(tmp_path):
    """PAIRED_GAPS as one paired results.csv and as one file per algorithm."""
    return (
        _write_results(tmp_path / "paired.csv", PAIRED_GAPS),
        _write_results(tmp_path / "tfwa.csv", _only("tfwa")),
        _write_results(tmp_path / "uniform.csv", _only("uniform-fwa")),
    )


def test_cli_compare(tmp_path, capsys):
    path_a = _make_results(tmp_path, "a", "tfwa")
    path_b = _make_results(tmp_path, "b", "random-search")
    code = main(["compare", "--inputs", str(path_a), str(path_b)])
    assert code == 0
    stdout = capsys.readouterr().out
    lines = stdout.splitlines()
    assert lines[:2] == [f"a: tfwa in {path_a}", f"b: random-search in {path_b}"]
    assert "rastrigin_d2: U=" in stdout
    assert "sphere_d2: U=" in stdout
    assert "win/lose/tie (a vs b, alpha=0.05):" in stdout
    # the tally counts the per-function verdicts it printed
    verdicts = [line.rsplit("-> ", 1)[1] for line in lines[2:-1]]
    counts = [verdicts.count(v) for v in ("a", "b", "tie")]
    assert lines[-1] == "win/lose/tie (a vs b, alpha=0.05): {}/{}/{}".format(*counts)
    # a grid of both algorithms compares from its own results.csv as the
    # same cells run one algorithm per grid do
    paired = _make_results(tmp_path, "paired", "tfwa", "random-search")
    assert main(["compare", "--inputs", str(paired)]) == 0
    paired_lines = capsys.readouterr().out.splitlines()
    assert paired_lines[:2] == [f"a: tfwa in {paired}", f"b: random-search in {paired}"]
    assert paired_lines[2:] == lines[2:]


def test_cli_compare_lines_match_the_pinned_output(paired_and_split, capsys):
    paired, tfwa_path, uniform_path = paired_and_split
    for inputs in ([paired], [tfwa_path, uniform_path]):
        assert main(["compare", "--inputs", *map(str, inputs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"a: tfwa in {inputs[0]}", f"b: uniform-fwa in {inputs[-1]}"]
        assert lines[2:] == PINNED_COMPARE


def test_cli_compare_labels_two_samples_of_one_algorithm_by_file(tmp_path, capsys):
    # an ablation: both files hold tfwa, run under different settings
    base = _write_results(tmp_path / "base.csv", _only("tfwa"))
    variant = {(problem, "tfwa"): gaps for (problem, _), gaps in _only("uniform-fwa").items()}
    variant = _write_results(tmp_path / "variant.csv", variant)
    assert main(["compare", "--inputs", str(base), str(variant)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"a: tfwa in {base}", f"b: tfwa in {variant}"]
    assert lines[2:] == PINNED_COMPARE


def test_cli_compare_missing_file(tmp_path, capsys):
    path_a = _make_results(tmp_path, "only", "tfwa")
    code = main(["compare", "--inputs", str(path_a), str(tmp_path / "missing.csv")])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["compare", "rank"])
def test_cli_rejects_a_field_the_csv_module_refuses(tmp_path, capsys, command):
    # a field beyond the csv module's limit of 131072 characters
    path_a = _make_results(tmp_path, "only", "tfwa")
    path_b = tmp_path / "huge.csv"
    path_b.write_text("problem,dim,algo,best_gap\nsphere,2,tfwa," + "1" * 200_000 + "\n")
    code = main([command, "--inputs", str(path_a), str(path_b)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "inputs, held",
    [
        (["tfwa"], ["tfwa in {tfwa}"]),
        (["paired", "tfwa"], ["tfwa in {paired}", "uniform-fwa in {paired}", "tfwa in {tfwa}"]),
        (["paired", "paired"], ["tfwa in {paired}", "uniform-fwa in {paired}"] * 2),
    ],
    ids=["one", "three", "four"],
)
def test_cli_compare_needs_exactly_two_samples(paired_and_split, capsys, inputs, held):
    paths = dict(zip(("paired", "tfwa", "uniform"), map(str, paired_and_split)))
    code = main(["compare", "--inputs", *(paths[name] for name in inputs)])
    assert code == 2
    captured = capsys.readouterr()
    held = [sample.format(**paths) for sample in held]
    assert f"compare needs exactly two samples, got {len(held)}: {'; '.join(held)}" in captured.err
    assert captured.out == ""


def test_cli_rank(tmp_path, capsys):
    path_a = _make_results(tmp_path, "a", "tfwa")
    path_b = _make_results(tmp_path, "b", "uniform-fwa")
    code = main(["rank", "--inputs", str(path_a), str(path_b)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "tfwa: average rank" in stdout
    assert "uniform-fwa: average rank" in stdout
    assert "over 2 functions" in stdout


def test_cli_rank_reads_a_paired_file(paired_and_split, capsys):
    paired, tfwa_path, uniform_path = paired_and_split
    # tfwa's pooled mean passes uniform-fwa's on sphere and not on ackley,
    # while this file's alone would pass it on both
    more = {("sphere", "tfwa"): [1.0] * 5, ("ackley", "tfwa"): [6.5] * 5}
    more = _write_results(paired.parent / "more.csv", {**_only("tfwa"), **more})
    outputs = []
    for inputs in ([paired], [tfwa_path, uniform_path], [paired, more]):
        assert main(["rank", "--inputs", *map(str, inputs)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == (
        "tfwa: average rank 1.333 over 3 functions\n"
        "uniform-fwa: average rank 1.667 over 3 functions\n"
    )
    # the samples of one algorithm pool across files
    assert outputs[2] == (
        "uniform-fwa: average rank 1.333 over 3 functions\n"
        "tfwa: average rank 1.667 over 3 functions\n"
    )


def test_python_m_harness_runs_without_runtime_warning():
    # the package root does not import tfwa.harness, so runpy executes it once
    src = str(Path(tfwa.harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tfwa.harness", "--help"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tfwa-bench" in proc.stdout


_START_METHOD_GRID = """
import multiprocessing
import sys

from tfwa.harness import main

multiprocessing.set_start_method(sys.argv[1])
sys.exit(main([
    "run", "--suite", "sphere", "rastrigin", "--dims", "2", "100",
    "--algos", "tfwa", "uniform-fwa", "random-search", "--reps", "2",
    "--budget-mult", "60", "--seed", "0", "--workers", "2", "--out", sys.argv[2],
]))
"""


def test_grid_outputs_do_not_depend_on_the_start_method(tmp_path):
    # workers started by forkserver or spawn inherit no state from the
    # parent, so each must set itself up (BLAS pin, heap setting, core share)
    # exactly as a forked one does
    src = str(Path(tfwa.harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for method in ("fork", "forkserver", "spawn"):
        if method not in multiprocessing.get_all_start_methods():
            continue
        out = tmp_path / method
        subprocess.run(
            [sys.executable, "-c", _START_METHOD_GRID, method, str(out)],
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            timeout=600,
        )
        outputs[method] = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "config.json"
        }
    assert len(outputs) >= 2
    first, *rest = outputs.values()
    assert len(first) == 2 + 2 * 2 * 3 * 2  # results, summary and one trace per run
    for other in rest:
        assert other == first


_NUMPY_ONLY = """
import sys

import numpy as np

import tfwa
from tfwa import harness, natgrad, stats
from tfwa.tdist import TDistribution

out = sys.argv[1]
assert harness.main([
    "run", "--suite", "sphere", "rastrigin", "--dims", "2", "--algos", *harness.ALGORITHMS,
    "--reps", "3", "--budget-mult", "200", "--seed", "0", "--workers", "2", "--out", out,
]) == 0
assert harness.main(["rank", "--inputs", out + "/results.csv"]) == 0
stats._exact_two_sided(0, 3, 3)
stats._normal_two_sided(0.0, 3, 3, np.ones(6, dtype=int))

rng = np.random.default_rng(0)
dist = TDistribution([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]], 6.0)
x = dist.sample(4, rng)
dist.mahalanobis(x)
dist.log_density(x)
dist.scale_inverse()
dist.moments()
repr(dist)
natgrad.fisher_closed_form(dist)
natgrad.fisher_scale_block(dist)
natgrad.fisher_monte_carlo(dist, 10_000, rng)
natgrad.covariance_natural_gradient(dist, x[0])
natgrad.moment_identity_residuals(dist, 1000, rng)

leaked = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not leaked, leaked
"""


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test dependency only; pytest's own process has loaded
    # scipy.stats, so the runtime is checked in a fresh interpreter
    src = str(Path(tfwa.harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY, str(tmp_path / "grid")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
