"""Benchmark harness: experiment runner, result files, CLI.

The ``run`` subcommand executes a suite x dims x algos grid of repeated
seeded runs and writes four artifacts into the output directory:

* ``results.csv`` with one row per run:
  ``problem,dim,algo,rep,seed,best_gap,evals,generations,restarts``
* ``summary.csv`` with per-(problem, dim, algo) mean/std/median gaps
* ``config.json`` echoing the resolved configuration, which ``run --config``
  reads back to rerun the grid
* ``traces/<problem>_d<dim>_<algo>_rep<rep>.jsonl`` with one record per
  generation per firework, one key per :class:`~tfwa.swarm.TraceRecord`
  field, written by the run's :meth:`~tfwa.swarm.Trace.write` in the process
  that ran it, as soon as its job's runs end

A job is one cell of the grid (one problem, dimension and algorithm): one
swarm config, one budget and the seeds of its repetitions, run through one
generation loop by the algorithm's cell runner.  ``--workers N`` runs the
grid on N processes, the calling one among them: it starts a pool of N - 1
workers (none when N is 1), and the calling process makes every claim,
taking the next job in grid order under one lock until none is left: its own
between its runs, and each pool worker's as that worker's previous job ends.
When there are fewer cells than workers, each cell's seeds are split into
``ceil(workers / cells)`` contiguous chunks, so that no worker sits idle;
the rows are reassembled in grid order.  Each job takes the grid's process
count P (N, or the job count when smaller) with it and runs under a share
of one in P of the cores (``swarm._cores``), so the grid's runs explode
their fireworks on no more threads than there are cores.  A job returns its
runs' finished ``results.csv`` rows and no trace, so the calling process
joins the jobs' rows in job order and writes the three grid files once
every job has ended.

``compare`` and ``rank`` read results files as one sample per algorithm per
file: ``compare`` applies the rank-sum test per function to exactly two
samples; ``rank`` averages per-function ranks of each algorithm's mean gaps.
Both take their statistics from :mod:`tfwa.stats`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .baselines import random_search_cell, uniform_fwa_cell
from .benchfns import PROBLEM_NAMES, make_problem
from .stats import _rank_sum_verdicts, _tally, average_rank
from .swarm import (
    SwarmConfig,
    _chunks,
    _processes,
    _require_int,
    resolve_run_shape,
    run_cell,
)
from .tdist import DF_CAP

# The algorithm table: name -> (name of its cell runner in this module, the
# swarm fields it sets).  A cell runner takes a problem, a config, a list of
# seeds and a budget and returns one result per seed; ``_run_cells`` sets the
# fields on the config and looks the runner up at call time, so a test that
# rebinds the module attribute (``monkeypatch.setattr(tfwa.harness,
# "random_search_cell", ...)``) substitutes it in every job.  The Gaussian
# limit is tfwa started at the df cap, where df stays.
_RUNNERS = {
    "tfwa": ("run_cell", {}),
    "gaussian-limit": ("run_cell", {"df_init": DF_CAP}),
    "uniform-fwa": ("uniform_fwa_cell", {}),
    "random-search": ("random_search_cell", {}),
}
ALGORITHMS = tuple(_RUNNERS)

RESULT_FIELDS = (
    "problem",
    "dim",
    "algo",
    "rep",
    "seed",
    "best_gap",
    "evals",
    "generations",
    "restarts",
)


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentConfig:
    """Grid of runs plus output location.

    Per-run seeds are ``base_seed + rep`` and shared across algorithms so
    comparisons are paired.  ``budget_multiplier`` scales with dimension:
    every run gets ``budget_multiplier * dim`` evaluations.  ``out_dir``
    may be ``None`` to keep everything in memory.
    """

    suite: tuple = PROBLEM_NAMES
    dims: tuple = (10,)
    algos: tuple = ("tfwa",)
    reps: int = 30
    budget_multiplier: int = 10000
    base_seed: int = 0
    out_dir: str | None = None
    workers: int = 1
    swarm: SwarmConfig = field(default_factory=SwarmConfig)


def _run_cells(job, processes=1):
    """Run one job, a contiguous chunk of one cell's repetitions, on a share of
    one in ``processes`` of the cores; returns each run's ``results.csv`` row,
    a dict in ``RESULT_FIELDS`` order.

    When the job's ``out_dir`` is not ``None``, each run's trace is written
    to ``out_dir/traces/`` here, in the process that ran it, as soon as the
    cell runner returns, so no trace crosses a worker pool and the grid's
    parent never holds one.  A run holds its trace as one float64 buffer, 56
    bytes a row, and :meth:`~tfwa.swarm.Trace.write` formats and writes it a
    block of rows at a time, so no trace file's text is ever held whole.
    """
    problem_args, algo, swarm, budget, seeds, out_dir = job
    name, dim, base_seed = problem_args
    problem = make_problem(*problem_args)
    runner, overrides = _RUNNERS[algo]
    token = _processes.set(processes)
    try:
        results = globals()[runner](problem, replace(swarm, **overrides), seeds, budget)
    finally:
        _processes.reset(token)
    rows = []
    for seed, result in zip(seeds, results):
        rep = seed - base_seed
        if out_dir is not None:
            path = Path(out_dir, "traces", f"{name}_d{dim}_{algo}_rep{rep}.jsonl")
            with open(path, "w") as fh:
                result.trace.write(fh)
        gap = result.best_fitness - problem.f_star
        numbers = (gap, result.evals_used, result.generations, result.restarts)
        rows.append(dict(zip(RESULT_FIELDS, (name, dim, algo, rep, seed, *numbers))))
    return rows


def validate_experiment(config: ExperimentConfig):
    """Raise ValueError on unknown names or malformed grids before any run."""
    for label in ("suite", "dims", "algos"):
        values = getattr(config, label)
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{label} must be a list, got {values!r}")
        if not values:
            raise ValueError(f"{label} is empty, so the grid has no runs")
    if config.out_dir is not None and not isinstance(config.out_dir, str):
        raise ValueError(f"out_dir must be a string, got {config.out_dir!r}")
    if config.out_dir == "":
        raise ValueError("out_dir is empty, so it names no directory")
    for name in config.suite:
        if name not in PROBLEM_NAMES:
            raise ValueError(
                f"unknown benchmark function {name!r}; available: {', '.join(PROBLEM_NAMES)}"
            )
    for algo in config.algos:
        if algo not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algo!r}; available: {', '.join(ALGORITHMS)}"
            )
    for dim in config.dims:
        _require_int("dims", dim)
        if dim < 2:
            raise ValueError(f"benchmark problems require dim >= 2, got {dim}")
    # a repeated entry would run each of its cells twice under the same seeds
    for label, values in (("suite", config.suite), ("dims", config.dims), ("algos", config.algos)):
        if len(set(values)) != len(values):
            raise ValueError(f"{label} lists an entry twice: {' '.join(map(str, values))}")
    _require_int("base_seed", config.base_seed)
    if config.base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {config.base_seed}")
    for name in ("reps", "budget_multiplier", "workers"):
        _require_int(name, getattr(config, name))
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1")
    # the run shape depends on the dimension alone
    for dim in config.dims:
        try:
            resolve_run_shape(SimpleNamespace(dim=dim), config.swarm, config.budget_multiplier * dim)
        except ValueError as exc:
            raise ValueError(f"at dim {dim}: {exc}") from None


def run_experiment(config: ExperimentConfig):
    """Execute the full grid; returns (result_rows, summary_rows).

    Result rows are dicts following ``RESULT_FIELDS``, ordered by
    (problem, dim, algo, rep) with suite/dims/algos kept in the configured
    order.  When ``config.out_dir`` is set, writes ``results.csv``,
    ``summary.csv``, ``config.json`` and per-run trace JSONL files; the
    directory and its ``traces/`` are made before the first run, so a path
    that cannot be one raises ``OSError`` before any run, and those files
    an earlier grid left there are deleted.  A job is a contiguous chunk of
    one cell's repetitions (see the module docstring).  ``config.workers``
    processes run the jobs, this one among them (fewer when there are fewer
    jobs); the others are a process pool, not started when there is only
    this one.  This process makes every claim of the next job in grid order:
    its own between its runs, and each pool worker's as that worker's
    previous job ends.  A job that raises, or a pool worker that dies, stops
    further claims, and the error propagates once the jobs already running
    have ended.  Each run's trace is written by the process that ran it, as
    soon as its job's runs end; the other three files are written once every
    job has ended, so a grid that raises part-way can leave the traces of
    finished jobs and no ``results.csv``.
    Each job runs under its share of the cores, one in the grid's process
    count (see the module docstring).  A trace line spells
    floats as ``float.__repr__`` does (``NaN``, ``Infinity`` and
    ``-Infinity`` when not finite) and booleans as ``true``/``false``,
    exactly as ``json.dumps`` would.  Reruns with the same configuration
    produce byte-identical files, whatever the worker count.
    """
    validate_experiment(config)
    if config.out_dir is not None:
        # a path that cannot be a directory fails here, not after the grid ran
        traces = Path(config.out_dir, "traces")
        traces.mkdir(parents=True, exist_ok=True)
        # files an earlier grid left would outlive a grid that raises, or outnumber its rows
        names = ("results.csv", "summary.csv", "config.json")
        for stale in [*traces.glob("*.jsonl"), *(traces.parent / name for name in names)]:
            stale.unlink(missing_ok=True)
    cells = [
        (name, dim, algo) for name in config.suite for dim in config.dims for algo in config.algos
    ]
    # a job is one cell, or a chunk of one when there are fewer cells than
    # workers, so that no worker sits idle
    parts = 1 if len(cells) >= config.workers else -(-config.workers // len(cells))
    seeds = [config.base_seed + rep for rep in range(config.reps)]
    jobs = []
    for name, dim, algo in cells:
        budget = config.budget_multiplier * dim
        for chunk in _chunks(seeds, parts):
            jobs.append(
                ((name, dim, config.base_seed), algo, config.swarm, budget, chunk, config.out_dir)
            )

    # this process runs jobs beside processes - 1 pool workers
    processes = min(config.workers, len(jobs))
    if processes > 1:
        pool = ProcessPoolExecutor(processes - 1)
    else:
        pool = contextlib.nullcontext()
    # every claim is made here, under one lock, in grid order: this process
    # takes its own next job between its runs, and each pool job takes the
    # pool's next as it ends; a job that raises, or a pool worker that dies,
    # empties the claims, so nothing waits on a process that is gone
    claims = iter(range(len(jobs)))
    lock = threading.Lock()
    submitted = []

    def claim():
        with lock:
            return next(claims, None)

    def stop():
        with lock:
            for _ in claims:
                pass

    def feed(done=None):
        if done is not None and done.exception() is not None:
            return stop()
        with lock:
            index = next(claims, None)
            if index is None:
                return
            future = pool.submit(_run_cells, jobs[index], processes)
            submitted.append((index, future))
        # outside the lock: a future that has already ended calls feed at once
        future.add_done_callback(feed)

    outcomes = {}
    with pool:
        for _ in range(processes - 1):
            feed()
        try:
            for index in iter(claim, None):
                outcomes[index] = _run_cells(jobs[index], processes)
        except BaseException:
            stop()
            raise
        # the claims are empty, so every pool job has been submitted
        for index, future in submitted:
            outcomes[index] = future.result()

    rows = [row for index in range(len(jobs)) for row in outcomes[index]]
    summary = _summarise(rows)
    if config.out_dir is not None:
        _write_outputs(config, rows, summary)
    return rows, summary


def _summarise(rows):
    groups = {}
    for row in rows:
        groups.setdefault((row["problem"], row["dim"], row["algo"]), []).append(row["best_gap"])
    summary = []
    for (name, dim, algo), gaps in groups.items():
        arr = np.asarray(gaps, dtype=float)
        if len(arr) == 1:
            std = 0.0
        elif np.isfinite(arr).all():
            std = float(arr.std(ddof=1))
        else:
            # numpy would give nan too, but warn on inf - inf on the way
            std = math.nan
        summary.append(
            {
                "problem": name,
                "dim": dim,
                "algo": algo,
                "reps": len(arr),
                "mean_gap": float(arr.mean()),
                "std_gap": std,
                "median_gap": float(np.median(arr)),
            }
        )
    return summary


def _write_outputs(config, rows, summary):
    out = Path(config.out_dir)
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    sum_fields = ("problem", "dim", "algo", "reps", "mean_gap", "std_gap", "median_gap")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sum_fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(summary)
    with open(out / "config.json", "w") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CLI


def _read_gaps(paths):
    """One sample per algorithm per results file: ``(algo, path, {function:
    [gap, ...]})`` with functions named ``<problem>_d<dim>``, files in the
    order given and, within one, algorithms in the order they first appear."""
    samples = []
    for path in paths:
        by_algo = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                func = f"{row['problem']}_d{int(row['dim'])}"
                gap = float(row["best_gap"])
                by_algo.setdefault(row["algo"], {}).setdefault(func, []).append(gap)
        if not by_algo:
            raise ValueError(f"no result rows in {path}")
        samples += [(algo, path, gaps) for algo, gaps in by_algo.items()]
    return samples


def _tuples(data):
    # JSON and argparse give lists where the dataclasses hold tuples
    return {key: tuple(v) if isinstance(v, list) else v for key, v in data.items()}


def load_experiment(path) -> ExperimentConfig:
    """The experiment a JSON file with ``config.json``'s keys describes.

    A key left out takes the dataclass default; a key that is not an
    ``ExperimentConfig`` field, or a ``swarm`` key that is not a
    ``SwarmConfig`` field, raises ``TypeError``.  The values are checked
    when the grid runs (:func:`validate_experiment`).
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    swarm = data.pop("swarm", {})
    if not isinstance(swarm, dict):
        raise ValueError("swarm must hold a JSON object")
    return ExperimentConfig(**_tuples(data), swarm=SwarmConfig(**_tuples(swarm)))


def _cmd_run(args):
    config = load_experiment(args.config) if args.config else ExperimentConfig()
    # every field but swarm has a flag under its own name
    flags = {
        f.name: getattr(args, f.name)
        for f in fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    swarm = {}
    if args.eps is not None:
        swarm["eps"] = args.eps
    if args.literal_psigma:
        swarm["literal_psigma"] = True
    config = replace(config, **_tuples(flags), swarm=replace(config.swarm, **swarm))
    if config.out_dir is None:
        raise ValueError("an output directory is required (--out or out_dir in the config file)")
    _, summary = run_experiment(config)
    for row in summary:
        print(
            f"{row['problem']} d={row['dim']} {row['algo']}: "
            f"mean gap {row['mean_gap']:.3e} (std {row['std_gap']:.3e}, "
            f"median {row['median_gap']:.3e}, {row['reps']} reps)"
        )
    print(f"results written to {config.out_dir}")
    return 0


def _cmd_compare(args):
    samples = _read_gaps(args.inputs)
    names = [f"{algo} in {path}" for algo, path, _ in samples]
    if len(samples) != 2:
        raise ValueError(f"compare needs exactly two samples, got {len(names)}: {'; '.join(names)}")
    verdicts = _rank_sum_verdicts(samples[0][2], samples[1][2], args.alpha)
    print(f"a: {names[0]}\nb: {names[1]}")
    for key, (u, p, verdict) in verdicts.items():
        print(f"{key}: U={u:.1f} p={p:.4g} -> {verdict}")
    cell = _tally(verdicts, args.alpha)
    print(f"win/lose/tie (a vs b, alpha={cell.alpha}): {cell.win}/{cell.lose}/{cell.tie}")
    return 0


def _cmd_rank(args):
    pooled = {}  # an algorithm's samples pool across files
    for algo, _, gaps in _read_gaps(args.inputs):
        for func, sample in gaps.items():
            pooled.setdefault(func, {}).setdefault(algo, []).extend(sample)
    table = {f: {a: float(np.mean(s)) for a, s in row.items()} for f, row in pooled.items()}
    ranks = average_rank(table)
    for algo in sorted(ranks, key=lambda a: ranks[a]):
        print(f"{algo}: average rank {ranks[algo]:.3f} over {len(table)} functions")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tfwa-bench",
        description="Benchmark harness for the t-distribution fireworks optimiser.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a grid of seeded runs", allow_abbrev=False)
    p_run.add_argument("--suite", nargs="+", metavar="NAME", default=None)
    p_run.add_argument("--dims", nargs="+", type=int, default=None)
    p_run.add_argument("--algos", nargs="+", metavar="ALGO", default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--budget-mult", dest="budget_multiplier", type=int, default=None)
    p_run.add_argument("--seed", dest="base_seed", type=int, default=None)
    p_run.add_argument("--out", dest="out_dir", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--eps", type=float, default=None)
    p_run.add_argument("--literal-psigma", action="store_true")
    p_run.add_argument(
        "--config", default=None, help="JSON file with config.json's keys; flags override"
    )
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", help="rank-sum comparison of two samples", allow_abbrev=False)
    p_cmp.add_argument("--inputs", nargs="+", required=True)
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_rank = sub.add_parser("rank", help="average ranks across results files", allow_abbrev=False)
    p_rank.add_argument("--inputs", nargs="+", required=True)
    p_rank.set_defaults(handler=_cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError, TypeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
