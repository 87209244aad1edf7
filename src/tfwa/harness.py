"""Benchmark harness: experiment runner, result files, statistics, CLI.

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

A job is one cell of the grid (one problem, dimension and algorithm) and
its repetitions, run through one generation loop by the algorithm's cell
runner.  ``--workers N`` runs the grid on N processes, the calling one among
them: it starts a pool of N - 1 workers (none when N is 1), and the calling
process makes every claim, taking the next job in grid order under one lock
until none is left: its own between its runs, and each pool worker's as that
worker's previous job ends.  When there are fewer cells than workers, each
cell is split into ``ceil(workers / cells)`` contiguous chunks of
repetitions, so that no worker sits idle; the rows are reassembled in grid
order.  Only each run's four numbers come back from a job, so the calling
process holds rows, not traces, and writes the three grid files once every
job has ended.

``compare`` and ``rank`` read results files as one sample per algorithm per
file: ``compare`` applies the rank-sum test per function to exactly two
samples; ``rank`` averages per-function ranks of each algorithm's mean gaps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .baselines import random_search_cell, uniform_fwa_cell
from .benchfns import PROBLEM_NAMES, make_problem
from .swarm import (
    SwarmConfig,
    _chunks,
    _require_int,
    _share_cores,
    resolve_run_shape,
    run_cell,
)
from .tdist import DF_CAP

# The algorithm table: name -> (name of its cell runner in this module, the
# swarm fields it sets).  A cell runner takes a problem and a list of configs
# and returns one result per config; ``_run_cells`` sets the fields on every
# config and looks the runner up at call time, so a rebinding of the module
# attribute (a profiling wrapper, say) sees every run.  The Gaussian limit is
# tfwa started at the df cap, where df stays.
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
# statistics


def _average_ranks(values):
    """Ranks 1..n of ``values`` (ascending), ties sharing the average rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _rank_sum_counts(n, total):
    # counts[w] = number of n-subsets of {1..total} with rank sum w
    max_w = sum(range(total - n + 1, total + 1))
    table = [[0] * (max_w + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for r in range(1, total + 1):
        for k in range(min(r, n), 0, -1):
            row, prev = table[k], table[k - 1]
            for w in range(max_w, r - 1, -1):
                if prev[w - r]:
                    row[w] += prev[w - r]
    return table[n]


def _exact_two_sided(u_obs, n, m):
    counts = _rank_sum_counts(n, n + m)
    offset = n * (n + 1) // 2
    u_counts = counts[offset:]
    total = sum(u_counts)
    cdf = sum(u_counts[: u_obs + 1])
    sf = sum(u_counts[u_obs:])
    return min(1.0, 2.0 * min(cdf, sf) / total)


def wilcoxon_rank_sum(a, b, method="auto"):
    """Two-sided rank-sum test; returns ``(u_statistic, p_value)``.

    The statistic is the Mann-Whitney U of the first sample.  With 12 or
    fewer pooled observations and no ties the p-value comes from the exact
    null distribution; otherwise from the normal approximation with tie and
    continuity corrections.  Two all-identical samples give p = 1.  Needs
    at least three observations per sample.  ``method`` forces a branch:
    "exact" (rejected when ties are present), "normal", or "auto".
    """
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    if n < 3 or m < 3:
        raise ValueError("need at least three observations per sample")
    pooled = np.concatenate([a, b])
    ranks = _average_ranks(pooled)
    u_a = float(ranks[:n].sum()) - n * (n + 1) / 2.0
    tie_sizes = np.unique(pooled, return_counts=True)[1]
    if method == "exact" and np.any(tie_sizes > 1):
        raise ValueError("exact method requires tie-free samples")
    exact_ok = not np.any(tie_sizes > 1) and (method == "exact" or n + m <= 12)
    if method != "normal" and exact_ok:
        return u_a, _exact_two_sided(int(round(u_a)), n, m)
    total = n + m
    mean_u = n * m / 2.0
    tie_term = float(np.sum(tie_sizes**3 - tie_sizes)) / (total * (total - 1.0))
    var_u = n * m / 12.0 * ((total + 1.0) - tie_term)
    if var_u <= 0:
        return u_a, 1.0
    z = max(abs(u_a - mean_u) - 0.5, 0.0) / math.sqrt(var_u)
    return u_a, min(1.0, math.erfc(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class ComparisonCell:
    win: int
    lose: int
    tie: int
    alpha: float = 0.05


def _rank_sum_verdicts(results_a, results_b, alpha):
    """``{function: (u, p, verdict)}`` in sorted function order.

    The verdict is "tie" when the rank-sum test is not significant at
    ``alpha`` or the means coincide; otherwise "a" or "b", the side with
    the lower mean.
    """
    if set(results_a) != set(results_b):
        raise ValueError("the two result sets cover different functions")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    verdicts = {}
    for key in sorted(results_a):
        u, p = wilcoxon_rank_sum(results_a[key], results_b[key])
        mean_a = float(np.mean(results_a[key]))
        mean_b = float(np.mean(results_b[key]))
        if p >= alpha or mean_a == mean_b:
            verdicts[key] = (u, p, "tie")
        else:
            verdicts[key] = (u, p, "a" if mean_a < mean_b else "b")
    return verdicts


def _tally(verdicts, alpha) -> ComparisonCell:
    counts = Counter(verdict for _, _, verdict in verdicts.values())
    return ComparisonCell(win=counts["a"], lose=counts["b"], tie=counts["tie"], alpha=alpha)


def win_lose_tie(results_a, results_b, alpha=0.05) -> ComparisonCell:
    """Per-function rank-sum comparison aggregated into win/lose/tie counts.

    ``results_a`` and ``results_b`` map function names to per-run samples
    and must cover the same functions.  A function is a tie when the test
    is not significant at ``alpha`` (or the means coincide); otherwise the
    side with the lower mean wins.
    """
    return _tally(_rank_sum_verdicts(results_a, results_b, alpha), alpha)


def average_rank(table):
    """Average rank per algorithm over a function -> {algo: mean gap} table.

    Lower gaps rank better (rank 1 is best); ties share the average rank.
    Every function row must cover the same algorithms, at least two.
    """
    if not table:
        raise ValueError("empty table")
    algos = sorted(next(iter(table.values())))
    if len(algos) < 2:
        raise ValueError("need at least two algorithms to rank")
    totals = dict.fromkeys(algos, 0.0)
    for func in sorted(table):
        row = table[func]
        if sorted(row) != algos:
            raise ValueError(f"function {func!r} does not cover all algorithms")
        ranks = _average_ranks([row[a] for a in algos])
        for a, r in zip(algos, ranks):
            totals[a] += float(r)
    return {a: totals[a] / len(table) for a in algos}


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


def _run_cells(job):
    """Run one job, a contiguous chunk of one cell's repetitions; returns one
    ``(best_gap, evals, generations, restarts)`` per run.

    When the job's ``out_dir`` is not ``None``, each run's trace is written
    to ``out_dir/traces/`` here, in the process that ran it, as soon as the
    cell runner returns, so no trace crosses a worker pool and the grid's
    parent never holds one.  A run holds its trace as one float64 buffer, 56
    bytes a row, and :meth:`~tfwa.swarm.Trace.write` formats and writes it a
    block of rows at a time, so no trace file's text is ever held whole.
    """
    problem_args, algo, configs, out_dir = job
    problem = make_problem(*problem_args)
    runner, overrides = _RUNNERS[algo]
    results = globals()[runner](problem, [replace(c, **overrides) for c in configs])
    if out_dir is not None:
        name, dim, base_seed = problem_args
        for cfg, result in zip(configs, results):
            path = Path(out_dir, "traces", f"{name}_d{dim}_{algo}_rep{cfg.seed - base_seed}.jsonl")
            with open(path, "w") as fh:
                result.trace.write(fh)
    return [
        (
            result.best_fitness - problem.f_star,
            result.evals_used,
            result.generations,
            result.restarts,
        )
        for result in results
    ]


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
    # run_experiment sets both per run, so any other value would do nothing
    if config.swarm.seed != 0:
        raise ValueError("swarm.seed must be 0: each run's seed is base_seed + rep")
    if config.swarm.budget is not None:
        raise ValueError("swarm.budget must be null: each run's budget is budget_multiplier * dim")
    # the run shape depends on the dimension alone
    for dim in config.dims:
        try:
            resolve_run_shape(SimpleNamespace(dim=dim), _run_config(config, dim, 0))
        except ValueError as exc:
            raise ValueError(f"at dim {dim}: {exc}") from None


def _run_config(config: ExperimentConfig, dim, rep) -> SwarmConfig:
    """The swarm config of repetition ``rep`` at dimension ``dim``."""
    return replace(
        config.swarm, seed=config.base_seed + rep, budget=config.budget_multiplier * dim
    )


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
    While a process runs jobs, its runs explode fireworks on threads only
    from its share of the cores (``swarm._cores``).  A trace line spells
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
    jobs = []
    for name, dim, algo in cells:
        configs = [_run_config(config, dim, rep) for rep in range(config.reps)]
        for chunk in _chunks(configs, parts):
            jobs.append(((name, dim, config.base_seed), algo, chunk, config.out_dir))

    # this process runs jobs beside processes - 1 pool workers, and they all
    # share the cores, so a run explodes its fireworks on threads only where
    # its process has cores to spare
    processes = min(config.workers, len(jobs))
    if processes > 1:
        pool = ProcessPoolExecutor(processes - 1, initializer=_share_cores, initargs=(processes,))
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
            future = pool.submit(_run_cells, jobs[index])
            submitted.append((index, future))
        # outside the lock: a future that has already ended calls feed at once
        future.add_done_callback(feed)

    outcomes = {}
    with pool:
        for _ in range(processes - 1):
            feed()
        sharing = _share_cores(processes)
        try:
            for index in iter(claim, None):
                outcomes[index] = _run_cells(jobs[index])
        except BaseException:
            stop()
            raise
        finally:
            _share_cores(sharing)
        # the claims are empty, so every pool job has been submitted
        for index, future in submitted:
            outcomes[index] = future.result()

    rows = []
    for index, ((name, dim, _), algo, configs, _) in enumerate(jobs):
        for cfg, (best_gap, evals, generations, restarts) in zip(configs, outcomes[index]):
            rows.append(
                {
                    "problem": name,
                    "dim": dim,
                    "algo": algo,
                    "rep": cfg.seed - config.base_seed,
                    "seed": cfg.seed,
                    "best_gap": best_gap,
                    "evals": evals,
                    "generations": generations,
                    "restarts": restarts,
                }
            )

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
    except (ValueError, OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
