"""Output checks for one unit: does what the program wrote match its grid?

A run fails when its unit raised, when its row in ``results.csv`` is missing
or out of place, when it used more than budget + n_fireworks evaluations,
when its best gap is non-finite or negative (or above the workload's
target), or when its trace file is missing or disagrees with its row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RESULT_FIELDS = ["problem", "dim", "algo", "rep", "seed", "best_gap", "evals", "generations", "restarts"]


def expected_runs(grid):
    """(problem, dim, algo, rep, seed) of every run, in the harness's order."""
    return [
        (name, dim, algo, rep, grid["base_seed"] + rep)
        for name in grid["suite"]
        for dim in grid["dims"]
        for algo in grid["algos"]
        for rep in range(grid["reps"])
    ]


def _last_line(path):
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_unit(grid, gap_target, error):
    """Check one unit's output directory.

    Returns ``(rows, problems)``: the parsed result rows (``None`` for a run
    whose row is unusable) and a list of ``(run index or None, reason)``.
    A reason with index ``None`` fails every run of the unit.
    """
    runs = expected_runs(grid)
    out = Path(grid["out_dir"])
    if error is not None:
        return [None] * len(runs), [(None, f"raised: {error.strip().splitlines()[-1]}")]
    try:
        with open(out / "results.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            raw = list(reader)
        with open(out / "config.json") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        return [None] * len(runs), [(None, f"unreadable output: {exc}")]
    if header != RESULT_FIELDS:
        return [None] * len(runs), [(None, f"results.csv header {header}")]
    problems = []
    if len(raw) != len(runs):
        problems.append((None, f"results.csv has {len(raw)} rows, grid has {len(runs)}"))
    n_fireworks = config["swarm"]["n_fireworks"]
    trace_dir = out / "traces"
    expected_traces = set()
    rows = []
    for i, key in enumerate(runs):
        name, dim, algo, rep, seed = key
        trace = trace_dir / f"{name}_d{dim}_{algo}_rep{rep}.jsonl"
        expected_traces.add(trace.name)
        if i >= len(raw):
            rows.append(None)
            continue
        r = raw[i]
        try:
            row = {
                "key": (r["problem"], int(r["dim"]), r["algo"], int(r["rep"]), int(r["seed"])),
                "best_gap": float(r["best_gap"]),
                "evals": int(r["evals"]),
                "generations": int(r["generations"]),
                "restarts": int(r["restarts"]),
            }
        except (TypeError, ValueError) as exc:
            rows.append(None)
            problems.append((i, f"malformed row: {exc}"))
            continue
        rows.append(row)
        if row["key"] != key:
            problems.append((i, f"row {row['key']} where the grid has {key}"))
        budget = grid["budget_multiplier"] * dim
        if row["evals"] > budget + n_fireworks:
            problems.append((i, f"{row['evals']} evals exceed budget {budget} + {n_fireworks}"))
        gap = row["best_gap"]
        if not math.isfinite(gap) or gap < 0:
            problems.append((i, f"best_gap {gap!r}"))
        elif gap_target is not None and gap > gap_target:
            problems.append((i, f"best_gap {gap!r} above target {gap_target}"))
        try:
            last = _last_line(trace)
        except (OSError, ValueError) as exc:
            problems.append((i, f"trace {trace.name}: {exc}"))
            continue
        if last is None or last["gen"] != row["generations"]:
            problems.append((i, f"trace {trace.name} ends at {last and last['gen']}, row says {row['generations']}"))
    if trace_dir.is_dir():
        extra = {p.name for p in trace_dir.iterdir()} - expected_traces
        if extra:
            problems.append((None, f"{len(extra)} trace files outside the grid"))
    grid_echo = {k: config.get(k) for k in ("suite", "dims", "algos", "reps", "base_seed")}
    if grid_echo != {k: grid[k] for k in grid_echo}:
        problems.append((None, f"config.json {grid_echo} does not echo the grid"))
    return rows, problems


def failed_runs(n_runs, problems):
    """Indices of failed runs, given ``check_unit``'s problem list."""
    if any(i is None for i, _ in problems):
        return set(range(n_runs))
    return {i for i, _ in problems}


def output_digest(out_dir):
    """Digest of results.csv and every trace file, for byte-identity checks."""
    out = Path(out_dir)
    h = hashlib.sha256()
    for path in [out / "results.csv", *sorted((out / "traces").iterdir())]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def output_size(out_dir):
    """(bytes, files) under an output directory."""
    files = [p for p in Path(out_dir).rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)
