"""Benchmark driver for tfwa.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads are defined in ``workloads.py``
and described in ``WORKLOADS.md``.  Every child process runs the program from
the checkout's ``src`` directory.

``--trace 0`` (end to end) starts the workload in fresh child processes and
times them from outside.  ``SETUP_REPEATS - 1`` children only set up; the
last one sets up and then runs units until ``--seconds`` have passed.
Reported: ``setup_s`` (median over the children of spawn to ready),
``evals_per_s`` (median over units of the evaluations in the unit's
``results.csv`` per second of the unit's wall time) and
``peak_rss_mb`` (peak summed resident set of the measuring child and its
descendants).

``--trace 1`` (per layer) starts two children.  Each runs a fixed number of
units, every unit once untraced and once with every public tfwa function
wrapped (see ``tracing.py``), alternating which goes first.  It checks that
all runs of a unit wrote byte-identical results and traces and that the
exact counts of the two children agree, and reports the first child's
per-layer metrics with the tracing overhead (traced over untraced unit wall
time).

Every run's output is checked (``checks.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every run passed, 1 when one failed and
2 when the benchmark could not start; a full record with the environment
fingerprint goes to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_unit, failed_runs, output_digest, output_size
from tracing import EXACT, layer_metrics, span_stats
from workloads import TARGET_GAP, WORKLOADS, child_env, make_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

SETUP_REPEATS = 7  # children whose set-up is timed, the measuring child included
MAX_UNITS = 400  # units generated for a timed child; it stops at --seconds
TRACE_UNITS = 2  # units per child in a traced run, each run untraced then traced
DEADLINE_S = 170  # the whole invocation, every child included
RSS_POLL_S = 0.2
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# process tree memory


def _tree_rss_kb(root_pid):
    children = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry.name))
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except (OSError, ValueError, IndexError):
            pass
    return total


class RssSampler:
    """Polls the summed resident set of a process and its descendants."""

    def __init__(self, pid):
        self.pid = pid
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))
            self._stop.wait(RSS_POLL_S)

    def stop(self):
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# children


def spawn(cfg, env, work, tag, deadline, sample_rss=False):
    """Run one child to completion and return its report.

    The report gains ``t_spawn`` (monotonic, taken just before the process
    started) and, with ``sample_rss``, ``peak_tree_kb``.
    """
    cfg_path, report_path, log_path = (work / f"{tag}.{ext}" for ext in ("config.json", "report.json", "log"))
    cfg_path.write_text(json.dumps(cfg))
    cmd = [sys.executable, str(HERE / "child.py"), str(cfg_path), str(report_path)]
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        sampler = RssSampler(proc.pid) if sample_rss else None
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed(f"{tag}: no result within the deadline") from None
            raise
        finally:
            if sampler is not None:
                sampler.stop()
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
        raise ChildFailed(f"{tag}: exit code {proc.returncode}: " + " | ".join(tail))
    report = json.loads(report_path.read_text())
    report["t_spawn"] = t_spawn
    if sampler is not None:
        report["peak_tree_kb"] = sampler.peak_kb
    return report


def child_config(mode, units, work, tag, seconds=None):
    return {
        "mode": mode,
        "src": str(ROOT / "src"),
        "units": units,
        "seconds": seconds,
        "target_gap": TARGET_GAP,
        "spans": str(work / f"{tag}.spans.npz"),
    }


def check_child(workload, units, report):
    """Check every unit the child ran.

    Returns ``(attempted, failed, unit_evals, problems)`` where
    ``unit_evals`` lists the evaluations each unit's results report.
    """
    attempted = failed = 0
    unit_evals, problems = [], []
    for unit, done in zip(units, report["units"]):
        rows, found = check_unit(unit["grid"], workload.gap_target, done["error"])
        attempted += len(rows)
        failed += len(failed_runs(len(rows), found))
        unit_evals.append(sum(r["evals"] for r in rows if r is not None))
        problems += [f"{Path(unit['grid']['out_dir']).name}: {msg}" for _, msg in found]
    return attempted, failed, unit_evals, problems


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(workload, seed, seconds, work, env, deadline):
    units = make_units(workload, seed, MAX_UNITS, work / "out", workload.workers)
    setups = [
        spawn(child_config("setup", units[:1], work, f"setup{i}"), env, work, f"setup{i}", deadline)
        for i in range(SETUP_REPEATS - 1)
    ]
    main = spawn(
        child_config("run", units, work, "main", seconds=seconds), env, work, "main", deadline, sample_rss=True
    )
    attempted, failed, unit_evals, problems = check_child(workload, units, main)
    setup_times = [r["t_ready"] - r["t_spawn"] for r in [*setups, main]]
    unit_walls = [u["t_end"] - u["t_begin"] for u in main["units"]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "evals_per_s": (statistics.median(e / w for e, w in zip(unit_evals, unit_walls)), "1/s"),
        "peak_rss_mb": (max(main["peak_tree_kb"], main["maxrss_kb"]) / 1024.0, "MB"),
    }
    detail = {
        "setup_samples_s": setup_times,
        "timed_s": main["t_done"] - main["t_ready"],
        "unit_evals": unit_evals,
        "unit_walls_s": unit_walls,
        "env": main["env"],
        "blas_thread_vars": {f"setup{i}": r["blas_thread_vars"] for i, r in enumerate(setups)}
        | {"main": main["blas_thread_vars"]},
    }
    return attempted, failed, metrics, problems, detail


def run_traced(workload, seed, work, env, deadline):
    """Two children; each runs every trace unit untraced and traced."""
    attempted = failed = 0
    problems, reports, per_child = [], {}, {}
    walls = {False: 0.0, True: 0.0}
    digests = {}  # base_seed -> digests of every output of that unit
    for tag in ("child1", "child2"):
        plain = make_units(workload, seed, TRACE_UNITS, work / tag / "untraced", workers=1)
        traced = make_units(workload, seed, TRACE_UNITS, work / tag / "traced", workers=1)
        units = []
        for k, (a, b) in enumerate(zip(plain, traced)):
            pair = [a, {**b, "trace": True}]
            units += pair if k % 2 == 0 else pair[::-1]  # alternate which runs first
        report = spawn(child_config("run", units, work, tag), env, work, tag, deadline)
        a, f, _, p = check_child(workload, units, report)
        attempted, failed = attempted + a, failed + f
        problems += [f"{tag} {msg}" for msg in p]
        for unit, done in zip(units, report["units"]):
            walls[bool(unit.get("trace"))] += done["t_end"] - done["t_begin"]
            if not p:
                digest = output_digest(unit["grid"]["out_dir"])
                digests.setdefault(unit["grid"]["base_seed"], set()).add(digest)
        reports[tag] = report
        per_child[tag] = layer_metrics(
            span_stats(work / f"{tag}.spans.npz"), report["counts"], report["gens_to_target"]
        )
        if tag == "child1":
            sizes = [output_size(u["grid"]["out_dir"]) for u in traced]
    if any(len(d) > 1 for d in digests.values()):
        problems.append("traced and untraced runs wrote different results or traces")
    for name in EXACT:
        first, second = per_child["child1"][name][0], per_child["child2"][name][0]
        if first != second:
            problems.append(f"{name} differs between traced runs: {first} vs {second}")

    metrics = dict(per_child["child1"])
    metrics["harness.output_bytes"] = (sum(s[0] for s in sizes), "bytes")
    metrics["harness.output_files"] = (sum(s[1] for s in sizes), "count")
    metrics["trace.overhead_ratio"] = (walls[True] / walls[False], "ratio")
    detail = {
        "walls_s": {"untraced": walls[False], "traced": walls[True]},
        "env": reports["child1"]["env"],
        "blas_thread_vars": {tag: r["blas_thread_vars"] for tag, r in reports.items()},
    }
    return attempted, failed, metrics, problems, detail


# ---------------------------------------------------------------------------
# fingerprint and main


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "git_commit": _git_commit()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed, used as base_seed of the first unit")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "tfwa" / "__init__.py").is_file():
        print(f"error: no tfwa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(workload, os.environ, ROOT / "src")
    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            if args.trace:
                result = run_traced(workload, args.seed, work, env, deadline)
            else:
                result = run_untraced(workload, args.seed, args.seconds, work, env, deadline)
        except ChildFailed as exc:
            runs = workload.runs_per_unit()
            result = (runs, runs, {}, [str(exc)], {})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, metrics, problems, detail = result
    correct = failed == 0 and not problems and bool(metrics)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "detail": detail,
        "problems": problems,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = STATE / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  runs_failed/runs_attempted {failed}/{attempted}")
    env_line = {**record["host"], **detail.get("env", {})}
    env_line["blas_thread_vars"] = next(iter(detail.get("blas_thread_vars", {}).values()), None)
    print(f"  env {json.dumps(env_line)}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
