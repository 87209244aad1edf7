"""Workload definitions and the per-run configuration handed to the child.

A workload is a fixed experiment grid (problems, dimension, algorithms,
repetitions per unit) plus how it is invoked and which BLAS threading the
child runs under.  The driver turns a workload and ``--seed`` into a list of
*units*; one unit is one call of ``run_experiment`` (or one ``tfwa-bench
run`` invocation) with its own ``base_seed`` and output directory.  The
child process receives only that generated list.
"""

from __future__ import annotations

from dataclasses import dataclass

# Base seed of unit k is ``seed + k * UNIT_SEED_STRIDE``: unit 0 runs at the
# workload seed itself, and different workload seeds never share a unit.
UNIT_SEED_STRIDE = 1_000_000

# Best-gap target: a unimodal-d10 run that ends above it fails, and the traced
# run reports the first generation at which each tfwa run reaches it.
TARGET_GAP = 1e-8

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "api": harness.run_experiment, "cli": harness.main(["run", ...])
    suite: tuple
    dim: int
    algos: tuple
    reps: int  # repetitions per problem and algorithm in one unit
    budget_mult: int
    workers: int  # worker processes in the timed (untraced) run
    pin_blas: bool  # child runs with one BLAS thread per process
    gap_target: float | None  # a run whose best gap ends above this fails

    def runs_per_unit(self) -> int:
        return len(self.suite) * len(self.algos) * self.reps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="unimodal-d10",
            entry="api",
            suite=("sphere", "elliptic"),
            dim=10,
            algos=("tfwa",),
            reps=1,
            budget_mult=10000,
            workers=1,
            pin_blas=False,
            gap_target=TARGET_GAP,
        ),
        Workload(
            name="rastrigin-d100",
            entry="api",
            suite=("rastrigin",),
            dim=100,
            algos=("tfwa",),
            reps=1,
            budget_mult=1000,
            workers=1,
            pin_blas=False,
            gap_target=None,
        ),
        Workload(
            name="baselines-grid",
            entry="cli",
            suite=("rastrigin", "ackley", "griewank"),
            dim=10,
            algos=("uniform-fwa", "random-search"),
            reps=5,
            budget_mult=10000,
            workers=2,
            pin_blas=True,
            gap_target=None,
        ),
    )
}


def make_units(workload: Workload, seed: int, count: int, out_root, workers: int):
    """The first ``count`` units of ``workload`` for workload seed ``seed``."""
    units = []
    for k in range(count):
        grid = {
            "suite": list(workload.suite),
            "dims": [workload.dim],
            "algos": list(workload.algos),
            "reps": workload.reps,
            "budget_multiplier": workload.budget_mult,
            "base_seed": seed + k * UNIT_SEED_STRIDE,
            "workers": workers,
            "out_dir": str(out_root / f"unit{k:03d}"),
        }
        unit = {"grid": grid}
        if workload.entry == "cli":
            unit["argv"] = [
                "run",
                "--suite", *grid["suite"],
                "--dims", str(workload.dim),
                "--algos", *grid["algos"],
                "--reps", str(grid["reps"]),
                "--budget-mult", str(grid["budget_multiplier"]),
                "--seed", str(grid["base_seed"]),
                "--workers", str(workers),
                "--out", grid["out_dir"],
            ]
        units.append(unit)
    return units


def child_env(workload: Workload, base_env, src_dir):
    """Environment of the workload's child: the checkout's ``src`` first on
    the import path, and BLAS threads pinned to one or left at the library
    default."""
    env = dict(base_env)
    env["PYTHONPATH"] = str(src_dir) + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    if workload.pin_blas:
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
    return env
