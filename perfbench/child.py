"""Workload child: set up, run the generated units, report.

Started by ``run.py`` as ``python3 perfbench/child.py CONFIG REPORT`` with the
checkout's ``src`` on ``PYTHONPATH``.  CONFIG holds the generated units and
nothing about the workload seed.  Set-up (imports, config parsing, problem
construction) ends at ``t_ready``; in ``setup`` mode the child stops there.
Otherwise it runs units until ``seconds`` have passed since ``t_ready`` (all
of them when ``seconds`` is null), with tracing installed around each unit
marked ``trace``, and
writes timestamps from ``time.monotonic`` (one clock for every process on
the machine), the BLAS thread variables it saw and an environment
fingerprint to REPORT.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import BLAS_THREAD_VARS


def _fingerprint():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(config_path, report_path):
    with open(config_path) as fh:
        cfg = json.load(fh)

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import tfwa
    from tfwa import harness
    from tfwa.benchfns import make_problem

    src = Path(cfg["src"]).resolve()
    if src not in Path(tfwa.__file__).resolve().parents:
        raise RuntimeError(f"imported tfwa from {tfwa.__file__}, not from {src}")

    def experiment(grid):
        fields = {k: tuple(v) if isinstance(v, list) else v for k, v in grid.items()}
        return harness.ExperimentConfig(**fields)

    first = experiment(cfg["units"][0]["grid"])
    harness.validate_experiment(first)
    for name in first.suite:
        for dim in first.dims:
            make_problem(name, dim, first.base_seed)
    t_ready = time.monotonic()
    report = {
        "t_ready": t_ready,
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    if cfg["mode"] == "setup":
        _write(report_path, report)
        return 0

    tracer = None
    if any(unit.get("trace") for unit in cfg["units"]):
        from tracing import Tracer

        tracer = Tracer(cfg["target_gap"])
    units = []
    for unit in cfg["units"]:
        error = None
        if unit.get("trace"):
            tracer.install()
        t0 = time.monotonic()
        try:
            if "argv" in unit:
                code = harness.main(unit["argv"])
                if code != 0:
                    error = f"tfwa-bench exited with code {code}"
            else:
                harness.run_experiment(experiment(unit["grid"]))
        except Exception:
            error = traceback.format_exc()
        t1 = time.monotonic()
        if unit.get("trace"):
            tracer.uninstall()
        units.append({"t_begin": t0, "t_end": t1, "error": error})
        if cfg["seconds"] is not None and t1 - t_ready >= cfg["seconds"]:
            break
    t_done = time.monotonic()
    if tracer is not None:
        tracer.save(cfg["spans"])
        report["counts"] = tracer.counts
        report["gens_to_target"] = tracer.gens_to_target
    report.update(
        t_done=t_done,
        units=units,
        env=_fingerprint(),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    _write(report_path, report)
    return 0


def _write(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
