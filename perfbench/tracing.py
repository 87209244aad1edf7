"""Outside-in tracing of tfwa's public functions.

The traced child installs wrappers by replacing module attributes and class
methods of the already imported ``tfwa`` modules; the program's source is not
touched.  Every wrapped call records a span (name, start, end, parent span,
run id) in memory, and a few wrappers also count work (points evaluated,
coordinates repaired, LAPACK calls inside an explosion).  The spans are
written out when the child's runs end; :func:`layer_metrics` turns them into
the per-layer metrics in the driver.

Span time is taken with ``time.perf_counter`` around the wrapped call.  The
counting a wrapper does after the call closes falls into its caller's span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  "Class.method" wraps a method in place on
# the class; a plain function is rebound in every tfwa module that imported
# it by name.
SPANS = (
    ("tfwa.tdist", "TDistribution.__init__", "tdist.TDistribution"),
    ("tfwa.tdist", "TDistribution.sample", "tdist.sample"),
    ("tfwa.tdist", "TDistribution.mahalanobis", "tdist.mahalanobis"),
    ("tfwa.natgrad", "natgrad_weight", "natgrad.natgrad_weight"),
    ("tfwa.explosion", "explode", "explosion.explode"),
    ("tfwa.explosion", "regularize_covariance", "explosion.regularize_covariance"),
    ("tfwa.explosion", "fuse_weights", "explosion.fuse_weights"),
    ("tfwa.explosion", "repair_bounds", "explosion.repair_bounds"),
    ("tfwa.benchfns", "BenchmarkProblem.evaluate_batch", "benchfns.evaluate_batch"),
    ("tfwa.benchfns", "make_problem", "benchfns.make_problem"),
    ("tfwa.swarm", "run", "swarm.run"),
    ("tfwa.swarm", "restart_firework", "swarm.restart_firework"),
    ("tfwa.swarm", "loser_out_check", "swarm.loser_out_check"),
    ("tfwa.baselines", "uniform_fwa_run", "baselines.uniform_fwa_run"),
    ("tfwa.baselines", "random_search_run", "baselines.random_search_run"),
    ("tfwa.baselines", "uniform_sparks", "baselines.uniform_sparks"),
    ("tfwa.harness", "run_experiment", "harness.run_experiment"),
)

# One optimisation run; spans inside the outermost one share its run id.
RUN_SPANS = frozenset({"swarm.run", "baselines.uniform_fwa_run", "baselines.random_search_run"})

# Matrix factorisations and solves, counted (not timed) while explode is open.
LAPACK = (
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "cholesky"),
    ("numpy.linalg", "solve"),
    ("tfwa.tdist", "solve_triangular"),
)


class Tracer:
    """In-memory span recorder for one child process.

    ``install`` and ``uninstall`` may alternate; spans and counts accumulate
    over every installed period.
    """

    def __init__(self, target_gap):
        self.target_gap = target_gap
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.counts = {}
        self.gens_to_target = []  # per swarm.run: first generation at target, or None
        self._stack = [-1]
        self._run = -1
        self._runs = 0
        self._run_depth = 0
        self._explode_depth = 0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        tfwa_modules = [m for n, m in sys.modules.items() if n == "tfwa" or n.startswith("tfwa.")]
        for modname, attr, span in SPANS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._span_wrapper(span, cls.__dict__[method]))
            else:
                orig = getattr(module, attr)
                self._rebind(orig, self._span_wrapper(span, orig), tfwa_modules)
        for modname, attr in LAPACK:
            module = importlib.import_module(modname)
            orig = getattr(module, attr)
            self._rebind(orig, self._lapack_wrapper(orig), [module, *tfwa_modules])
        return self

    def uninstall(self):
        while self._restore:
            obj, key, value = self._restore.pop()
            setattr(obj, key, value)

    def _set(self, obj, key, value):
        self._restore.append((obj, key, obj.__dict__[key]))
        setattr(obj, key, value)

    def _rebind(self, orig, wrapped, modules):
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is orig]:
                self._set(module, key, wrapped)

    # -- recording ----------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, span, fn):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        is_run = span in RUN_SPANS
        is_explode = span == "explosion.explode"
        after = {
            "explosion.repair_bounds": self._after_repair,
            "benchfns.evaluate_batch": self._after_evaluate,
            "swarm.run": self._after_swarm_run,
        }.get(span)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_run:
                if self._run_depth == 0:
                    self._run = self._runs
                    self._runs += 1
                self._run_depth += 1
            if is_explode:
                self._explode_depth += 1
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self._run)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count(f"{span}.raised.{type(exc).__name__}")
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
                if is_explode:
                    self._explode_depth -= 1
                if is_run:
                    self._run_depth -= 1
                    if self._run_depth == 0:
                        self._run = -1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _lapack_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._explode_depth:
                self._count("explosion.lapack_calls")
            return fn(*args, **kwargs)

        return wrapper

    def _after_repair(self, args, out):
        self._count("explosion.repair_bounds.drawn", out.size)
        self._count("explosion.repair_bounds.repaired", int(np.count_nonzero(out != args[0])))

    def _after_evaluate(self, args, out):
        self._count("benchfns.evaluate_batch.points", len(out))

    def _after_swarm_run(self, args, result):
        reached = next((r.gen for r in result.trace if r.best_gap <= self.target_gap), None)
        self.gens_to_target.append(reached)

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# analysis (driver side)


def span_stats(path):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct child
    spans; spans nest strictly because each child traces one thread.
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_t = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_t, minlength=k)
    return {
        names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i in range(k)
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, counts, gens_to_target):
    """Per-layer metrics as ``{name: (value, unit)}``."""

    def calls(span):
        return stats[span]["calls"]

    def self_s(span):
        return stats[span]["self_s"]

    explodes = calls("explosion.explode")
    points = counts.get("benchfns.evaluate_batch.points", 0)
    reached = [g for g in gens_to_target if g is not None]
    return {
        "tdist.TDistribution.calls": (calls("tdist.TDistribution"), "count"),
        "tdist.TDistribution.self_s": (self_s("tdist.TDistribution"), "s"),
        "tdist.sample.self_s": (self_s("tdist.sample"), "s"),
        "tdist.mahalanobis.self_s": (self_s("tdist.mahalanobis"), "s"),
        "natgrad.natgrad_weight.self_s": (self_s("natgrad.natgrad_weight"), "s"),
        "explosion.explode.calls": (explodes, "count"),
        "explosion.explode.self_s": (self_s("explosion.explode"), "s"),
        "explosion.explode.us_per_call": (
            1e6 * _ratio(stats["explosion.explode"]["total_s"], explodes),
            "us",
        ),
        "explosion.regularize_covariance.self_s": (self_s("explosion.regularize_covariance"), "s"),
        "explosion.fuse_weights.self_s": (self_s("explosion.fuse_weights"), "s"),
        "explosion.repair_bounds.self_s": (self_s("explosion.repair_bounds"), "s"),
        "explosion.repair_bounds.repaired_frac": (
            _ratio(
                counts.get("explosion.repair_bounds.repaired", 0),
                counts.get("explosion.repair_bounds.drawn", 0),
            ),
            "ratio",
        ),
        "explosion.degenerate_per_explode": (
            _ratio(counts.get("explosion.explode.raised.DegenerateStateError", 0), explodes),
            "ratio",
        ),
        "explosion.lapack_calls_per_explode": (
            _ratio(counts.get("explosion.lapack_calls", 0), explodes),
            "ratio",
        ),
        "benchfns.evaluate_batch.calls": (calls("benchfns.evaluate_batch"), "count"),
        "benchfns.evaluate_batch.points": (points, "count"),
        "benchfns.evaluate_batch.self_s": (self_s("benchfns.evaluate_batch"), "s"),
        "benchfns.evaluate_batch.us_per_point": (
            1e6 * _ratio(stats["benchfns.evaluate_batch"]["total_s"], points),
            "us",
        ),
        "benchfns.make_problem.self_s": (self_s("benchfns.make_problem"), "s"),
        "swarm.run.self_s": (self_s("swarm.run"), "s"),
        "swarm.restart_firework.calls": (calls("swarm.restart_firework"), "count"),
        "swarm.loser_out_check.calls": (calls("swarm.loser_out_check"), "count"),
        "swarm.gens_to_target.p50": (float(np.median(reached)) if reached else 0.0, "gen"),
        "baselines.uniform_fwa_run.self_s": (self_s("baselines.uniform_fwa_run"), "s"),
        "baselines.random_search_run.self_s": (self_s("baselines.random_search_run"), "s"),
        "baselines.uniform_sparks.self_s": (self_s("baselines.uniform_sparks"), "s"),
        "harness.run_experiment.self_s": (self_s("harness.run_experiment"), "s"),
    }


# Counts that must repeat exactly between two traced runs of the same code.
EXACT = (
    "explosion.lapack_calls_per_explode",
    "benchfns.evaluate_batch.points",
    "swarm.restart_firework.calls",
    "swarm.gens_to_target.p50",
)
