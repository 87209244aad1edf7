"""End-to-end acceptance suite.

One test per acceptance criterion.  Each prints a single
``[PRIMARY n] PASS/FAIL`` line (visible under ``pytest -s``) and then
asserts the same condition, so the suite doubles as a human-readable
checklist and a hard gate.
"""

import itertools
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.random import default_rng
from scipy import stats

from algorithms import ALGORITHMS, cell_of, run_of
from tfwa.benchfns import make_problem
from tfwa.explosion import adjust_degree_of_freedom
from tfwa.harness import (
    ExperimentConfig,
    load_experiment,
    run_experiment,
    wilcoxon_rank_sum,
    win_lose_tie,
)
from tfwa.natgrad import (
    fisher_closed_form,
    fisher_monte_carlo,
    fisher_scale_block,
    moment_identity_residuals,
    natgrad_weight,
)
from tfwa.swarm import SwarmConfig
from tfwa.tdist import DF_CAP, TDistribution

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
GRID_DIMS = (1, 2, 3)
GRID_DFS = (3.0, 5.0, 10.0)


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[PRIMARY {num}] {status}: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _seeded_spd(d, seed):
    rng = default_rng(seed)
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.5 * np.eye(d)


def _grid_dist(d, df):
    return TDistribution(np.zeros(d), _seeded_spd(d, 100 + 10 * d + int(df)), df)


def _experiment_gaps(name, suite, algos):
    """``{(problem, algo): [best_gap, ...]}`` of the committed experiment
    ``name``, run in memory, once its file is checked to hold the 10-D,
    30-repetition, seed-0 grid of ``suite`` and ``algos`` at the default
    budget and swarm settings, so that no edit of it can weaken a criterion.
    The grid runs on every core: its outputs are the same at any worker
    count."""
    config = load_experiment(EXPERIMENTS / name)
    assert config == ExperimentConfig(
        suite=suite, dims=(10,), algos=algos, reps=30, budget_multiplier=10000, base_seed=0
    )
    gaps = {}
    for row in run_experiment(replace(config, workers=os.cpu_count() or 1))[0]:
        gaps.setdefault((row["problem"], row["algo"]), []).append(row["best_gap"])
    return gaps


def test_criterion_1_unimodal_convergence():
    gaps = _experiment_gaps("unimodal-d10.json", ("sphere", "elliptic"), ("tfwa",))
    hits = {
        name: sum(gap <= 1e-8 for gap in gaps[name, "tfwa"]) for name in ("sphere", "elliptic")
    }
    ok = all(count >= 27 for count in hits.values())
    _verdict(
        1,
        ok,
        f"10-D defaults, gap <= 1e-8 in sphere {hits['sphere']}/30, "
        f"elliptic {hits['elliptic']}/30 (need >= 27)",
    )


def test_criterion_2_fisher_oracle():
    worst_mean = 0.0
    worst_scale = 0.0
    for d in GRID_DIMS:
        for df in GRID_DFS:
            dist = _grid_dist(d, df)
            closed = fisher_closed_form(dist)
            scale_cf = fisher_scale_block(dist)
            mc = fisher_monte_carlo(dist, 500_000, default_rng(7))
            e_mean = np.linalg.norm(mc[:d, :d] - closed.mean_block) / np.linalg.norm(
                closed.mean_block
            )
            e_scale = np.linalg.norm(mc[d:, d:] - scale_cf) / np.linalg.norm(scale_cf)
            worst_mean = max(worst_mean, e_mean)
            worst_scale = max(worst_scale, e_scale)
    ok = worst_mean < 0.05 and worst_scale < 0.08
    _verdict(
        2,
        ok,
        f"Monte-Carlo Fisher n=5e5 over d x df grid: worst mean-block error "
        f"{worst_mean:.4f} (< 0.05), worst scale-block error {worst_scale:.4f} (< 0.08)",
    )


def test_criterion_3_moment_identities():
    worst = 0.0
    for d in GRID_DIMS:
        for df in GRID_DFS:
            r1, r2 = moment_identity_residuals(_grid_dist(d, df), 1_000_000, default_rng(11))
            worst = max(worst, r1, r2)
    ok = worst < 0.03
    _verdict(3, ok, f"moment identity residuals at n=1e6: worst {worst:.4f} (< 0.03)")


def _normal_ks_min(df):
    """Smallest per-coordinate KS p-value against N(0, 1) of 10 000 draws
    from a d=3 standard t distribution at ``df``."""
    sample = TDistribution(np.zeros(3), np.eye(3), df).sample(10_000, default_rng(0))
    return min(stats.kstest(sample[:, j], "norm").pvalue for j in range(3))


def test_criterion_4_distribution_correctness():
    sigma = _seeded_spd(3, 42)
    dist5 = TDistribution(np.zeros(3), sigma, 5.0)
    draws = dist5.sample(400_000, default_rng(0))
    target = (5.0 / 3.0) * sigma
    cov_err = np.linalg.norm(np.cov(draws, rowvar=False) - target) / np.linalg.norm(target)

    ks_min, ks_cap = _normal_ks_min(1.0e8), _normal_ks_min(DF_CAP)

    cauchy = TDistribution(np.zeros(1), np.eye(1), 1.0)
    tail = float(np.mean(np.abs(cauchy.sample(1_000_000, default_rng(0))[:, 0]) > 5.0))
    tail_err = abs(tail - 0.1257)

    ok = cov_err < 0.03 and ks_min > 0.01 and ks_cap > 0.01 and tail_err < 0.002
    _verdict(
        4,
        ok,
        f"df=5 covariance error {cov_err:.4f} (< 0.03); per-coordinate KS min p "
        f"{ks_min:.3f} at df 1e8 and {ks_cap:.3f} at df DF_CAP = 2^30 (each > 0.01); "
        f"df=1 tail freq {tail:.5f} within {tail_err:.5f} of 0.1257 (< 0.002)",
    )


def _weight_ratio(df):
    """Max/min natural weight over 50 sparks of a d=10 t distribution at ``df``."""
    frozen = TDistribution(np.zeros(10), np.eye(10), df)
    s = frozen.mahalanobis(frozen.sample(50, default_rng(0)))
    weights = natgrad_weight(s, 10, df)
    return float(weights.max() / weights.min())


def test_criterion_5_gaussian_degeneration():
    ratio, ratio_cap = _weight_ratio(1.0e8), _weight_ratio(DF_CAP)

    problem = make_problem("sphere", 10, seed=0)
    results = cell_of("gaussian-limit")(problem, SwarmConfig(), range(30))
    hits = sum(r.best_fitness - problem.f_star <= 1e-8 for r in results)
    ok = ratio < 1.001 and ratio_cap < 1.001 and hits >= 27
    _verdict(
        5,
        ok,
        f"weight max/min ratio {ratio:.6f} at df 1e8 and {ratio_cap:.6f} at df DF_CAP = 2^30 "
        f"(each < 1.001); gaussian-limit (df frozen at DF_CAP) sphere {hits}/30 runs "
        f"at gap <= 1e-8 (need >= 27)",
    )


def test_criterion_6_harness_invariants(tmp_path):
    grid = dict(
        suite=("sphere", "rastrigin"),
        dims=(2, 5),
        algos=("tfwa", "gaussian-limit", "uniform-fwa", "random-search"),
        reps=2,
        budget_multiplier=2000,
        base_seed=0,
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rows, _ = run_experiment(ExperimentConfig(out_dir=str(out_a), **grid))
    run_experiment(ExperimentConfig(out_dir=str(out_b), **grid))

    evals_ok = all(r["evals"] <= 2000 * r["dim"] + 2 for r in rows)

    identical = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    for path in sorted((out_a / "traces").glob("*.jsonl")):
        identical = identical and path.read_bytes() == (out_b / "traces" / path.name).read_bytes()

    df_ok = True
    scale_ok = True
    restarts_seen = 0
    for path in sorted((out_a / "traces").glob("*.jsonl")):
        last = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                prev = last.get(rec["fw"])
                if rec["restart"]:
                    restarts_seen += 1
                elif prev is not None:
                    df_ok = df_ok and rec["df"] >= prev["df"] - 1e-12
                    scale_ok = scale_ok and rec["scale"] <= prev["scale"] * math.e * (1 + 1e-12)
                last[rec["fw"]] = rec

    mono_ok = True
    problem = make_problem("rastrigin", 5, seed=0)
    for algo in ALGORITHMS:
        prev_best = math.inf
        for rec in run_of(algo)(problem, SwarmConfig(), seed=3).trace:
            mono_ok = mono_ok and rec.best_gap <= prev_best + 1e-15
            prev_best = rec.best_gap

    ok = evals_ok and identical and df_ok and scale_ok and mono_ok and restarts_seen > 0
    _verdict(
        6,
        ok,
        f"32-run grid: evals within budget+N {evals_ok}; byte-identical reruns "
        f"{identical}; df non-decreasing between restarts {df_ok} "
        f"({restarts_seen} restart rows); scale growth <= e {scale_ok}; "
        f"best-so-far monotone {mono_ok}",
    )


def test_criterion_7_multimodal_paired_comparison():
    gaps = _experiment_gaps(
        "rastrigin-d10-t-vs-uniform.json", ("rastrigin",), ("tfwa", "uniform-fwa")
    )
    t_gaps, u_gaps = gaps["rastrigin", "tfwa"], gaps["rastrigin", "uniform-fwa"]
    med_t = float(np.median(t_gaps))
    med_u = float(np.median(u_gaps))
    _, p = wilcoxon_rank_sum(t_gaps, u_gaps)
    ok = med_t < med_u and p < 0.05
    _verdict(
        7,
        ok,
        f"10-D rastrigin, 30 paired runs: median {med_t:.3f} vs uniform "
        f"{med_u:.3f}, rank-sum p {p:.3g} (< 0.05)",
    )


def test_criterion_8_statistics_oracle():
    u0, p0 = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    frozen_ok = u0 == 0.0 and p0 == 0.1

    cases = 0
    exact_ok = True
    for n in range(3, 10):
        for m in range(3, 10):
            if n + m > 12:
                continue
            pooled = n + m
            ranks = np.arange(1.0, pooled + 1.0)
            sums = [sum(c) for c in itertools.combinations(range(1, pooled + 1), n)]
            total = len(sums)
            for combo in itertools.combinations(range(pooled), n):
                mask = np.zeros(pooled, dtype=bool)
                mask[list(combo)] = True
                a, b = ranks[mask], ranks[~mask]
                u, p = wilcoxon_rank_sum(a, b)
                rank_sum = a.sum()
                lo = sum(1 for s in sums if s <= rank_sum)
                hi = sum(1 for s in sums if s >= rank_sum)
                p_oracle = min(1.0, 2.0 * min(lo, hi) / total)
                exact_ok = (
                    exact_ok
                    and u == rank_sum - n * (n + 1) / 2.0
                    and abs(p - p_oracle) < 1e-12
                )
                cases += 1

    rng = default_rng(5)
    mirror_ok = True
    for _ in range(20):
        keys = [f"f{k}" for k in range(6)]
        a = {k: rng.normal(size=8).tolist() for k in keys}
        b = {k: rng.normal(size=8).tolist() for k in keys}
        fwd = win_lose_tie(a, b)
        rev = win_lose_tie(b, a)
        mirror_ok = mirror_ok and (fwd.win, fwd.lose, fwd.tie) == (rev.lose, rev.win, rev.tie)

    ok = frozen_ok and exact_ok and mirror_ok
    _verdict(
        8,
        ok,
        f"exact p=0.1 on frozen pair {frozen_ok}; {cases} enumerated no-tie cases "
        f"match brute force {exact_ok}; win/lose/tie mirror symmetry {mirror_ok}",
    )


def test_criterion_9_degree_of_freedom_contract():
    results = (
        adjust_degree_of_freedom(5.0, 1.0, 2.0, 10.0),
        adjust_degree_of_freedom(5.0, 1.0, 2.0, 1.05),
        adjust_degree_of_freedom(5.0, 2.0, 2.0, 10.0),
        adjust_degree_of_freedom(float(2**30), 1.0, 2.0, 10.0),
    )
    expected = (50.0, 6.0, 5.0, float(2**30))
    ok = results == expected
    _verdict(
        9,
        ok,
        f"adjustment examples {results} == {expected}",
    )
