"""Rank-sum test, win/lose/tie cells, and average-rank statistics.

The exact branch is checked against a brute-force oracle that enumerates
every rank assignment with itertools, a fully independent route from the
implementation's counting recurrence.  Both branches, the ranks and the
average ranks are also checked against scipy.stats, a test-only dependency.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.stats import mannwhitneyu, rankdata

from tfwa.stats import (
    ComparisonCell,
    _average_ranks,
    _exact_two_sided,
    _normal_two_sided,
    average_rank,
    wilcoxon_rank_sum,
    win_lose_tie,
)


def brute_force_p(a, b):
    """Two-sided exact rank-sum p-value by direct enumeration (no ties)."""
    n, m = len(a), len(b)
    pooled = sorted(a + b)
    assert len(set(pooled)) == n + m, "oracle needs tie-free data"
    rank_of = {v: i + 1 for i, v in enumerate(pooled)}
    u_obs = sum(rank_of[v] for v in a) - n * (n + 1) // 2
    us = [sum(c) - n * (n + 1) // 2 for c in combinations(range(1, n + m + 1), n)]
    cdf = sum(1 for u in us if u <= u_obs)
    sf = sum(1 for u in us if u >= u_obs)
    return u_obs, min(1.0, 2.0 * min(cdf, sf) / len(us))


def test_frozen_example():
    u, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert u == 0.0
    assert p == pytest.approx(0.1, abs=1e-15)


def test_frozen_example_swapped():
    u, p = wilcoxon_rank_sum([4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
    assert u == 9.0
    assert p == pytest.approx(0.1, abs=1e-15)


def test_identical_samples_give_p_one():
    assert wilcoxon_rank_sum([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])[1] == 1.0
    assert wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])[1] == 1.0


def test_small_samples_rejected():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1.0, 2.0], [3.0, 4.0, 5.0])


@pytest.mark.parametrize("n,m", [(3, 3), (4, 5), (6, 6), (3, 8)])
def test_exact_branch_matches_enumeration(n, m):
    # every way to interleave the two samples, realised as rank data
    for subset in combinations(range(1, n + m + 1), n):
        a = [float(r) for r in subset]
        b = [float(r) for r in range(1, n + m + 1) if r not in subset]
        u_mine, p_mine = wilcoxon_rank_sum(a, b)
        u_ref, p_ref = brute_force_p(a, b)
        assert u_mine == float(u_ref)
        assert p_mine == pytest.approx(p_ref, abs=1e-12)


def test_shifted_normals_highly_significant():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 1.0, 30)
    b = rng.normal(2.0, 1.0, 30)
    _, p = wilcoxon_rank_sum(a, b)
    assert p < 1e-3


def test_crossover_branch_agreement():
    # the two p-value routes stay within 0.02 absolute of each other at the
    # largest pooled size the exact branch handles
    rng = np.random.default_rng(11)
    worst = 0.0
    no_ties = np.ones(12, dtype=int)
    for _ in range(200):
        pooled = rng.permutation(np.arange(1.0, 13.0))
        u, _ = wilcoxon_rank_sum(pooled[:6], pooled[6:])
        p_exact = _exact_two_sided(int(u), 6, 6)
        p_normal = _normal_two_sided(u, 6, 6, no_ties)
        worst = max(worst, abs(p_exact - p_normal))
    assert worst <= 0.02


def test_normal_branch_handles_heavy_ties():
    a = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]
    b = [2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0]
    u, p = wilcoxon_rank_sum(a, b)
    assert 0.0 < p <= 1.0
    assert u + wilcoxon_rank_sum(b, a)[0] == len(a) * len(b)


def _tied_samples(top):
    side = hst.lists(hst.integers(min_value=0, max_value=top), min_size=3, max_size=25)
    return hst.tuples(side, side)


@given(hst.integers(min_value=1, max_value=40).flatmap(_tied_samples))
@example(([0, 5, 9, 12], [1, 2, 30]))  # tie-free: the exact branch
@example(([3, 3, 3], [3, 3, 3, 3]))  # one value: zero variance
@settings(max_examples=300, deadline=None)
def test_matches_scipy_mannwhitneyu(samples):
    # heavily tied integer samples: the normal branch's tie correction is
    # pinned, and the exact branch is reached whenever it should be
    a, b = ([float(v) for v in side] for side in samples)
    exact = len(a) + len(b) <= 12 and len(set(a + b)) == len(a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = mannwhitneyu(
            a,
            b,
            alternative="two-sided",
            use_continuity=True,
            method="exact" if exact else "asymptotic",
        )
    u, p = wilcoxon_rank_sum(a, b)
    assert u == ref.statistic
    assert abs(p - ref.pvalue) <= 1e-12


_TIED_FLOATS = hst.one_of(
    hst.sampled_from([-math.inf, -1.5, 0.0, 2.0, math.inf]), hst.floats(allow_nan=False)
)


@given(hst.lists(_TIED_FLOATS, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_average_ranks_match_scipy_rankdata(values):
    np.testing.assert_array_equal(_average_ranks(values), rankdata(values, method="average"))


@given(
    hst.integers(min_value=2, max_value=5).flatmap(
        lambda k: hst.lists(
            hst.lists(_TIED_FLOATS, min_size=k, max_size=k), min_size=1, max_size=8
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_average_rank_matches_per_function_rankdata(rows):
    algos = [f"algo{i}" for i in range(len(rows[0]))]
    table = {f"f{j}": dict(zip(algos, row)) for j, row in enumerate(rows)}
    per_function = np.array([rankdata(row, method="average") for row in rows])
    expected = dict(zip(algos, per_function.mean(axis=0)))
    assert average_rank(table) == expected


@given(
    hst.lists(hst.integers(min_value=-1000, max_value=1000), min_size=3, max_size=40),
    hst.lists(hst.integers(min_value=-1000, max_value=1000), min_size=3, max_size=40),
)
@settings(max_examples=80, deadline=None)
def test_symmetry_property(xs, ys):
    a = [float(v) for v in xs]
    b = [float(v) for v in ys]
    u_ab, p_ab = wilcoxon_rank_sum(a, b)
    u_ba, p_ba = wilcoxon_rank_sum(b, a)
    assert p_ab == p_ba
    assert u_ab + u_ba == pytest.approx(len(a) * len(b), abs=1e-9)


@given(
    hst.sets(hst.integers(min_value=-500, max_value=500), min_size=8, max_size=26),
    hst.integers(min_value=3, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_monotone_transform_invariance(pool, n):
    values = sorted(pool)
    a = [float(v) for v in values[:n]]
    b = [float(v) for v in values[n:]]
    base = wilcoxon_rank_sum(a, b)[1]
    shifted = wilcoxon_rank_sum([2 * v + 7 for v in a], [2 * v + 7 for v in b])[1]
    cubed = wilcoxon_rank_sum([v**3 for v in a], [v**3 for v in b])[1]
    assert base == shifted == cubed


def _samples(rows):
    return {f"f{i}": np.asarray(row, dtype=float) for i, row in enumerate(rows)}


def test_win_lose_tie_identical_results():
    rng = np.random.default_rng(0)
    rows = [rng.normal(size=30) for _ in range(4)]
    table_a = _samples(rows)
    table_b = _samples([r.copy() for r in rows])
    cell = win_lose_tie(table_a, table_b)
    assert (cell.win, cell.lose, cell.tie) == (0, 0, 4)


def test_win_lose_tie_strict_dominance():
    rng = np.random.default_rng(1)
    table_a = {f"f{i}": rng.normal(0.0, 1.0, 30) for i in range(5)}
    table_b = {k: v + 50.0 for k, v in table_a.items()}
    cell = win_lose_tie(table_a, table_b)
    assert (cell.win, cell.lose, cell.tie) == (5, 0, 0)


def test_win_lose_tie_mixed():
    rng = np.random.default_rng(2)
    sig_a = rng.normal(0.0, 1.0, 30)
    insig = rng.normal(0.0, 1.0, 30)
    table_a = {"hard": sig_a, "easy": insig}
    table_b = {"hard": sig_a + 10.0, "easy": insig.copy()}
    cell = win_lose_tie(table_a, table_b)
    assert (cell.win, cell.lose, cell.tie) == (1, 0, 1)


def test_win_lose_tie_mismatched_functions():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        win_lose_tie({"a": rng.normal(size=5)}, {"b": rng.normal(size=5)})


def test_win_lose_tie_counts_sum():
    rng = np.random.default_rng(4)
    table_a = {f"f{i}": rng.normal(0.0, 1.0, 12) for i in range(6)}
    table_b = {f"f{i}": rng.normal(0.3 * i, 1.0, 12) for i in range(6)}
    cell = win_lose_tie(table_a, table_b)
    assert cell.win + cell.lose + cell.tie == 6
    assert isinstance(cell, ComparisonCell)


@given(hst.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_win_lose_tie_mirror(seed):
    rng = np.random.default_rng(seed)
    table_a = {f"f{i}": rng.normal(0.0, 1.0, 12) for i in range(5)}
    table_b = {f"f{i}": rng.normal(rng.uniform(-1, 1), 1.0, 12) for i in range(5)}
    fwd = win_lose_tie(table_a, table_b)
    rev = win_lose_tie(table_b, table_a)
    assert (fwd.win, fwd.lose, fwd.tie) == (rev.lose, rev.win, rev.tie)


def test_average_rank_total_dominance():
    table = {"f1": {"A": 0.1, "B": 0.5}, "f2": {"A": 0.2, "B": 0.9}}
    ranks = average_rank(table)
    assert ranks == {"A": 1.0, "B": 2.0}


def test_average_rank_shared_rank():
    table = {"f1": {"A": 0.3, "B": 0.3}, "f2": {"A": 0.1, "B": 0.9}}
    ranks = average_rank(table)
    assert ranks["A"] == pytest.approx(1.25)
    assert ranks["B"] == pytest.approx(1.75)


def test_average_rank_cyclic():
    table = {
        "f1": {"A": 1.0, "B": 2.0, "C": 3.0},
        "f2": {"A": 3.0, "B": 1.0, "C": 2.0},
        "f3": {"A": 2.0, "B": 3.0, "C": 1.0},
    }
    ranks = average_rank(table)
    assert all(math.isclose(r, 2.0) for r in ranks.values())


def test_average_rank_needs_two_algos():
    with pytest.raises(ValueError):
        average_rank({"f1": {"A": 1.0}})


def test_average_rank_needs_consistent_algos():
    with pytest.raises(ValueError):
        average_rank({"f1": {"A": 1.0, "B": 2.0}, "f2": {"A": 1.0, "C": 2.0}})
