"""Rank statistics over per-run results: the two-sided rank-sum test,
win/lose/tie counts per function, and average ranks across functions.

numpy and ``math`` alone: ``tfwa-bench compare`` and ``rank`` call these at
run time, where scipy need not be installed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


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
    """Two-sided p of an integer U under the exact null of tie-free samples."""
    counts = _rank_sum_counts(n, n + m)
    offset = n * (n + 1) // 2
    u_counts = counts[offset:]
    total = sum(u_counts)
    cdf = sum(u_counts[: u_obs + 1])
    sf = sum(u_counts[u_obs:])
    return min(1.0, 2.0 * min(cdf, sf) / total)


def _normal_two_sided(u, n, m, tie_sizes):
    """Two-sided p of U from the normal approximation, with tie and
    continuity corrections; ``tie_sizes`` counts each distinct pooled value."""
    total = n + m
    mean_u = n * m / 2.0
    tie_term = float(np.sum(tie_sizes**3 - tie_sizes)) / (total * (total - 1.0))
    var_u = n * m / 12.0 * ((total + 1.0) - tie_term)
    if var_u <= 0:
        return 1.0
    z = max(abs(u - mean_u) - 0.5, 0.0) / math.sqrt(var_u)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def wilcoxon_rank_sum(a, b):
    """Two-sided rank-sum test; returns ``(u_statistic, p_value)``.

    The statistic is the Mann-Whitney U of the first sample.  With 12 or
    fewer pooled observations and no ties the p-value comes from the exact
    null distribution; otherwise from the normal approximation with tie and
    continuity corrections.  Two all-identical samples give p = 1.  Needs
    at least three observations per sample.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    if n < 3 or m < 3:
        raise ValueError("need at least three observations per sample")
    pooled = np.concatenate([a, b])
    u_a = float(_average_ranks(pooled)[:n].sum()) - n * (n + 1) / 2.0
    tie_sizes = np.unique(pooled, return_counts=True)[1]
    if n + m <= 12 and not np.any(tie_sizes > 1):
        return u_a, _exact_two_sided(int(round(u_a)), n, m)
    return u_a, _normal_two_sided(u_a, n, m, tie_sizes)


@dataclass(frozen=True)
class ComparisonCell:
    win: int
    lose: int
    tie: int
    alpha: float


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
