"""Paired nonparametric comparison: Wilcoxon signed-rank and rank-biserial effect size.

The signed-rank test here is exact (full sign-pattern distribution, computed by
dynamic programming over doubled ranks so tied average ranks stay integral) up
to EXACT_LIMIT effective pairs, and a tie- and continuity-corrected normal
approximation beyond. Zero differences are dropped before ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_LIMIT = 25


@dataclass(frozen=True)
class TestResult:
    p_value: float
    rbc: float  # rank-biserial (W+ - W-)/(W+ + W-); 0 when every pair ties


def _doubled_ranks(absd: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Average ranks of absd, times two (integral even with ties), and the size of each group of tied values."""
    _, inverse, counts = np.unique(absd, return_inverse=True, return_counts=True)
    # a tie span of c values ending at 1-based rank hi starts at hi - c + 1: its doubled rank is 2 * hi - c + 1
    return (2 * np.cumsum(counts) - counts + 1)[inverse], counts.tolist()


def _exact_two_tailed(d2ranks: np.ndarray, w2: int) -> float:
    """P(W+ <= w) doubled-rank subset-sum count, two-tailed, over 2^n patterns."""
    total = 1 << len(d2ranks)
    span = int(d2ranks.sum())
    counts = [0] * (span + 1)
    counts[0] = 1
    for r in d2ranks.tolist():
        for w in range(span, r - 1, -1):
            counts[w] += counts[w - r]
    cnt = sum(counts[: w2 + 1])
    return min(1.0, 2.0 * cnt / total)


def _normal_two_tailed(n: int, tie_sizes: list[int], w: float) -> float:
    mu = n * (n + 1) / 4.0
    # sum(t^3 - t) <= n^3 - n, so var >= n(n+1)^2 / 16 > 0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - sum(t**3 - t for t in tie_sizes) / 48.0
    z = (w - mu + 0.5) / math.sqrt(var)  # w = min(W+, W-) <= mu; +0.5 continuity
    return min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))


def wilcoxon_signed_rank(a, b) -> TestResult:
    """Test of the index-aligned pairs (a[i], b[i]); the caller checks that they are finite."""
    if len(a) != len(b):  # numpy would broadcast a length-1 vector against the other
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0.0]
    n = int(d.size)
    if n == 0:
        return TestResult(1.0, 0.0)
    ranks2, tie_sizes = _doubled_ranks(np.abs(d))
    w2_plus = int(ranks2[d > 0].sum())
    w2_minus = int(ranks2[d < 0].sum())
    w2 = min(w2_plus, w2_minus)
    if n <= EXACT_LIMIT:
        p = _exact_two_tailed(ranks2, w2)
    else:
        p = _normal_two_tailed(n, tie_sizes, w2 / 2.0)
    rbc = (w2_plus - w2_minus) / (w2_plus + w2_minus)
    return TestResult(p, rbc)
