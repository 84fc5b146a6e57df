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
class PairedSample:
    """Two index-aligned metric vectors, one value per graph and method."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError(f"length mismatch: {len(self.a)} vs {len(self.b)}")
        if len(self.a) < 1:
            raise ValueError("need at least one pair")
        if not all(math.isfinite(x) for x in self.a + self.b):
            raise ValueError("sample contains non-finite values")


@dataclass(frozen=True)
class TestResult:
    w_statistic: float
    p_value: float
    rbc: float
    n_effective: int
    degenerate: bool = False


def _doubled_ranks(absd: np.ndarray) -> np.ndarray:
    """Average ranks of absd, times two (integral even with ties)."""
    order = np.argsort(absd, kind="stable")
    s = absd[order]
    out = np.empty(len(s), dtype=np.int64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        out[order[i : j + 1]] = (i + 1) + (j + 1)  # lo + hi of the 1-based tie span
        i = j + 1
    return out


def _exact_two_tailed(d2ranks: np.ndarray, w2: int) -> float:
    """P(W+ <= w) doubled-rank subset-sum count, two-tailed, over 2^n patterns."""
    total = 1 << len(d2ranks)
    span = int(d2ranks.sum())
    counts = [0] * (span + 1)
    counts[0] = 1
    for r in d2ranks:
        r = int(r)
        for w in range(span, r - 1, -1):
            counts[w] += counts[w - r]
    cnt = sum(counts[: w2 + 1])
    return min(1.0, 2.0 * cnt / total)


def _normal_two_tailed(d2ranks: np.ndarray, w: float) -> float:
    n = len(d2ranks)
    tie_sizes = np.unique(d2ranks, return_counts=True)[1].tolist()  # tied values share a rank
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - sum(t**3 - t for t in tie_sizes) / 48.0
    if var <= 0.0:
        return 1.0
    z = (w - mu + 0.5) / math.sqrt(var)  # w = min(W+, W-) <= mu; +0.5 continuity
    return min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))


def wilcoxon_signed_rank(s: PairedSample) -> TestResult:
    d = np.asarray(s.a, dtype=np.float64) - np.asarray(s.b, dtype=np.float64)
    d = d[d != 0.0]
    n = int(d.size)
    if n == 0:
        return TestResult(0.0, 1.0, 0.0, 0, degenerate=True)
    absd = np.abs(d)
    ranks2 = _doubled_ranks(absd)
    w2_plus = int(ranks2[d > 0].sum())
    w2_minus = int(ranks2[d < 0].sum())
    w2 = min(w2_plus, w2_minus)
    if n <= EXACT_LIMIT:
        p = _exact_two_tailed(ranks2, w2)
    else:
        p = _normal_two_tailed(ranks2, w2 / 2.0)
    rbc = (w2_plus - w2_minus) / (w2_plus + w2_minus)
    return TestResult(w2 / 2.0, p, rbc, n)


def rank_biserial(s: PairedSample) -> float:
    """(W+ - W-)/(W+ + W-) over nonzero differences; 0 when everything ties."""
    return wilcoxon_signed_rank(s).rbc


def median(v) -> float:
    arr = np.asarray(v, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("median of empty vector")
    return float(np.median(arr))
