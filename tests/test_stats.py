import numpy as np
import pytest
import scipy.stats

from qaoa_pca.stats import EXACT_LIMIT, wilcoxon_signed_rank

from oracles import exact_p_by_enumeration


def test_sample_validation():
    # numpy would broadcast the length-1 vector; empty and non-finite samples are refused by compare and RunRecord
    with pytest.raises(ValueError, match="length mismatch: 1 vs 2"):
        wilcoxon_signed_rank((1.0,), (1.0, 2.0))
    with pytest.raises(ValueError, match="length mismatch: 3 vs 2"):
        wilcoxon_signed_rank(np.zeros(3), np.ones(2))


def test_all_equal_is_degenerate():
    res = wilcoxon_signed_rank((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    assert res.p_value == 1.0
    assert res.rbc == 0.0


def test_constant_shift_ten_pairs():
    b = tuple(float(x) for x in range(10))
    a = tuple(x + 1.0 for x in b)
    res = wilcoxon_signed_rank(a, b)
    assert res.rbc == 1.0
    assert res.p_value == 2.0 / 2**10  # every pattern but all-plus is strictly below


def test_hand_worked_six_pair_case():
    # d = (+1, -2, +3, -4, +5, -6): W+ = 1+3+5 = 9, W- = 2+4+6 = 12
    a = (1.0, 0.0, 3.0, 0.0, 5.0, 0.0)
    b = (0.0, 2.0, 0.0, 4.0, 0.0, 6.0)
    res = wilcoxon_signed_rank(a, b)
    assert res.p_value == exact_p_by_enumeration(np.array(a) - np.array(b))
    assert res.rbc == pytest.approx((9 - 12) / 21)


def test_exact_branch_matches_enumeration_on_random_corpus():
    rng = np.random.default_rng(17)
    for case in range(200):
        n = int(rng.integers(1, 13))
        # integer-ish values force plenty of ties and zero differences
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        d = a - b
        if not np.any(d != 0):
            continue
        res = wilcoxon_signed_rank(tuple(a), tuple(b))
        assert res.p_value == exact_p_by_enumeration(d), f"case {case}: {a} vs {b}"


def test_rbc_endpoints():
    a = (5.0, 6.0, 7.0, 8.0)
    b = (1.0, 2.0, 3.0, 4.0)
    assert wilcoxon_signed_rank(a, b).rbc == 1.0
    assert wilcoxon_signed_rank(b, a).rbc == -1.0


def test_rbc_tied_magnitudes_cancel():
    assert wilcoxon_signed_rank((1.0, 0.0), (0.0, 1.0)).rbc == 0.0  # d = (+1, -1)


def test_antisymmetry():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = tuple(rng.normal(size=n))
        b = tuple(rng.normal(size=n))
        fwd = wilcoxon_signed_rank(a, b)
        rev = wilcoxon_signed_rank(b, a)
        assert fwd.p_value == rev.p_value
        assert fwd.rbc == -rev.rbc


def test_exact_and_normal_branches_agree_near_cutoff():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(20, EXACT_LIMIT + 1))
        a = rng.normal(0.2, 1.0, n)
        b = rng.normal(0.0, 1.0, n)
        d = a - b
        d = d[d != 0]
        res = wilcoxon_signed_rank(tuple(a), tuple(b))
        approx = scipy.stats.wilcoxon(
            d, zero_method="wilcox", correction=True, alternative="two-sided", method="approx"
        )
        assert res.p_value == pytest.approx(float(approx.pvalue), abs=0.01)


def test_normal_branch_matches_reference_implementation():
    rng = np.random.default_rng(37)
    samples = []
    for _ in range(25):
        n = int(rng.integers(EXACT_LIMIT + 1, 120))
        a = rng.normal(0.1, 1.0, n)
        b = rng.normal(0.0, 1.0, n)
        # round half the values to provoke tied magnitudes
        a[: n // 2] = np.round(a[: n // 2], 1)
        b[: n // 2] = np.round(b[: n // 2], 1)
        samples.append((a, b))
    # every |d| tied: the variance's least value, n(n+1)^2 / 16
    samples += [(d, np.zeros(d.size)) for d in (np.ones(26), np.ones(30), np.r_[np.ones(20), -np.ones(10)])]
    for a, b in samples:
        d = a - b
        if not np.any(d != 0):
            continue
        res = wilcoxon_signed_rank(tuple(a), tuple(b))
        ref = scipy.stats.wilcoxon(
            d[d != 0], zero_method="wilcox", correction=True, alternative="two-sided", method="approx"
        )
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_p_value_decreases_with_growing_shift():
    rng = np.random.default_rng(41)
    b = rng.normal(0.0, 1.0, 30)
    previous = None
    for shift in (0.1, 0.3, 0.6, 1.0, 2.0):
        a = b + shift + rng.normal(0.0, 1e-6, 30)  # tiny jitter keeps ranks honest
        p = wilcoxon_signed_rank(tuple(a), tuple(b)).p_value
        if previous is not None:
            assert p <= previous
        previous = p

