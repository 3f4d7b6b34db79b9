from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from rankskew import (
    AsymmetricStudentT,
    EDGEWORTH_ZETA_STAR_COEFF,
    InsufficientOverlap,
    InvalidParams,
    RankedPnlCurve,
    SignChangeInWindow,
    TooFewPoints,
    TooShort,
    ast_sample,
    classical_moments,
    co_skewness,
    crossing_count,
    edgeworth_sample,
    gaussian_sample,
    mean_minus_median,
    ranked_pnl,
    skew_report,
    skew_reports,
    small_p_exponent,
    symmetrize,
    zeta_star,
)
from rankskew.errors import ZeroVariance
from rankskew.series import PERIODS_PER_YEAR, det_dot
from rankskew.skew import _bootstrap, _sorted_centred, _zeta_star_from_counts
from tests.oracles import (
    classical_moments_by_powers,
    crossing_count_searchsorted,
    mean_minus_median_by_np_median,
    sharpe_se_mertens,
    standardized_sums,
    zeta_star_from_counts_allocating,
    zeta_star_from_counts_searchsorted,
    zeta_star_ij_se,
)
from tests.test_series import daily


# ---------------------------------------------------------------------------
# Ranked P&L curves
# ---------------------------------------------------------------------------


def test_ranked_pnl_raw_example():
    curve = ranked_pnl(daily([1.0, -2.0, 3.0]), "raw")
    assert np.allclose(curve.p, [1 / 3, 2 / 3, 1.0])
    assert np.allclose(curve.f, [1.0, -1.0, 2.0])


def test_ranked_pnl_rejects_unknown_variant():
    with pytest.raises(InvalidParams, match="unknown curve variant 'symmetrized'"):
        ranked_pnl(daily([1.0, -2.0, 3.0]), "symmetrized")


def test_ranked_pnl_tie_break_is_chronological():
    # equal amplitudes 1 and -1: chronological order decides the partial sums
    curve = ranked_pnl(daily([1.0, -1.0, 2.0]), "raw")
    assert np.allclose(curve.f, [1.0, 0.0, 2.0])
    curve = ranked_pnl(daily([-1.0, 1.0, 2.0]), "raw")
    assert np.allclose(curve.f, [-1.0, 0.0, 2.0])


@given(
    st.lists(st.floats(min_value=-0.25, max_value=0.25, allow_nan=False, width=32), min_size=2, max_size=300)
)
@settings(max_examples=60, deadline=None)
def test_raw_endpoint_matches_chronological_total(values):
    series = daily(values)
    curve = ranked_pnl(series, "raw")
    total = float(np.sum(series.values))
    scale = max(1.0, float(np.sum(np.abs(series.values))))
    assert abs(curve.f[-1] - total) <= 1e-12 * scale


def test_standardized_curve_endpoint_and_zeta():
    rng = np.random.default_rng(0)
    series = daily(rng.standard_normal(500) * 0.01 + 0.0002)
    curve = ranked_pnl(series, "standardized")
    assert abs(curve.f[-1]) <= 1e-9
    # without ties in amplitude, zeta* is the area of the curve
    assert -100.0 * float(np.mean(curve.f)) == pytest.approx(zeta_star(series), abs=1e-9)


def test_symmetrized_curve_is_seeded():
    series = daily([0.01, -0.02, 0.03])
    a = ranked_pnl(symmetrize(series, 4))
    b = ranked_pnl(symmetrize(series, 4))
    assert np.array_equal(a.f, b.f)


# ---------------------------------------------------------------------------
# zeta*
# ---------------------------------------------------------------------------


def zeta_star_of(values: np.ndarray) -> float:
    """zeta* of a bare value array, read as a daily series."""
    return zeta_star(daily(values))


def test_zeta_star_hand_example():
    # standardized {-sqrt3, 1/sqrt3 x3}; partial sums (1,2,3)/sqrt3, 0;
    # per-sample curve divides by N=4, averaging gives -100*sqrt3/8
    assert zeta_star(daily([-3.0, 1.0, 1.0, 1.0])) == pytest.approx(-100.0 * math.sqrt(3) / 8)


def test_zeta_star_sign_flip_antisymmetry():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(257)
    assert zeta_star_of(-values) == pytest.approx(-zeta_star_of(values), abs=1e-12)


@given(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_zeta_star_affine_invariance(a, b):
    values = np.random.default_rng(5).standard_normal(400)
    assert zeta_star_of(a * values + b) == pytest.approx(
        zeta_star_of(values), abs=1e-9
    )


def test_zeta_star_gaussian_null_is_small():
    series = gaussian_sample(300_000, 3)
    assert abs(zeta_star(series)) < 0.1


def midrank_zeta_star(x: np.ndarray) -> float:
    """zeta* of a materialized sample from scipy's average ranks of |x - mean|."""
    n = x.size
    m = np.mean(x)
    sd = math.sqrt(np.mean((x - m) ** 2))
    r = rankdata(np.abs(x - m), method="average")
    return -100.0 * float(np.sum((n + 1.0 - r) * (x - m))) / sd / (float(n) * float(n))


@given(
    n=st.integers(min_value=3, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.sampled_from([0.0, 1e-4, -0.3, 1.0, -50.0, 1e4]),
    scale=st.sampled_from([1e-2, 1.0, 30.0, 1e3]),
)
@settings(max_examples=100, deadline=None)
def test_point_estimate_matches_standardized_sums_oracle(n, seed, offset, scale):
    """On tie-free samples the kernel with unit counts is the old point estimate.

    The oracle centres by the rounded mean, which costs it digits once the
    offset dwarfs the scale, so the offset stays within 10 scales.
    """
    assume(abs(offset) <= 10.0 * scale)
    values = np.random.default_rng(seed).standard_t(3, n) * scale + offset
    d = np.sort(np.abs(values - np.mean(values)))
    assume(np.all(np.diff(d) > 1e-9 * d[-1]))
    assert zeta_star_of(values) == pytest.approx(standardized_sums(values)[1], rel=1e-12, abs=1e-12)


def test_zeta_star_is_permutation_invariant():
    rng = np.random.default_rng(17)
    for values in (rng.standard_t(4, 1001) * 0.01, rng.integers(-4, 5, size=400) / 2):
        assert zeta_star_of(rng.permutation(values)) == zeta_star_of(values)


def test_zeta_star_symmetric_ties_is_zero():
    # every amplitude is tied: the chronological rule gave 0.05, below-mean-first 25
    assert zeta_star_of(np.array([-1.0, 1.0] * 500)) == 0.0


def test_zeta_star_ties_are_mid_ranked():
    rng = np.random.default_rng(23)
    for _ in range(20):
        values = rng.integers(-4, 5, size=int(rng.integers(3, 200))) / 2
        if np.ptp(values) > 0:
            assert zeta_star_of(values) == pytest.approx(midrank_zeta_star(values), abs=1e-9)


# ---------------------------------------------------------------------------
# Classical moments, low-moment proxies
# ---------------------------------------------------------------------------


def test_classical_moments_examples():
    z3, _ = classical_moments(daily([-1.0, 0.0, 1.0]))
    assert z3 == pytest.approx(0.0, abs=1e-15)
    z3, kurt = classical_moments(daily([-3.0, 1.0, 1.0, 1.0]))
    assert z3 == pytest.approx(-6.0 / 3.0**1.5)
    assert kurt == pytest.approx(21.0 / 9.0 - 3.0)
    with pytest.raises(TooShort, match="s: need at least 3 points"):
        classical_moments(daily([-1.0, 1.0]))


def test_classical_moments_gaussian_null():
    series = gaussian_sample(1_000_000, 0)
    z3, kurt = classical_moments(series)
    assert abs(z3) < 0.01
    assert abs(kurt) < 0.03


def test_mean_minus_median_sign():
    # one large negative outlier drags the mean below the median
    values = np.concatenate([np.full(99, 0.01), [-1.0]])
    assert mean_minus_median(daily(values)) < 0.0


def test_mean_minus_median_agrees_with_zeta_star_sign():
    for nu_plus, nu_minus in ((5.0, 3.5), (3.5, 4.0)):
        series = ast_sample(1_000_000, AsymmetricStudentT(nu_plus, nu_minus), seed=14)
        assert math.copysign(1.0, mean_minus_median(series)) == math.copysign(
            1.0, zeta_star(series)
        )


def low_moments(s) -> tuple[float, float, float]:
    return (*classical_moments(s), mean_minus_median(s))


def grid_sample(n: int, seed: int, scale: float) -> np.ndarray:
    """Heavy-tailed values on the grid of multiples of 2^-20, with repeats at small scales."""
    return np.round(np.random.default_rng(seed).standard_t(3, n) * scale * 2.0**20) / 2.0**20


@given(
    n=st.integers(min_value=3, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1e-4, 1e-2, 1.0, 30.0]),
)
@settings(max_examples=100, deadline=None)
def test_low_moments_are_permutation_invariant(n, seed, scale):
    x = grid_sample(n, seed, scale)
    assume(np.ptp(x) > 0)
    shuffled = np.random.default_rng(seed + 1).permutation(x)
    assert low_moments(daily(shuffled)) == low_moments(daily(x))


@given(
    n=st.integers(min_value=3, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1e-4, 1e-2, 1.0, 30.0]),
)
@settings(max_examples=100, deadline=None)
def test_low_moments_are_location_invariant(n, seed, scale):
    """x is on the grid of 2^-20, so adding either offset is exact."""
    x = grid_sample(n, seed, scale)
    assume(np.ptp(x) > 0)
    base = low_moments(daily(x))
    for offset in (1e4, 1e6):
        assert low_moments(daily(x + offset)) == pytest.approx(base, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_low_moments_match_np_mean_oracles(seed):
    """zeta3 and kurtosis to 1e-12 relative; (mean - median)/sigma, a difference, also to 1e-14 absolute."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5000))
    x = rng.standard_t(3 + seed, n) * 0.01 + 0.0002
    for values in (x, np.round(x, 3)):
        series = daily(values)
        z3, kurt, mmm = low_moments(series)
        assert (z3, kurt) == pytest.approx(classical_moments_by_powers(series), rel=1e-12, abs=0.0)
        assert mmm == pytest.approx(mean_minus_median_by_np_median(series), rel=1e-12, abs=1e-14)


def test_edgeworth_zeta_star_formula():
    assert EDGEWORTH_ZETA_STAR_COEFF == pytest.approx(50.0 / (3.0 * math.pi), rel=1e-15)


# ---------------------------------------------------------------------------
# Co-skewness
# ---------------------------------------------------------------------------


def test_co_skewness_self_gaussian_near_zero():
    series = gaussian_sample(100_000, 2)
    assert abs(co_skewness(series, series)) < 0.05


def test_co_skewness_independent_near_zero():
    a = gaussian_sample(1_000_000, 3)
    b = gaussian_sample(1_000_000, 4)
    assert abs(co_skewness(a, b)) < 0.01


def test_co_skewness_negative_for_minus_b_squared():
    b = gaussian_sample(200_000, 5)
    r = daily(-(b.values**2), start="2000-01-01")
    bench = daily(b.values, start="2000-01-01")
    assert co_skewness(r, bench) < -1.0


def test_co_skewness_requires_overlap():
    a = daily([0.01] * 6 + [0.02] * 6, start="2001-01-01")
    b = daily([0.01, 0.02], start="2010-01-01")
    with pytest.raises(InsufficientOverlap):
        co_skewness(a, b)


def test_co_skewness_rejects_constant_leg():
    varied = daily(np.random.default_rng(3).standard_normal(20) * 0.01, label="v")
    constant = daily([0.01] * 20, label="c")
    for r, b in ((varied, constant), (constant, varied)):
        with pytest.raises(ZeroVariance, match="^co-skewness: c is constant on the 20 dates it shares with v$"):
            co_skewness(r, b)


# ---------------------------------------------------------------------------
# Crossing count
# ---------------------------------------------------------------------------


def test_crossing_count_symmetric_sample_is_zero():
    assert crossing_count(gaussian_sample(100_000, 6), seed=60) == 0


def test_crossing_count_too_short():
    with pytest.raises(TooShort):
        crossing_count(daily([0.01, -0.02, 0.03]), seed=1)


def three_scale_mixture(n: int, seed: int, u: float = 0.012) -> np.ndarray:
    """Asymmetry alternating across three amplitude scales.

    The CDF difference G against the symmetrized twin then changes sign
    more than twice: skewness is not comparable for such samples.
    """
    rng = np.random.default_rng(seed)
    levels = np.array([-5.0, -2.0, -0.5, 0.5, 2.0, 5.0])
    da, db, dc = 4 * u, -3 * u, 1 * u
    probs = np.array([1 / 6 + dc, 1 / 6 + db, 1 / 6 + da, 1 / 6 - da, 1 / 6 - db, 1 / 6 - dc])
    k = rng.choice(6, size=n, p=probs)
    return levels[k] + 0.02 * rng.standard_normal(n)


def test_crossing_count_flags_two_scale_asymmetry():
    series = daily(three_scale_mixture(400_000, 0))
    assert crossing_count(series, seed=70) >= 4


def test_crossing_count_matches_searchsorted_oracle():
    """60 samples giving 0, 2, 4 and 6 crossings; every other one tick-rounded, so values tie."""
    rng = np.random.default_rng(80)
    for i in range(60):
        x = three_scale_mixture(int(rng.integers(1000, 20000)), i, 0.004 * (i % 8))
        if i % 2:
            x = np.round(x, 1 + i % 3)
        series = daily(x)
        assert crossing_count(series, seed=i) == crossing_count_searchsorted(series, seed=i)


@pytest.mark.parametrize("i", range(5))
def test_crossing_count_matches_oracle_on_criterion_9_seeds(i):
    series = ast_sample(1_000_000, AsymmetricStudentT(5.0, 3.5), seed=100 + i)
    assert crossing_count(series, seed=5000 + i) == crossing_count_searchsorted(series, seed=5000 + i)


# ---------------------------------------------------------------------------
# Small-p exponent
# ---------------------------------------------------------------------------


def _exact_curve(power: float, n: int = 5000, coeff: float = 0.05) -> RankedPnlCurve:
    p = np.arange(1, n + 1) / n
    return RankedPnlCurve(p=p, f=coeff * p**power, variant="standardized")


def test_small_p_exponent_exact_power_laws():
    assert small_p_exponent(_exact_curve(3.0)) == pytest.approx(3.0, abs=1e-9)
    assert small_p_exponent(_exact_curve(1.0)) == pytest.approx(1.0, abs=1e-9)


def test_small_p_exponent_sign_change_rejected():
    p = np.arange(1, 5001) / 5000
    f = 0.05 * (p - 0.1) ** 3
    with pytest.raises(SignChangeInWindow):
        small_p_exponent(RankedPnlCurve(p=p, f=f, variant="standardized"))


def test_small_p_exponent_needs_points_and_variant():
    with pytest.raises(TooFewPoints):
        small_p_exponent(_exact_curve(3.0, n=50))
    with pytest.raises(InvalidParams):
        small_p_exponent(RankedPnlCurve(p=np.array([0.5, 1.0]), f=np.array([0.1, 0.2]), variant="raw"))


# ---------------------------------------------------------------------------
# Bootstrap and report
# ---------------------------------------------------------------------------


def test_counts_replicate_matches_naive_resample():
    """The O(N) counts path agrees with sort-based zeta* to 1e-10 and gives the resample's mean and std."""
    values = np.random.default_rng(9).standard_normal(50_000) * 0.01 + 0.0001
    v_sorted = np.sort(values)
    n = values.size
    for b in range(5):
        rng = np.random.default_rng(100 + b)
        idx = rng.integers(0, n, size=n)
        counts = np.bincount(idx, minlength=n).astype(np.float64)
        fast, m, sd = _zeta_star_from_counts(v_sorted, counts)
        naive = zeta_star_of(v_sorted[idx])
        assert fast == pytest.approx(naive, abs=1e-10)
        assert m == pytest.approx(float(np.mean(v_sorted[idx])), abs=1e-15)
        assert sd == pytest.approx(float(np.std(v_sorted[idx])), abs=1e-15)


def _replicate_or_error(kernel, *args):
    try:
        return kernel(*args)
    except ZeroVariance:
        return "ZeroVariance"


@given(
    n=st.integers(min_value=2, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.sampled_from([0.0, 1e-4, -0.3, 1.0, -50.0, 1e4]),
    scale=st.sampled_from([1e-4, 1e-2, 1.0, 30.0]),
    resample=st.sampled_from(["iid", "sparse", "single_below", "single_above"]),
)
@settings(max_examples=150, deadline=None)
def test_counts_kernel_matches_searchsorted_oracle_bit_for_bit(n, seed, offset, scale, resample):
    """Without amplitude ties the kernel returns exactly the oracle's (zeta*, mean, std).

    The oracle ranks values tied across the resample mean below-mean first
    and the kernel mid-ranks them, so such samples are left out.
    """
    rng = np.random.default_rng(seed)
    v_sorted = np.sort(rng.standard_t(3, n) * scale + offset)
    assume(np.unique(v_sorted).size == n)
    if resample == "iid":
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
    elif resample == "sparse":
        # about half the values are never drawn
        counts = np.bincount(rng.integers(0, max(1, n // 2), size=n), minlength=n).astype(np.float64)
        counts = counts[rng.permutation(n)]
    else:
        # the mean lies between the two lowest (highest) values: one value on its side
        counts = np.zeros(n)
        end, next_ = (0, 1) if resample == "single_below" else (n - 1, n - 2)
        counts[end], counts[next_] = n - 1, 1
    assume(np.unique(np.abs(v_sorted - det_dot(counts, v_sorted) / n)).size == n)
    fast = _replicate_or_error(_zeta_star_from_counts, v_sorted, counts)
    oracle = _replicate_or_error(zeta_star_from_counts_searchsorted, v_sorted, v_sorted * v_sorted, counts, n)
    assert fast == oracle


@given(
    n=st.one_of(st.sampled_from([2, 3, 8, 9, 128, 129]), st.integers(min_value=2, max_value=5000)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.sampled_from([0.0, 1e-4, -0.3, 1.0, -50.0, 1e4]),
    scale=st.sampled_from([1e-4, 1e-2, 1.0, 30.0]),
    decimals=st.sampled_from([None, None, None, 0, 2, 4]),
    centred=st.booleans(),
    resample=st.sampled_from(["iid", "sparse", "unit", "single_below", "single_above", "one_value", "two_values"]),
)
@settings(max_examples=300, deadline=None)
def test_counts_kernel_matches_allocating_oracle_bit_for_bit(n, seed, offset, scale, decimals, centred, resample):
    """The buffer-reusing kernel returns exactly the allocating kernel's (zeta*, mean, std), or the same ZeroVariance,
    whether it ranks every entry or only the drawn ones.

    Rounded samples tie in amplitude, within a side of the resample mean and
    across it, and their tie groups mix drawn and undrawn entries; lengths
    8/9 and 128/129 put the split at both parities of the pairwise
    summation's blocks.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, n) * scale + offset
    if decimals is not None:
        x = np.round(x, decimals)
    v_sorted = _sorted_centred(x)[0] if centred else np.sort(x)
    if resample == "iid":
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
    elif resample == "sparse":
        counts = np.bincount(rng.integers(0, max(1, n // 2), size=n), minlength=n).astype(np.float64)
        counts = counts[rng.permutation(n)]
    elif resample == "unit":
        counts = np.ones(n)
    elif resample == "one_value":
        counts = np.zeros(n)
        counts[rng.integers(0, n)] = n
    elif resample == "two_values":
        counts = np.zeros(n)
        i, j = rng.choice(n, size=2, replace=False)
        counts[i] = rng.integers(1, n)
        counts[j] = n - counts[i]
    else:
        counts = np.zeros(n)
        end, next_ = (0, 1) if resample == "single_below" else (n - 1, n - 2)
        counts[end], counts[next_] = n - 1, 1
    oracle = _replicate_or_error(zeta_star_from_counts_allocating, v_sorted, v_sorted * v_sorted, counts, n)
    assert _replicate_or_error(_zeta_star_from_counts, v_sorted, counts) == oracle
    assert _replicate_or_error(_zeta_star_from_counts, v_sorted, counts, (counts > 0).nonzero()[0]) == oracle


def test_counts_kernel_zero_variance_matches_allocating_oracle():
    v_sorted = np.array([-1.0, 0.0, 0.5, 0.5, 2.0])
    # one entry drawn, or two entries of one value
    for counts in ([0.0, 5.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 5.0], [0.0, 0.0, 2.0, 3.0, 0.0]):
        counts = np.array(counts)
        assert _replicate_or_error(_zeta_star_from_counts, v_sorted, counts) == "ZeroVariance"
        assert _replicate_or_error(_zeta_star_from_counts, v_sorted, counts, counts.nonzero()[0]) == "ZeroVariance"
        assert _replicate_or_error(zeta_star_from_counts_allocating, v_sorted, v_sorted * v_sorted, counts, 5) == "ZeroVariance"


@pytest.mark.parametrize("seed", range(4))
def test_counts_kernel_ranks_drawn_entries_of_mixed_tie_groups(seed):
    """Amplitude tie groups with drawn and undrawn members, across the mean too: ranking only the drawn entries gives the oracle's bytes."""
    rng = np.random.default_rng(seed)
    c, _ = _sorted_centred(rng.integers(-4, 5, size=40) / 2)
    mixed = 0
    for _ in range(50):
        counts = np.bincount(rng.integers(0, 40, size=40), minlength=40).astype(np.float64)
        oracle = _replicate_or_error(zeta_star_from_counts_allocating, c, c * c, counts, 40)
        assert _replicate_or_error(_zeta_star_from_counts, c, counts, (counts > 0).nonzero()[0]) == oracle
        d = np.abs(c - det_dot(counts, c) / 40)
        groups = [counts[d == x] for x in np.unique(d)]
        mixed += any(g.min() == 0.0 < g.max() for g in groups)
    assert mixed > 0


def _peak_arrays(fn, *args, n: int) -> float:
    """Peak memory `fn(*args)` allocates, in float64 arrays of length n."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()


def test_counts_kernel_peak_allocation_is_bounded():
    """One replicate at N = 1e5 holds at most 4.5 N-arrays at a time, counting the list of drawn entries when one is
    passed (the allocating kernel 5.6, and its callers' c*c one more; scattered ties took 7.25 before the mid-rank
    branch rewrote runs only)."""
    n = 100_000
    rng = np.random.default_rng(61)
    c, _ = _sorted_centred(rng.standard_t(4, n) * 0.01)
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
    samples = {
        "untied": c,
        # tick-rounded values take the mid-rank branch with few, long runs of ties
        "tick-rounded": np.round(c, 3),
        # a few ties scattered over the sample: many short runs
        "scattered ties": _sorted_centred(np.round(rng.standard_t(4, n), 7))[0],
    }
    for name, v in samples.items():
        assert _peak_arrays(_zeta_star_from_counts, v, counts, n=n) <= 4.5, name
        assert _peak_arrays(lambda: _zeta_star_from_counts(v, counts, (counts > 0).nonzero()[0]), n=n) <= 4.5, name


def test_counts_kernel_weight_total_at_scale():
    """At N = 2e5, tick-rounded values fall in long tie runs; the closed-form weight total n(n + 1)/2 gives the
    bytes of the allocating oracle, which sums the weights, at unit counts and on a drawn resample."""
    n = 200_000
    rng = np.random.default_rng(71)
    c, _ = _sorted_centred(np.round(rng.standard_t(4, n) * 0.01, 3))
    assert np.unique(c).size < n // 100
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
    for k in (np.ones(n), counts):
        oracle = zeta_star_from_counts_allocating(c, c * c, k, n)
        assert _zeta_star_from_counts(c, k) == oracle
        assert _zeta_star_from_counts(c, k, (k > 0).nonzero()[0]) == oracle


def test_skew_report_peak_allocation_is_bounded():
    """A whole report at N = 1e5 holds at most 5.5 N-arrays at a time (6.13 while the point estimate held its
    distances and their cumsum at once)."""
    x = np.random.default_rng(62).standard_t(4, 100_000) * 0.01
    s = daily(x)
    assert _peak_arrays(lambda: skew_report(s, bootstrap=4, seed=1), n=x.size) <= 5.5


def test_bootstrap_matches_loop_over_oracle():
    """Each sample's replicates equal, bit for bit, a per-sample loop over an oracle kernel, equal lengths sharing
    draws or not, tick-rounded samples among them."""
    rng = np.random.default_rng(31)
    ann = math.sqrt(PERIODS_PER_YEAR["daily"])
    samples, want = [], []
    for k, (n, decimals) in enumerate(((1500, None), (1000, None), (1500, None), (1000, 3), (700, 3))):
        x = rng.standard_t(4, n) * 0.01 + 0.0003
        # the searchsorted oracle ranks amplitude ties below-mean first, the allocating one mid-ranks them
        oracle = zeta_star_from_counts_searchsorted
        if decimals is not None:
            x = np.round(x, decimals)
            oracle = zeta_star_from_counts_allocating
        c, m0 = _sorted_centred(x)
        samples.append((f"s{k}", c, m0, ann))
        zs, sh = np.empty(200), np.empty(200)
        for b in range(200):
            idx = np.random.default_rng(8 + b).integers(0, n, size=n)
            counts = np.bincount(idx, minlength=n).astype(np.float64)
            zs[b], m, sd = oracle(c, c * c, counts, n)
            sh[b] = (m0 + m) / sd * ann
        want.append((zs, sh))
    got_zs, got_sh = _bootstrap(samples, 200, 8)
    assert got_zs.shape == got_sh.shape == (len(samples), 200)
    for got_z, got_h, (zs, sh) in zip(got_zs, got_sh, want):
        assert got_z.tobytes() == zs.tobytes() and got_h.tobytes() == sh.tobytes()


@given(
    lengths=st.lists(st.sampled_from([30, 31, 47]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    boot_seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_skew_reports_equal_one_report_per_series(lengths, seed, boot_seed):
    rng = np.random.default_rng(seed)
    series = [daily(rng.standard_t(3, n) * 0.01, label=f"s{k}") for k, n in enumerate(lengths)]
    assert skew_reports(series, bootstrap=12, seed=boot_seed) == [
        skew_report(s, bootstrap=12, seed=boot_seed) for s in series
    ]


def test_skew_reports_consumes_series_in_order_and_checks_before_bootstrap():
    """A later series' check error wins over every bootstrap; the series after it are never read."""
    rng = np.random.default_rng(4)
    taken = []

    def gen():
        for k, n in enumerate((40, 20, 40)):
            taken.append(k)
            yield daily(rng.standard_normal(n) * 0.01, label=f"s{k}")

    with pytest.raises(TooShort, match="s1: need at least 30"):
        skew_reports(gen(), bootstrap=10, seed=1)
    assert taken == [0, 1]
    assert skew_reports([], bootstrap=10, seed=1) == []


@pytest.mark.parametrize("bootstrap", [1, 0, -3])
def test_skew_reports_checks_bootstrap_before_reading_a_series(bootstrap):
    def unread():
        raise AssertionError("a series was read")
        yield

    with pytest.raises(InvalidParams, match=f"need at least 2 bootstrap replicates, got {bootstrap}"):
        skew_reports(unread(), bootstrap=bootstrap, seed=1)
    with pytest.raises(InvalidParams):
        skew_reports([], bootstrap=bootstrap, seed=1)


def test_negative_seed_is_refused_before_any_work():
    def unread():
        raise AssertionError("a series was read")
        yield

    s = daily(np.random.default_rng(5).standard_normal(200) * 0.01)
    calls = [
        lambda: symmetrize(s, -1),
        lambda: skew_reports(unread(), bootstrap=10, seed=-1),
        lambda: crossing_count(s, -1),
        lambda: ast_sample(100, AsymmetricStudentT(nu_plus=5.0, nu_minus=3.5), -1),
        lambda: edgeworth_sample(100, 0.1, 0.0, -1),
        lambda: gaussian_sample(100, -1),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match="need a non-negative seed, got -1"):
            call()


def test_err_zeta_star_is_location_invariant():
    x = np.random.default_rng(41).standard_t(4, 2000) * 0.01
    x = (x + 1e6) - 1e6  # on the grid of 1e6 + x, so adding each offset below is exact
    reports = [skew_report(daily(x + offset), bootstrap=50, seed=3) for offset in (0.0, 1e4, 1e6)]
    for r in reports[1:]:
        assert r.zeta_star == pytest.approx(reports[0].zeta_star, abs=1e-9)
        assert r.err_zeta_star == pytest.approx(reports[0].err_zeta_star, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_counts_kernel_with_repeated_values_matches_oracle(seed):
    """Repeated values may swap places within their block: agreement to float rounding."""
    rng = np.random.default_rng(seed)
    n = 3000
    v_sorted = np.sort(np.round(rng.standard_t(4, n) * 0.01, 4 if seed % 2 else 3))
    assert np.unique(v_sorted).size < n
    for b in range(5):
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
        fast = _zeta_star_from_counts(v_sorted, counts)
        oracle = zeta_star_from_counts_searchsorted(v_sorted, v_sorted * v_sorted, counts, n)
        assert fast == pytest.approx(oracle, rel=0.0, abs=1e-12)


def test_counts_kernel_amplitude_ties_match_point_estimate():
    x = np.random.default_rng(205).integers(-4, 5, size=40) / 2
    idx = np.random.default_rng(10205).integers(0, 40, size=40)
    v_sorted = np.sort(x)
    counts = np.bincount(idx, minlength=40).astype(np.float64)
    fast, _, _ = _zeta_star_from_counts(v_sorted, counts)
    # ranking ties below-mean first gave 10.6030, in resample order 2.6759
    assert fast == pytest.approx(zeta_star_of(v_sorted[idx]), abs=1e-9)
    assert fast == pytest.approx(midrank_zeta_star(v_sorted[idx]), abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_bootstrap_replicates_are_mid_ranked(seed):
    """Each replicate is the mid-rank zeta* of its resample, ties across the mean included."""
    rng = np.random.default_rng(seed)
    c, _ = _sorted_centred(rng.integers(-4, 5, size=40) / 2)
    below_mean_first_differs = 0
    for _ in range(50):
        counts = np.bincount(rng.integers(0, 40, size=40), minlength=40).astype(np.float64)
        resample = np.repeat(c, counts.astype(np.int64))
        if np.ptp(resample) == 0:
            continue
        fast, _, _ = _zeta_star_from_counts(c, counts)
        assert fast == pytest.approx(midrank_zeta_star(resample), abs=1e-9)
        old, _, _ = zeta_star_from_counts_searchsorted(c, c * c, counts, 40)
        below_mean_first_differs += abs(old - fast) > 1e-6
    assert below_mean_first_differs > 0


def test_skew_report_deterministic():
    series = daily(np.random.default_rng(12).standard_normal(2000) * 0.01)
    a = skew_report(series, bootstrap=100, seed=5)
    b = skew_report(series, bootstrap=100, seed=5)
    assert a == b
    assert a.err_zeta_star > 0 and a.err_sharpe > 0
    d = a.as_dict()
    assert "coskew" not in d and d["n"] == 2000


def test_skew_report_error_scaling():
    rng = np.random.default_rng(21)
    small = daily(rng.standard_normal(2000))
    big = daily(rng.standard_normal(8000))
    err_small = skew_report(small, bootstrap=300, seed=1).err_zeta_star
    err_big = skew_report(big, bootstrap=300, seed=2).err_zeta_star
    assert err_small / err_big == pytest.approx(2.0, abs=0.5)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dist", ["gaussian", "ast"])
def test_bootstrap_errors_match_analytic_references(dist, k):
    """err_zeta_star is within 15 % of the infinitesimal-jackknife SE and err_sharpe of Mertens' closed form.

    One SE at B = 400 has ~3.5 % Monte-Carlo error, so 15 % is above 4 sigma,
    and a stray factor sqrt(2) on either error fails. Replicate b draws with
    seed + b, so the seeds are spaced far more than B apart: nearby seeds
    would share almost every draw and test one bootstrap three times.
    """
    seed = 100_000 * k
    if dist == "gaussian":
        s = gaussian_sample(5000, seed)
    else:
        s = ast_sample(5000, AsymmetricStudentT(nu_plus=5.0, nu_minus=3.5), seed)
    r = skew_report(s, bootstrap=400, seed=seed)
    assert r.err_zeta_star / zeta_star_ij_se(s.values) == pytest.approx(1.0, abs=0.15)
    assert r.err_sharpe / sharpe_se_mertens(s.values) == pytest.approx(1.0, abs=0.15)


def test_skew_report_requires_length():
    with pytest.raises(TooShort):
        skew_report(daily([0.01, -0.01] * 10), seed=1)
    with pytest.raises(InvalidParams):
        skew_report(daily([0.01, -0.01] * 20), bootstrap=1, seed=1)
