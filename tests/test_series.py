from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankskew import (
    NonFiniteValue,
    ReturnSeries,
    ShapeMismatch,
    TooShort,
    UnsortedDates,
    WrongPeriod,
    ZeroVariance,
    aggregate_monthly,
    perf_stats,
    risk_manage,
    standardize,
    symmetrize,
)
from tests.oracles import risk_manage_lfilter


def daily(values, label="s", start="2001-01-01"):
    dates = np.datetime64(start, "D") + np.arange(len(values))
    return ReturnSeries(label=label, period="daily", dates=dates, values=values)


def monthly(values, label="s"):
    months = np.datetime64("2001-01", "M") + np.arange(len(values))
    return ReturnSeries(label=label, period="monthly", dates=months.astype("datetime64[D]"), values=values)


finite_returns = st.lists(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, width=32),
    min_size=2,
    max_size=200,
)


# ---------------------------------------------------------------------------
# ReturnSeries invariants
# ---------------------------------------------------------------------------


def test_series_rejects_short_and_unsorted_and_nan():
    with pytest.raises(TooShort):
        daily([0.1])
    with pytest.raises(UnsortedDates):
        ReturnSeries("s", "daily", np.array(["2001-01-02", "2001-01-01"], dtype="datetime64[D]"), [0.1, 0.2])
    with pytest.raises(NonFiniteValue):
        daily([0.1, float("nan")])
    with pytest.raises(UnsortedDates):
        ReturnSeries("s", "daily", np.array(["2001-01-01", "2001-01-01"], dtype="datetime64[D]"), [0.1, 0.2])
    dates = np.array(["2001-01-01", "2001-01-02"], dtype="datetime64[D]")
    with pytest.raises(WrongPeriod, match="unknown period 'weekly'"):
        ReturnSeries("s", "weekly", dates, [0.1, 0.2])
    with pytest.raises(ShapeMismatch, match="s: dates/values length mismatch"):
        ReturnSeries("s", "daily", dates, [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------


def test_standardize_examples():
    # mean 0 and scale 1, then mean 2 and scale 1: both map exactly onto -1, 1
    assert np.array_equal(standardize(daily([-1.0, 1.0])).values, [-1.0, 1.0])
    assert np.array_equal(standardize(daily([1.0, 3.0])).values, [-1.0, 1.0])

    # mean 0 and scale sqrt(3)
    out = standardize(daily([-3.0, 1.0, 1.0, 1.0]))
    r3 = math.sqrt(3.0)
    assert np.allclose(out.values, [-r3, 1 / r3, 1 / r3, 1 / r3])


def test_standardize_errors():
    with pytest.raises(ZeroVariance):
        standardize(daily([0.01, 0.01, 0.01]))


@given(finite_returns)
@settings(max_examples=60, deadline=None)
def test_standardize_idempotent_and_centered(values):
    arr = np.asarray(values, dtype=float)
    if np.ptp(arr) == 0.0:
        return
    once = standardize(daily(values))
    assert abs(np.mean(once.values)) <= 1e-12 * max(1.0, float(np.std(arr)))
    assert abs(np.mean(once.values**2) - 1.0) <= 1e-9
    assert abs(np.sum(once.values)) <= 1e-9
    twice = standardize(once)
    assert np.allclose(twice.values, once.values, atol=1e-12)


# ---------------------------------------------------------------------------
# monthly aggregation
# ---------------------------------------------------------------------------


def test_aggregate_monthly_sums_and_dates():
    jan = [0.01, -0.02]
    feb = [0.03]
    dates = np.array(["2001-01-10", "2001-01-11", "2001-02-05"], dtype="datetime64[D]")
    out = aggregate_monthly(ReturnSeries("s", "daily", dates, jan + feb))
    assert np.allclose(out.values, [-0.01, 0.03])
    assert list(out.dates.astype(str)) == ["2001-01-31", "2001-02-28"]
    assert out.period == "monthly"


def test_aggregate_monthly_constant_month():
    dates = np.datetime64("2001-03-01", "D") + np.arange(21)
    series = ReturnSeries("s", "daily", np.append(dates, np.datetime64("2001-04-02")), [0.001] * 21 + [0.0])
    out = aggregate_monthly(series)
    assert out.values[0] == pytest.approx(0.021, abs=1e-15)


def test_aggregate_monthly_skips_empty_months():
    dates = np.array(["2001-01-10", "2001-03-05"], dtype="datetime64[D]")
    out = aggregate_monthly(ReturnSeries("s", "daily", dates, [0.01, 0.02]))
    assert list(out.dates.astype(str)) == ["2001-01-31", "2001-03-31"]
    assert np.all(np.diff(out.dates).astype(int) > 0)


def test_aggregate_monthly_rejects_monthly_input():
    with pytest.raises(WrongPeriod):
        aggregate_monthly(monthly([0.01, 0.02]))


@given(finite_returns)
@settings(max_examples=60, deadline=None)
def test_aggregate_monthly_preserves_total(values):
    series = daily(values)
    try:
        out = aggregate_monthly(series)
    except TooShort:
        return
    scale = max(1.0, float(np.sum(np.abs(series.values))))
    assert abs(float(np.sum(out.values)) - float(np.sum(series.values))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# risk management
# ---------------------------------------------------------------------------


def test_risk_manage_constant_amplitude():
    c = 0.004
    values = np.tile([c, -c], 50)
    out = risk_manage(daily(values))
    assert len(out) == 80
    assert np.allclose(np.abs(out.values), math.sqrt(2.0 / math.pi), rtol=1e-12)


def test_risk_manage_scale_invariant():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(300) * 0.01
    base = risk_manage(daily(values))
    scaled4 = risk_manage(daily(values * 4.0))  # power of two: bit-exact
    assert np.array_equal(base.values, scaled4.values)
    scaled5 = risk_manage(daily(values * 5.0))
    assert np.allclose(base.values, scaled5.values, rtol=1e-12)


def test_risk_manage_unit_vol_monte_carlo():
    rng = np.random.default_rng(42)
    out = risk_manage(daily(rng.standard_normal(10_000) * 0.02))
    assert abs(float(np.std(out.values)) - 1.0) < 0.05


@pytest.mark.parametrize("n,span", [(25, 5), (25, 20), (1000, 5), (1000, 20), (1000, 63), (20_000, 20), (20_000, 63)])
def test_risk_manage_matches_lfilter_oracle(n, span):
    """The EMA loop reproduces `scipy.signal.lfilter` bit for bit."""
    s = daily(np.random.default_rng(n + span).standard_t(3, n) * 0.01)
    got = risk_manage(s, span=span)
    want = risk_manage_lfilter(s, span=span)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.dates, want.dates)


def test_risk_manage_errors():
    with pytest.raises(TooShort):
        risk_manage(daily([0.01] * 20))
    with pytest.raises(WrongPeriod):
        risk_manage(monthly([0.01, 0.02]))
    with pytest.raises(ZeroVariance):
        risk_manage(daily([0.0] * 40))


@pytest.mark.parametrize("span", [1, 5, 20])
def test_risk_manage_length_floor(span):
    """span + 2 points leave 2 after the warm-up; one fewer is refused."""
    values = np.random.default_rng(span).standard_normal(span + 2) * 0.01
    assert len(risk_manage(daily(values), span=span)) == 2
    with pytest.raises(TooShort, match=f"need at least {span + 2} points"):
        risk_manage(daily(values[:-1]), span=span)


# ---------------------------------------------------------------------------
# symmetrize
# ---------------------------------------------------------------------------


def test_symmetrize_hand_example():
    seed = 12
    eps = np.random.default_rng(seed).integers(0, 2, 3) * 2 - 1
    assert eps.tolist() == [1, -1, 1]
    out = symmetrize(daily([0.02, -0.01, 0.03]), seed).values
    assert np.allclose(out, [0.02, 2 * 0.04 / 3 + 0.01, 0.03])
    assert out[1] == pytest.approx(0.0366666666666667)


def test_symmetrize_identity_when_all_signs_positive():
    series = daily([0.02, -0.01, 0.03])
    for seed in range(500):
        eps = np.random.default_rng(seed).integers(0, 2, 3) * 2 - 1
        if np.all(eps == 1):
            assert np.array_equal(symmetrize(series, seed).values, series.values)
            return
    pytest.fail("no all-positive sign draw among 500 seeds")


def test_symmetrize_deterministic_and_amplitude_preserving():
    series = daily(np.random.default_rng(3).standard_normal(64) * 0.01)
    a = symmetrize(series, 11)
    b = symmetrize(series, 11)
    assert np.array_equal(a.values, b.values)
    m = np.mean(series.values)
    assert np.allclose(
        np.sort(np.abs(a.values - m)), np.sort(np.abs(series.values - m)), atol=1e-15
    )


def test_symmetrize_mean_unbiased_over_seeds():
    series = daily(np.random.default_rng(5).standard_normal(256) * 0.01 + 0.0005)
    means = np.array([np.mean(symmetrize(series, s).values) for s in range(100)])
    se = means.std(ddof=1) / 10.0
    assert abs(means.mean() - np.mean(series.values)) < 2 * se


# ---------------------------------------------------------------------------
# performance stats
# ---------------------------------------------------------------------------


def test_perf_stats_zero_mean():
    stats = perf_stats(daily(np.tile([0.01, -0.01], 20)))
    assert stats.sharpe == 0.0


def test_perf_stats_annualization():
    stats = perf_stats(daily(np.tile([0.0004 + 0.01, 0.0004 - 0.01], 300)))
    assert stats.sharpe == pytest.approx(0.04 * math.sqrt(252), rel=1e-12)
    assert stats.ann_vol == pytest.approx(0.01 * math.sqrt(252), rel=1e-12)


def test_perf_stats_zero_variance():
    with pytest.raises(ZeroVariance):
        perf_stats(daily([0.01, 0.01]))
