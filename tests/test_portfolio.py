from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankskew import (
    AsymmetricStudentT,
    DuplicateLabel,
    InsufficientOverlap,
    InvalidParams,
    MissingRate,
    NonFiniteValue,
    Panel,
    RankSkewError,
    ShapeMismatch,
    TooFewAssets,
    UnsortedDates,
    ZeroVariance,
    ast_sample,
    carry_pairs,
    decile_table,
    long_short,
    rank_buckets,
)
from tests.oracles import rank_buckets_loop
from tests.test_series import daily


def make_panel(values: np.ndarray, assets: list[str], start="2001-01-01") -> Panel:
    dates = np.datetime64(start, "D") + np.arange(values.shape[0])
    return Panel(dates=dates, assets=assets, values=values)


def column(panel: Panel, asset: str) -> np.ndarray:
    return panel.values[:, panel.assets.index(asset)]


# ---------------------------------------------------------------------------
# Panel basics
# ---------------------------------------------------------------------------


def test_panel_validation():
    with pytest.raises(NonFiniteValue):
        make_panel(np.full((3, 2), np.nan), ["a", "b"])
    with pytest.raises(DuplicateLabel):
        make_panel(np.zeros((3, 2)), ["a", "a"])
    with pytest.raises(ShapeMismatch):
        make_panel(np.zeros((3, 2)), ["a", "b", "c"])
    with pytest.raises(UnsortedDates):
        Panel(dates=np.array(["2001-01-02", "2001-01-01"], dtype="datetime64[D]"), assets=["a"], values=np.zeros((2, 1)))
    p = make_panel(np.arange(6.0).reshape(3, 2), ["a", "b"])
    assert np.allclose(column(p, "b"), [1.0, 3.0, 5.0])


# ---------------------------------------------------------------------------
# rank_buckets
# ---------------------------------------------------------------------------


def _signal_panel_for(returns: Panel, signal_values: np.ndarray) -> Panel:
    # one day earlier than the returns so the lag finds it from day one
    dates = returns.dates - np.timedelta64(1, "D")
    return Panel(dates=dates, assets=returns.assets, values=signal_values)


def test_rank_buckets_bijection_when_assets_equal_buckets():
    n_assets, n_days = 10, 63
    rng = np.random.default_rng(0)
    rets = rng.standard_normal((n_days, n_assets)) * 0.01
    returns = make_panel(rets, [f"a{k}" for k in range(n_assets)])
    signal = _signal_panel_for(returns, np.tile(np.arange(n_assets, dtype=float), (n_days, 1)))
    buckets = rank_buckets(returns, signal, n_buckets=10, rebalance="monthly")
    for k in range(10):
        assert np.allclose(buckets[k].values, rets[:, k])


def test_rank_buckets_ties_broken_by_label():
    rets = np.full((42, 4), 0.0)
    rets[:, 0] = 0.01  # the column labeled "d"
    returns = make_panel(rets, ["d", "a", "c", "b"])
    signal = _signal_panel_for(returns, np.zeros((42, 4)))
    buckets = rank_buckets(returns, signal, n_buckets=4)
    # constant signal: ranking falls back to label order a, b, c, d,
    # so "d" (the only nonzero column) lands in the last bucket
    assert np.allclose(buckets[0].values, 0.0)
    assert np.allclose(buckets[1].values, 0.0)
    assert np.allclose(buckets[2].values, 0.0)
    assert np.allclose(buckets[3].values, 0.01)


def test_rank_buckets_too_few_assets():
    returns = make_panel(np.zeros((10, 3)) + 0.01, ["a", "b", "c"])
    signal = _signal_panel_for(returns, np.random.default_rng(1).standard_normal((10, 3)))
    with pytest.raises(TooFewAssets):
        rank_buckets(returns, signal, n_buckets=10)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"n_buckets": 0}, "need at least one bucket"), ({"rebalance": "weekly"}, "unknown rebalance frequency 'weekly'")],
)
def test_rank_buckets_rejects_bad_params(kwargs, message):
    returns = make_panel(np.zeros((10, 3)) + 0.01, ["a", "b", "c"])
    signal = _signal_panel_for(returns, np.random.default_rng(1).standard_normal((10, 3)))
    with pytest.raises(InvalidParams, match=message):
        rank_buckets(returns, signal, **{"n_buckets": 2, **kwargs})


def test_rank_buckets_no_lookahead():
    n_assets, n_days = 6, 84
    rng = np.random.default_rng(3)
    rets = rng.standard_normal((n_days, n_assets)) * 0.01
    sig = rng.standard_normal((n_days, n_assets))
    returns = make_panel(rets, [f"a{k}" for k in range(n_assets)])
    cut = 42
    sig_garbled = sig.copy()
    sig_garbled[cut:] = rng.standard_normal((n_days - cut, n_assets)) * 100.0
    a = rank_buckets(returns, _signal_panel_for(returns, sig), n_buckets=3)
    b = rank_buckets(returns, _signal_panel_for(returns, sig_garbled), n_buckets=3)
    cutoff_date = returns.dates[cut]
    for ba, bb in zip(a, b):
        mask_a = ba.dates < cutoff_date
        mask_b = bb.dates < cutoff_date
        assert np.array_equal(ba.values[mask_a], bb.values[mask_b])


def test_rank_buckets_invariant_under_monotone_signal_transform():
    n_assets, n_days = 8, 63
    rng = np.random.default_rng(4)
    rets = rng.standard_normal((n_days, n_assets)) * 0.01
    sig = rng.standard_normal((n_days, n_assets))
    returns = make_panel(rets, [f"a{k}" for k in range(n_assets)])
    a = rank_buckets(returns, _signal_panel_for(returns, sig), n_buckets=4)
    b = rank_buckets(returns, _signal_panel_for(returns, np.exp(3.0 * sig)), n_buckets=4)
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.values, bb.values)


def test_rank_buckets_membership_union_is_partition():
    n_assets, n_days = 9, 42
    rng = np.random.default_rng(5)
    rets = np.full((n_days, n_assets), 1.0)  # marker returns
    returns = make_panel(rets, [f"a{k}" for k in range(n_assets)])
    sig = rng.standard_normal((n_days, n_assets))
    buckets = rank_buckets(returns, _signal_panel_for(returns, sig), n_buckets=3)
    # equal returns of 1.0 in every cell: each bucket averages to exactly 1,
    # and the three buckets of 3 assets each cover the whole universe
    for b in buckets:
        assert np.allclose(b.values, 1.0)
        assert b.dates.size == n_days


def _outcome(f, *args):
    try:
        return f(*args)
    except RankSkewError as exc:
        return exc


@given(
    seed=st.integers(0, 2**32 - 1),
    n_days=st.integers(1, 80),
    n_assets=st.integers(1, 14),
    n_buckets=st.integers(1, 6),
    tick=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
    shift=st.integers(-40, 40),
    rebalance=st.sampled_from(["daily", "monthly"]),
)
@settings(max_examples=300, deadline=None)
def test_rank_buckets_matches_loop_oracle(seed, n_days, n_assets, n_buckets, tick, shift, rebalance):
    """Gaps, tied and tick-rounded signals, shifted signal dates, both rebalance rules."""
    rng = np.random.default_rng(seed)
    dates = np.datetime64("2003-01-20", "D") + np.cumsum(rng.integers(1, 9, n_days))
    rets = rng.standard_normal((n_days, n_assets)) * 0.01
    rets[rng.random(rets.shape) < rng.uniform(0.0, 0.6)] = np.nan
    rets[rng.integers(n_days, size=n_assets), np.arange(n_assets)] = 0.002
    sig = rng.standard_normal((n_days, n_assets))
    if tick:
        sig = np.round(sig / tick) * tick
    sig[rng.random(sig.shape) < rng.uniform(0.0, 0.25)] = np.nan
    sig[rng.integers(n_days, size=n_assets), np.arange(n_assets)] = 1.0
    labels = [f"a{k:02d}" for k in rng.permutation(n_assets)]
    returns = Panel(dates=dates, assets=labels, values=rets)
    keep = np.flatnonzero(rng.random(n_assets) < 0.9)
    sig_dates = dates + np.timedelta64(shift, "D")
    signal = Panel(dates=sig_dates, assets=[labels[k] for k in keep[::-1]], values=sig[:, keep[::-1]])

    got = _outcome(rank_buckets, returns, signal, n_buckets, rebalance)
    want = _outcome(rank_buckets_loop, returns, signal, n_buckets, rebalance)
    if isinstance(want, RankSkewError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert [b.label for b in got] == [b.label for b in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.dates, b.dates)
        assert np.max(np.abs(a.values - b.values), initial=0.0) <= 1e-14


# ---------------------------------------------------------------------------
# long_short
# ---------------------------------------------------------------------------


def test_long_short_antisymmetric():
    rng = np.random.default_rng(6)
    a = daily(rng.standard_normal(200) * 0.01, label="a")
    b = daily(rng.standard_normal(200) * 0.012 + 0.0001, label="b")
    ab = long_short(a, b)
    ba = long_short(b, a)
    assert np.array_equal(ab.values, -ba.values)


def test_long_short_equal_legs_degenerate():
    a = daily(np.random.default_rng(7).standard_normal(100) * 0.01)
    with pytest.raises(ZeroVariance):
        long_short(a, a)


def test_long_short_constant_drift():
    rng = np.random.default_rng(8)
    base = rng.standard_normal(150) * 0.01
    a = daily(base + 0.0007, label="hi")
    b = daily(base, label="lo")
    out = long_short(a, b)
    assert np.all(out.values > 0)
    assert np.allclose(out.values, math.sqrt(2.0 / math.pi), rtol=1e-9)


def test_long_short_needs_overlap():
    a = daily([0.01] * 30, start="2001-01-01")
    b = daily([0.01] * 30, start="2001-01-25")
    with pytest.raises(InsufficientOverlap):
        long_short(a, b)


# ---------------------------------------------------------------------------
# carry_pairs
# ---------------------------------------------------------------------------


def _flat_panel(level_by_asset: dict[str, float], n_days: int, start="2001-01-01") -> Panel:
    assets = list(level_by_asset)
    values = np.tile(np.array([level_by_asset[a] for a in assets]), (n_days, 1))
    return make_panel(values, assets, start=start)


def test_carry_pairs_equal_rates_excluded():
    spot = _flat_panel({"AAA": 1.0, "BBB": 2.0}, 5)
    rates = _flat_panel({"AAA": 0.03, "BBB": 0.03}, 5)
    returns, signal = carry_pairs(spot, rates)
    assert returns.assets == [] and signal.assets == []


def test_carry_pairs_accrual_arithmetic():
    spot = _flat_panel({"AAA": 1.0, "BBB": 2.0}, 6)
    rates = _flat_panel({"AAA": 0.03, "BBB": 0.0048}, 6)
    returns, signal = carry_pairs(spot, rates)
    assert returns.assets == ["AAA/BBB"]
    col = column(returns, "AAA/BBB")
    assert np.allclose(col[np.isfinite(col)], 0.0252 / 252.0)
    sig = column(signal, "AAA/BBB")
    assert np.allclose(sig[np.isfinite(sig)], 0.0252)


def test_carry_pairs_universe_size():
    rng = np.random.default_rng(9)
    names = [f"C{k:02d}" for k in range(20)]
    spot = _flat_panel({n: 1.0 + 0.1 * i for i, n in enumerate(names)}, 10)
    rates = _flat_panel({n: 0.01 + 0.002 * i for i, n in enumerate(names)}, 10)
    returns, signal = carry_pairs(spot, rates)
    assert len(returns.assets) == 20 * 19 // 2
    assert returns.assets == signal.assets


def test_carry_pairs_missing_rate():
    spot = _flat_panel({"AAA": 1.0, "BBB": 2.0}, 5)
    rates = _flat_panel({"AAA": 0.03}, 5)
    with pytest.raises(MissingRate):
        carry_pairs(spot, rates)


@pytest.mark.parametrize("price", [0.0, -1.0])
def test_carry_pairs_rejects_non_positive_spot(price):
    spot = _flat_panel({"AAA": 1.0, "BBB": 2.0}, 5)
    spot.values[2, 1] = price
    rates = _flat_panel({"AAA": 0.03, "BBB": 0.01}, 5)
    with pytest.raises(NonFiniteValue, match=r"BBB spot price .* on 2001-01-03"):
        carry_pairs(spot, rates)


def test_carry_pairs_signal_is_lagged():
    # rates jump on day 3; the signal must reflect the jump one day later
    n = 6
    dates = np.datetime64("2001-01-01", "D") + np.arange(n)
    spot = Panel(dates=dates, assets=["A", "B"], values=np.tile([1.0, 1.0], (n, 1)))
    rate_vals = np.tile([0.02, 0.01], (n, 1))
    rate_vals[3:, 0] = 0.05
    rates = Panel(dates=dates, assets=["A", "B"], values=rate_vals)
    _, signal = carry_pairs(spot, rates)
    sig = column(signal, "A/B")
    # return dates start at day 2; jump known at t-1 shows from day 5 (index 3)
    assert np.allclose(sig[:3], 0.01)
    assert np.allclose(sig[3:], 0.04)


# ---------------------------------------------------------------------------
# decile_table
# ---------------------------------------------------------------------------


def test_decile_table_null_buckets():
    rng = np.random.default_rng(10)
    buckets = [daily(rng.standard_normal(20_000) * 0.01, label=f"b{k}") for k in range(3)]
    table = decile_table(buckets)
    assert [r.bucket for r in table.rows] == [1, 2, 3]
    for row in table.rows:
        assert abs(row.zeta_star) < 0.5
        assert abs(row.sharpe) < 0.5
        assert row.vol_pct == pytest.approx(1.0, abs=0.05)


def test_decile_table_needs_buckets():
    with pytest.raises(TooFewAssets, match="no buckets"):
        decile_table([])


def test_decile_table_planted_skew_gradient():
    series = []
    for i, nu_plus in enumerate((3.2, 4.0, 5.0, 7.0, 10.0)):
        dist = AsymmetricStudentT(nu_plus, 3.5)
        series.append(ast_sample(20_000, dist, seed=20 + i))
    table = decile_table(series)
    stars = [r.zeta_star for r in table.rows]
    assert all(a > b for a, b in zip(stars, stars[1:]))
