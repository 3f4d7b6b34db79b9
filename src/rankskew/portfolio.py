"""Signal-ranked bucket portfolios, long-short legs, FX carry pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateLabel,
    InsufficientOverlap,
    InvalidParams,
    MissingRate,
    NonFiniteValue,
    ShapeMismatch,
    TooFewAssets,
    UnsortedDates,
)
from .series import PERIOD_DT, Period, ReturnSeries, perf_stats, risk_manage
from .skew import zeta_star


@dataclass(frozen=True)
class Panel:
    """(date, asset) grid of optional values; NaN marks a missing cell."""

    dates: np.ndarray
    assets: list[str]
    values: np.ndarray  # shape (n_dates, n_assets)
    period: Period = "daily"

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype="datetime64[D]"))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "assets", list(self.assets))
        if self.values.shape != (self.dates.size, len(self.assets)):
            raise ShapeMismatch("panel shape mismatch")
        if self.dates.size > 1 and not np.all(np.diff(self.dates).astype(np.int64) > 0):
            raise UnsortedDates("panel dates must be strictly increasing")
        if len(set(self.assets)) != len(self.assets):
            raise DuplicateLabel("duplicate asset labels")
        populated = np.any(np.isfinite(self.values), axis=0)
        if not np.all(populated):
            empty = [a for a, ok in zip(self.assets, populated) if not ok]
            raise NonFiniteValue(f"assets with no populated cell: {empty}")

    def column(self, asset: str) -> np.ndarray:
        return self.values[:, self.assets.index(asset)]


@dataclass(frozen=True)
class DecileRow:
    bucket: int
    vol_pct: float       # per-period volatility in percent
    zeta_star: float
    sharpe: float


@dataclass(frozen=True)
class DecileTable:
    rows: list[DecileRow]


# ---------------------------------------------------------------------------
# Ranked buckets
# ---------------------------------------------------------------------------


def _rebalance_indices(dates: np.ndarray, rebalance: str) -> np.ndarray:
    if rebalance == "daily":
        return np.arange(dates.size)
    if rebalance == "monthly":
        months = dates.astype("datetime64[M]")
        first = np.ones(dates.size, dtype=bool)
        first[1:] = months[1:] != months[:-1]
        return np.flatnonzero(first)
    raise InvalidParams(f"unknown rebalance frequency {rebalance!r}")


def rank_buckets(
    returns: Panel,
    signal: Panel,
    n_buckets: int = 10,
    rebalance: str = "monthly",
) -> list[ReturnSeries]:
    """Equal-weight bucket portfolios from a signal ranking.

    At each rebalance date the assets are ranked by the most recent
    signal strictly before that date (one-period lag: memberships never
    see information from the return period they rank). Ties are broken
    by asset label. Bucket k of B holds ascending-signal ranks in
    (ceil((k-1)N/B), ceil(kN/B)]; its return on each date until the next
    rebalance is the mean over members with data.
    """
    if n_buckets < 1:
        raise InvalidParams("need at least one bucket")
    common_assets = [a for a in returns.assets if a in set(signal.assets)]
    if len(common_assets) < n_buckets:
        raise TooFewAssets(f"{len(common_assets)} assets shared with the signal panel, need {n_buckets}")
    r_cols = np.array([returns.assets.index(a) for a in common_assets])
    s_cols = np.array([signal.assets.index(a) for a in common_assets])
    order_by_label = sorted(range(len(common_assets)), key=lambda i: common_assets[i])

    reb = _rebalance_indices(returns.dates, rebalance)
    membership = np.full(len(common_assets), -1, dtype=np.int64)  # bucket index or -1
    bucket_dates: list[list] = [[] for _ in range(n_buckets)]
    bucket_vals: list[list[float]] = [[] for _ in range(n_buckets)]

    next_reb = 0
    for t in range(returns.dates.size):
        if next_reb < reb.size and t == reb[next_reb]:
            next_reb += 1
            sig_row = np.searchsorted(signal.dates, returns.dates[t], side="left") - 1
            if sig_row < 0:
                membership[:] = -1
            else:
                svals = signal.values[sig_row, s_cols]
                avail = [i for i in order_by_label if np.isfinite(svals[i])]
                n_avail = len(avail)
                if 0 < n_avail < n_buckets:
                    raise TooFewAssets(
                        f"{n_avail} ranked assets at {returns.dates[t]}, need {n_buckets}"
                    )
                membership[:] = -1
                if n_avail:
                    ranked = sorted(avail, key=lambda i: svals[i])  # label order pre-applied
                    edges = [math.ceil(k * n_avail / n_buckets) for k in range(n_buckets + 1)]
                    for k in range(n_buckets):
                        for pos in range(edges[k], edges[k + 1]):
                            membership[ranked[pos]] = k
        if not np.any(membership >= 0):
            continue
        row = returns.values[t, r_cols]
        for k in range(n_buckets):
            sel = (membership == k) & np.isfinite(row)
            if np.any(sel):
                bucket_dates[k].append(returns.dates[t])
                bucket_vals[k].append(float(np.mean(row[sel])))

    out = []
    for k in range(n_buckets):
        out.append(
            ReturnSeries(
                label=f"bucket{k + 1:02d}",
                period=returns.period,
                dates=np.array(bucket_dates[k], dtype="datetime64[D]"),
                values=np.array(bucket_vals[k]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Long-short legs
# ---------------------------------------------------------------------------


def long_short(long: ReturnSeries, short: ReturnSeries) -> ReturnSeries:
    """Dollar-neutral leg difference, risk-managed.

    The raw series is r_long - r_short on the date intersection; the
    result is then volatility-managed (these portfolios are always run
    at constant risk), which consumes the first 20 days as warm-up.
    """
    common, ia, ib = np.intersect1d(long.dates, short.dates, return_indices=True)
    if common.size < 21:
        raise InsufficientOverlap(
            f"{long.label}/{short.label}: {common.size} overlapping dates, need 21"
        )
    raw = ReturnSeries(
        label=f"{long.label}-{short.label}",
        period=long.period,
        dates=common,
        values=long.values[ia] - short.values[ib],
    )
    return risk_manage(raw)


# ---------------------------------------------------------------------------
# FX carry pairs
# ---------------------------------------------------------------------------


def _forward_fill_onto(dates: np.ndarray, src_dates: np.ndarray, src_values: np.ndarray) -> np.ndarray:
    """Last known value on or before each date; NaN before the first fixing."""
    idx = np.searchsorted(src_dates, dates, side="right") - 1
    out = np.full(dates.size, np.nan)
    ok = idx >= 0
    out[ok] = src_values[idx[ok]]
    return out


def carry_pairs(spot: Panel, rates: Panel) -> tuple[Panel, Panel]:
    """Ordered currency-pair returns and their carry signal.

    For every ordered pair (i, j) the pair is live on day t when the
    rate differential known at t-1 is positive; its return is the log
    spot move of i over j plus the differential accrued at 1/252. The
    signal panel holds that lagged differential, so downstream ranking
    (which lags once more) only ever sees already-observable data.
    """
    rate_assets = set(rates.assets)
    for ccy in spot.assets:
        if ccy not in rate_assets:
            raise MissingRate(f"no rate history for {ccy}")
    bad = np.argwhere(spot.values <= 0.0)
    if bad.size:
        t, j = bad[0]
        price = float(spot.values[t, j])
        raise NonFiniteValue(f"{spot.assets[j]} spot price {price!r} on {spot.dates[t]} is not positive")
    n_ccy = len(spot.assets)
    dates = spot.dates
    filled = np.column_stack(
        [
            _forward_fill_onto(
                dates,
                rates.dates[np.isfinite(rates.column(c))],
                rates.column(c)[np.isfinite(rates.column(c))],
            )
            for c in spot.assets
        ]
    )
    logs = np.log(spot.values)
    dlog = logs[1:] - logs[:-1]
    lag_rates = filled[:-1]  # rates known at t-1, aligned with return dates[1:]

    ii, jj = np.where(~np.eye(n_ccy, dtype=bool))
    sig = lag_rates[:, ii] - lag_rates[:, jj]
    ret = dlog[:, ii] - dlog[:, jj] + sig * PERIOD_DT["daily"]
    live = np.isfinite(sig) & (sig > 0.0) & np.isfinite(ret)
    ret = np.where(live, ret, np.nan)
    sig = np.where(live, sig, np.nan)

    keep = np.flatnonzero(np.any(live, axis=0))
    labels = [f"{spot.assets[i]}/{spot.assets[j]}" for i, j in zip(ii[keep], jj[keep])]
    out_dates = dates[1:]
    return (
        Panel(dates=out_dates, assets=labels, values=ret[:, keep], period="daily"),
        Panel(dates=out_dates, assets=labels, values=sig[:, keep], period="daily"),
    )


# ---------------------------------------------------------------------------
# Decile table
# ---------------------------------------------------------------------------


def decile_table(buckets: Sequence[ReturnSeries]) -> DecileTable:
    """Per-bucket volatility (percent per period), zeta*, annualized Sharpe."""
    if len(buckets) == 0:
        raise TooFewAssets("no buckets")
    rows = []
    for k, b in enumerate(buckets, start=1):
        stats = perf_stats(b)
        rows.append(
            DecileRow(
                bucket=k,
                vol_pct=float(np.std(b.values)) * 100.0,
                zeta_star=zeta_star(b),
                sharpe=stats.sharpe,
            )
        )
    return DecileTable(rows=rows)
