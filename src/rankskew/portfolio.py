"""Signal-ranked bucket portfolios, long-short legs, FX carry pairs."""

from __future__ import annotations

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
from .series import ReturnSeries, perf_stats, risk_manage
from .skew import zeta_star


@dataclass(frozen=True)
class Panel:
    """(date, asset) grid of optional daily values; NaN marks a missing cell."""

    dates: np.ndarray
    assets: list[str]
    values: np.ndarray  # shape (n_dates, n_assets)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype="datetime64[D]"))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "assets", list(self.assets))
        if self.values.shape != (self.dates.size, len(self.assets)):
            raise ShapeMismatch("panel shape mismatch")
        if not (self.dates[1:] > self.dates[:-1]).all():
            raise UnsortedDates("panel dates must be strictly increasing")
        if len(set(self.assets)) != len(self.assets):
            raise DuplicateLabel("duplicate asset labels")
        populated = np.any(np.isfinite(self.values), axis=0)
        if not np.all(populated):
            empty = [a for a, ok in zip(self.assets, populated) if not ok]
            raise NonFiniteValue(f"assets with no populated cell: {empty}")


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
    by asset label. Of N ranked assets, the one at ascending-signal
    position pos (0-based) goes to bucket pos * B // N (0-based); its
    return on each date until the next rebalance is the mean over
    members with data.
    """
    if n_buckets < 1:
        raise InvalidParams("need at least one bucket")
    s_col = {a: j for j, a in enumerate(signal.assets)}
    r_cols = np.array([i for i, a in enumerate(returns.assets) if a in s_col])
    common_assets = [returns.assets[i] for i in r_cols]
    if len(common_assets) < n_buckets:
        raise TooFewAssets(f"{len(common_assets)} assets shared with the signal panel, need {n_buckets}")
    s_cols = np.array([s_col[a] for a in common_assets])
    label_rank = np.argsort(np.argsort(np.array(common_assets)))

    n_dates = returns.dates.size
    reb = _rebalance_indices(returns.dates, rebalance)
    sig_rows = np.searchsorted(signal.dates, returns.dates[reb], side="left") - 1
    membership = np.full((n_dates, len(common_assets)), -1, dtype=np.int64)  # bucket index or -1
    for t, end, sig_row in zip(reb, np.append(reb[1:], n_dates), sig_rows):
        if sig_row < 0:
            continue
        svals = signal.values[sig_row, s_cols]
        avail = np.flatnonzero(np.isfinite(svals))
        if avail.size < n_buckets:
            if avail.size:
                raise TooFewAssets(f"{avail.size} ranked assets at {returns.dates[t]}, need {n_buckets}")
            continue
        ranked = avail[np.lexsort((label_rank[avail], svals[avail]))]
        membership[t:end, ranked] = np.arange(avail.size) * n_buckets // avail.size

    values = returns.values[:, r_cols]
    day, col = np.nonzero((membership >= 0) & np.isfinite(values))
    cell = day * n_buckets + membership[day, col]
    sums = np.bincount(cell, weights=values[day, col], minlength=n_dates * n_buckets).reshape(n_dates, n_buckets)
    counts = np.bincount(cell, minlength=n_dates * n_buckets).reshape(n_dates, n_buckets)
    live = counts > 0
    return [
        ReturnSeries(
            label=f"bucket{k + 1:02d}",
            period="daily",
            dates=returns.dates[live[:, k]],
            values=sums[live[:, k], k] / counts[live[:, k], k],
        )
        for k in range(n_buckets)
    ]


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
    # Last finite fixing on or before each spot date: row 0 of r is all
    # NaN and stands for "no fixing yet".
    r = np.vstack([np.full(n_ccy, np.nan), rates.values[:, [rates.assets.index(c) for c in spot.assets]]])
    last = np.maximum.accumulate(np.where(np.isfinite(r), np.arange(r.shape[0])[:, None], 0), axis=0)
    filled = np.take_along_axis(r, last[np.searchsorted(rates.dates, dates, side="right")], axis=0)
    logs = np.log(spot.values)
    dlog = logs[1:] - logs[:-1]
    lag_rates = filled[:-1]  # rates known at t-1, aligned with return dates[1:]

    ii, jj = np.where(~np.eye(n_ccy, dtype=bool))
    sig = lag_rates[:, ii] - lag_rates[:, jj]
    ret = dlog[:, ii] - dlog[:, jj] + sig * (1.0 / 252.0)
    live = np.isfinite(sig) & (sig > 0.0) & np.isfinite(ret)
    ret = np.where(live, ret, np.nan)
    sig = np.where(live, sig, np.nan)

    keep = np.flatnonzero(np.any(live, axis=0))
    labels = [f"{spot.assets[i]}/{spot.assets[j]}" for i, j in zip(ii[keep], jj[keep])]
    out_dates = dates[1:]
    return (
        Panel(dates=out_dates, assets=labels, values=ret[:, keep]),
        Panel(dates=out_dates, assets=labels, values=sig[:, keep]),
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
