"""Dated return-series algebra.

Conventions used throughout: arithmetic (additive) returns, population
(N-divisor) moments, and 252 daily / 12 monthly periods per year.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    InvalidParams,
    NonFiniteValue,
    ShapeMismatch,
    TooShort,
    UnsortedDates,
    WrongPeriod,
    ZeroVariance,
)

Period = Literal["daily", "monthly"]

PERIODS_PER_YEAR: dict[str, int] = {"daily": 252, "monthly": 12}

ABS_VOL_UNBIAS = math.sqrt(math.pi / 2.0)  # E|Z| = sqrt(2/pi) for Z ~ N(0,1)


def _check_seed(seed: int) -> None:
    """Refuse a seed numpy's generators cannot take, before any work."""
    if seed < 0:
        raise InvalidParams(f"need a non-negative seed, got {seed}")


def _check_size(count: int, what: str, item_bytes: int = 8) -> None:
    """Refuse, before any allocation, `count` items of `item_bytes` bytes: more than this host's physical
    memory, or than numpy's address space where the OS does not say."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = np.iinfo(np.intp).max
    if count * item_bytes > memory:
        raise InvalidParams(
            f"{what} {count} need {count * item_bytes / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB of this host"
        )


def det_sum(x: np.ndarray) -> float:
    """Fixed-order pairwise sum; result independent of BLAS thread count."""
    return float(np.add.reduce(x, dtype=np.float64))


def det_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Deterministic dot product (avoids threaded BLAS reductions)."""
    return float(np.add.reduce(a * b, dtype=np.float64))


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnSeries:
    """Dated stream of arithmetic per-period returns."""

    label: str
    period: Period
    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype="datetime64[D]"))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.period not in PERIODS_PER_YEAR:
            raise WrongPeriod(f"unknown period {self.period!r}")
        if self.values.size < 2:
            raise TooShort(f"{self.label}: need at least 2 points, got {self.values.size}")
        if self.dates.shape != self.values.shape:
            raise ShapeMismatch(f"{self.label}: dates/values length mismatch")
        if not (self.dates[1:] > self.dates[:-1]).all():
            raise UnsortedDates(f"{self.label}: dates must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteValue(f"{self.label}: non-finite return value")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class PerfStats:
    ann_vol: float
    sharpe: float


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def standardize(s: ReturnSeries) -> ReturnSeries:
    """Affinely map returns to zero mean, unit variance (population divisor).

    The N-divisor makes the cumulative sum of the output end exactly at
    zero, which is what pins the ranked-P&L endpoint F0(1) = 0.
    """
    m = float(np.mean(s.values))
    var = float(np.mean((s.values - m) ** 2))
    if var == 0.0:
        raise ZeroVariance(f"{s.label}: all returns equal")
    return ReturnSeries(label=s.label, period=s.period, dates=s.dates, values=(s.values - m) / math.sqrt(var))


def aggregate_monthly(daily: ReturnSeries) -> ReturnSeries:
    """Sum daily returns within each calendar month, dated at month end.

    Months with no daily observations are omitted, so the output dates
    stay strictly increasing. The total cumulative return is preserved
    exactly.
    """
    if daily.period != "daily":
        raise WrongPeriod(f"{daily.label}: input is already {daily.period}")
    months = daily.dates.astype("datetime64[M]")
    uniq, inverse = np.unique(months, return_inverse=True)
    sums = np.bincount(inverse, weights=daily.values, minlength=uniq.size)
    month_end = (uniq + 1).astype("datetime64[D]") - np.timedelta64(1, "D")
    if uniq.size < 2:
        raise TooShort(f"{daily.label}: monthly aggregate needs at least 2 months")
    return ReturnSeries(label=daily.label, period="monthly", dates=month_end, values=sums)


def _running_percentile_floor(x: np.ndarray, q: float) -> np.ndarray:
    """q-th percentile of x[0..t] for each t (linear interpolation).

    Matches np.percentile's default method on every prefix. Incremental
    sorted insertion keeps this O(n^2) in list moves, which is fine at
    daily-history lengths.
    """
    out = np.empty_like(x)
    acc: list[float] = []
    for t, v in enumerate(x):
        bisect.insort(acc, v)
        pos = q / 100.0 * t
        lo = int(math.floor(pos))
        hi = min(lo + 1, t)
        frac = pos - lo
        out[t] = acc[lo] + frac * (acc[hi] - acc[lo])
    return out


def risk_manage(s: ReturnSeries, span: int = 20) -> ReturnSeries:
    """Rescale positions by a trailing EMA volatility estimate.

    sigma_hat is the span-`span` EMA (decay 2/(span+1)) of |r|, scaled by
    sqrt(pi/2) so it is unbiased for Gaussian returns, lagged one day so
    the position never sees the return it divides. sigma_hat is floored
    at its running 10th percentile to avoid blow-ups in quiet regimes.
    The first `span` points are dropped as warm-up; the output runs at
    roughly unit daily volatility.
    """
    if s.period != "daily":
        raise WrongPeriod(f"{s.label}: risk management is defined on daily series")
    if len(s) < span + 2:
        raise TooShort(f"{s.label}: need at least {span + 2} points, so that 2 survive the {span}-point warm-up")
    absr = np.abs(s.values)
    alpha = 2.0 / (span + 1.0)
    # EMA seeded with the first observation: ema[t] = (1-a) ema[t-1] + a |r_t|
    ema = np.empty_like(absr)
    prev = absr[0]
    for t, a in enumerate(absr):
        prev = alpha * a + (1.0 - alpha) * prev
        ema[t] = prev
    sigma = ema * ABS_VOL_UNBIAS
    floor = _running_percentile_floor(sigma, 10.0)
    sigma = np.maximum(sigma, floor)
    lagged = sigma[span - 1 : -1]
    if np.any(lagged == 0.0):
        raise ZeroVariance(f"{s.label}: volatility estimate hit zero")
    return ReturnSeries(
        label=s.label,
        period="daily",
        dates=s.dates[span:],
        values=s.values[span:] / lagged,
    )


def symmetrize(s: ReturnSeries, seed: int) -> ReturnSeries:
    """Destroy asymmetry by flipping each excursion around the sample mean.

    Each return becomes m + eps_t (r_t - m) with independent fair signs
    eps_t drawn from the seeded generator; amplitudes |r_t - m| and the
    expected mean are preserved.
    """
    _check_seed(seed)
    m = np.mean(s.values)
    eps = np.random.default_rng(seed).integers(0, 2, size=len(s))
    eps *= 2
    eps -= 1
    # m + eps (r - m), each step in place: multiplying by +-1 is exact
    v = s.values - m
    v *= eps
    del eps
    v += m
    return ReturnSeries(label=s.label, period=s.period, dates=s.dates, values=v)


def perf_stats(s: ReturnSeries) -> PerfStats:
    """Annualized volatility and Sharpe ratio."""
    a = PERIODS_PER_YEAR[s.period]
    mean = float(np.mean(s.values))
    vol = float(np.std(s.values))
    if vol == 0.0:
        raise ZeroVariance(f"{s.label}: zero variance")
    return PerfStats(ann_vol=vol * math.sqrt(a), sharpe=mean / vol * math.sqrt(a))
