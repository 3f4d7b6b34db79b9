"""Superseded implementations kept as test oracles.

Each function here is an earlier production implementation, kept verbatim
so that its replacement can be checked against it.
"""

from __future__ import annotations

import math

import numpy as np

from rankskew.errors import IOWrite, TooShort, ZeroVariance
from rankskew.portfolio import Panel
from rankskew.series import ReturnSeries, det_dot, det_sum, standardize, symmetrize
from rankskew.skew import RankedPnlCurve, amplitude_order


def standardized_sums(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Partial sums N*F0 of the standardized values in amplitude order, and zeta*.

    The point estimate before `rankskew.skew._zeta_star_from_counts` took
    its place; amplitude ties are ranked in the order of `values`.
    """
    n = values.size
    if n < 2:
        raise TooShort("need at least 2 values")
    m = np.mean(values)
    var = np.mean((values - m) ** 2)
    if var == 0.0:
        raise ZeroVariance("all values equal")
    z = (values - m) / math.sqrt(var)
    sums = np.cumsum(z[amplitude_order(z)])
    return sums, -100.0 * det_sum(sums) / (float(n) * float(n))


def zeta_star_from_counts_searchsorted(
    v_sorted: np.ndarray, v_sq: np.ndarray, counts: np.ndarray, n: int
) -> tuple[float, float, float]:
    """Bootstrap replicate kernel that merges the two halves by `searchsorted`.

    Same contract as `rankskew.skew._zeta_star_from_counts`; amplitude ties
    between a value below and a value above the mean put the one below first.
    """
    m = det_dot(counts, v_sorted) / n
    var = det_dot(counts, v_sq) / n - m * m
    if var <= 0.0:
        raise ZeroVariance("degenerate bootstrap resample")
    sd = math.sqrt(var)
    split = int(np.searchsorted(v_sorted, m))
    # distances ascending on each side of the resample mean
    d_lo = m - v_sorted[split - 1 :: -1] if split > 0 else v_sorted[:0]
    c_lo = counts[split - 1 :: -1] if split > 0 else counts[:0]
    v_lo = v_sorted[split - 1 :: -1] if split > 0 else v_sorted[:0]
    d_hi = v_sorted[split:] - m
    c_hi = counts[split:]
    v_hi = v_sorted[split:]
    cum_lo = np.cumsum(c_lo)
    cum_hi = np.cumsum(c_hi)
    zero = np.zeros(1)
    other_lo = np.concatenate((zero, cum_hi))[np.searchsorted(d_hi, d_lo, side="left")]
    other_hi = np.concatenate((zero, cum_lo))[np.searchsorted(d_lo, d_hi, side="right")]
    start_lo = (cum_lo - c_lo) + other_lo
    start_hi = (cum_hi - c_hi) + other_hi
    # sum of rank weights (n - j + 1) over the block of ranks (start, start+c]
    w_lo = c_lo * (n - start_lo) - c_lo * (c_lo - 1.0) / 2.0
    w_hi = c_hi * (n - start_hi) - c_hi * (c_hi - 1.0) / 2.0
    total = (det_dot(w_lo, v_lo) + det_dot(w_hi, v_hi)) - m * (det_sum(w_lo) + det_sum(w_hi))
    return -100.0 * total / sd / (float(n) * float(n)), float(m), sd


def classical_moments_by_powers(s: ReturnSeries) -> tuple[float, float]:
    """(zeta3, excess kurtosis) from `np.mean` of the powers of the mean-centred values."""
    if len(s) < 3:
        raise TooShort(f"{s.label}: need at least 3 points")
    x = s.values - np.mean(s.values)
    m2 = float(np.mean(x * x))
    if m2 == 0.0:
        raise ZeroVariance(f"{s.label}: zero variance")
    m3 = float(np.mean(x**3))
    m4 = float(np.mean(x**4))
    return m3 / m2**1.5, m4 / (m2 * m2) - 3.0


def mean_minus_median_by_np_median(s: ReturnSeries) -> float:
    """(mean - median) / sigma with `np.mean`, `np.median` and `np.std` of the raw values."""
    sd = float(np.std(s.values))
    if sd == 0.0:
        raise ZeroVariance(f"{s.label}: zero variance")
    return float((np.mean(s.values) - np.median(s.values)) / sd)


def crossing_count_searchsorted(s: ReturnSeries, seed: int) -> int:
    """Crossing count that sorts the 2N pooled values and reads G by two `searchsorted` passes."""
    n = len(s)
    if n < 100:
        raise TooShort(f"{s.label}: need at least 100 points")
    std = standardize(s)
    z = std.values
    sym = symmetrize(std, seed).values
    support = np.sort(np.concatenate([z, sym]))
    zs = np.sort(z)
    ss = np.sort(sym)
    g = (
        np.searchsorted(zs, support, side="right")
        - np.searchsorted(ss, support, side="right")
    ) / n
    band = 2.0 / math.sqrt(n)
    g = np.where(np.abs(g) < band, 0.0, g)
    signs = np.sign(g[g != 0.0])
    if signs.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_series_by_row(path: str, s: ReturnSeries) -> None:
    """Series writer that formats and writes one row at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.write("date,value\n")
        for d, v in zip(s.dates, s.values):
            fh.write(f"{d},{_fmt(v)}\n")


def write_panel_by_row(path: str, panel: Panel) -> None:
    """Panel writer that formats and writes one cell at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.write("date,asset,value\n")
        for i, d in enumerate(panel.dates):
            for j, a in enumerate(panel.assets):
                v = panel.values[i, j]
                if np.isfinite(v):
                    fh.write(f"{d},{a},{_fmt(v)}\n")


def write_curve_csv_by_row(path: str, curve: RankedPnlCurve, symmetrized: RankedPnlCurve) -> None:
    """Curve writer that formats and writes one row at a time."""
    if symmetrized.p.size != curve.p.size:
        raise IOWrite("curve and symmetrized curve differ in length")
    with open(path, "w", newline="\n") as fh:
        fh.write("p,F,F_sym\n")
        for p, f, g in zip(curve.p, curve.f, symmetrized.f):
            fh.write(f"{_fmt(p)},{_fmt(f)},{_fmt(g)}\n")
