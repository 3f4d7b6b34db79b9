"""Ranked-amplitude P&L curves and skewness estimators.

The central object is the curve F(p): returns are sorted by absolute
value (smallest first, ties kept in chronological order) and cumulated;
p = k/N is the rank fraction. On standardized returns the curve F0
starts and ends at zero and its area defines the skewness

    zeta* = -100 * (1/N) * sum_k F0(k/N),

negative when large-amplitude returns are biased downwards. The
standardized curve is stored per-sample (partial sums divided by N) so
that zeta* is independent of the sample size and comparable with the
quadrature oracles in `synth`.

One kernel computes zeta*, for the sample and for every bootstrap
resample. It ranks amplitudes with mid-rank ties: values at equal
distance from the mean share their ranks equally, so zeta* does not
depend on the order of the sample. On samples without such ties it is
the area of the curve above. It sums rank weight times signed distance
from the mean once, over the entries in amplitude order, ties in value
order: that order fixes the rounding, and so the bytes of zeta* and of
its bootstrap error.

Bootstrap errors come from i.i.d. resamples. Replicate b of a series of
N values draws its indices from the generator seeded with seed + b, so
the draw depends only on (seed, b, N). A draw is the multiplicity of each
sample entry and the list of entries drawn at least once; only those are
ranked. `skew_reports` makes each draw once and uses it for every series
of that length, so each series' errors are exactly those it gets alone.
The draw indexes each series' values in ascending order, not its dates:
across equal-length series the replicates are paired by rank, not by date,
even when the dates align, and two independent series get strongly
correlated replicates. They are no joint bootstrap of the series.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InsufficientOverlap,
    InvalidParams,
    SignChangeInWindow,
    TooFewPoints,
    TooShort,
    ZeroVariance,
)
from .series import (
    PERIODS_PER_YEAR,
    ReturnSeries,
    _check_seed,
    _check_size,
    det_dot,
    det_sum,
    standardize,
    symmetrize,
)

#: Coefficient C of zeta* = C zeta3 (1 - kurt/8), C = 50/(3 pi), for the Edgeworth density
#: phi(x) [1 + (zeta3/6) He3(x) + (kurt/24) He4(x)]. On an uncut density the relation is exact,
#: in closed form (derived in tests/oracles.py, edgeworth_zeta_star_closed_form, and held to the
#: quadrature within 1e-10). The paper's bracket (1 - kurt/24) is wrong. Only the cut of
#: EdgeworthDensity, where the expansion dips negative, makes the relation approximate.
EDGEWORTH_ZETA_STAR_COEFF = 50.0 / (3.0 * math.pi)

#: Rank-fraction window [p_min, p_max] of the small-p power-law fit.
SMALL_P_WINDOW = (0.01, 0.2)

Variant = str  # "raw" | "standardized"


@dataclass(frozen=True)
class RankedPnlCurve:
    """Cumulated P&L versus amplitude-rank fraction p = k/N."""

    p: np.ndarray
    f: np.ndarray
    variant: Variant


@dataclass(frozen=True)
class SkewReport:
    zeta_star: float
    zeta3: float
    kurtosis: float
    mean_minus_median: float
    err_zeta_star: float
    err_sharpe: float
    n: int
    label: str
    seed: int
    bootstrap: int

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Curves and zeta*
# ---------------------------------------------------------------------------


def amplitude_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting by |value| ascending, ties by chronological index.

    Distinct amplitudes have one sorting permutation, so numpy's default
    (SIMD) argsort gives the stable order; one sort of |value| shows whether
    any are tied, such as tick-rounded returns or +-0.0, and only then is
    the stable argsort paid for. The sorted copy is freed before the argsort.
    The values are finite, as a series' are: NaNs would not compare as ties.
    """
    a = np.abs(values)
    s = np.sort(a)
    tied = bool((s[1:] == s[:-1]).any())
    del s
    return a.argsort(kind="stable" if tied else None)


def ranked_pnl(s: ReturnSeries, variant: Variant = "raw") -> RankedPnlCurve:
    """Ranked-amplitude P&L curve of a series.

    variant "raw" cumulates the returns as given, so f[-1] equals the
    chronological total P&L exactly. "standardized" standardizes first
    and divides the partial sums by N (see module docstring).
    """
    if variant == "raw":
        v = s.values
    elif variant == "standardized":
        v = standardize(s).values
    else:
        raise InvalidParams(f"unknown curve variant {variant!r}")
    n = len(s)
    p = np.arange(1, n + 1, dtype=np.float64)
    p /= n
    f = v.take(amplitude_order(v))
    np.cumsum(f, out=f)
    if variant == "standardized":
        f /= n
    return RankedPnlCurve(p=p, f=f, variant=variant)


def _sorted_centred(values: np.ndarray) -> tuple[np.ndarray, float]:
    """The values in ascending order minus a centre m0, and m0.

    m0 is the smallest value not below the mean. Centring before the
    kernel forms E[x^2] - m^2 keeps a large offset from costing digits.
    Shifting by a sample value rather than by the mean keeps differences
    of tick-rounded values exact, so values at equal distance from a
    resample mean stay exactly tied.
    """
    v = np.sort(values)
    m0 = float(v[min(int(np.searchsorted(v, det_sum(v) / v.size)), v.size - 1)])
    v -= m0
    return v, m0


def zeta_star(s: ReturnSeries) -> float:
    """Ranked-P&L skewness: -100 times the mean of the F0 curve."""
    c, _ = _sorted_centred(s.values)
    return _zeta_star_from_counts(c, np.ones(c.size))[0]


# ---------------------------------------------------------------------------
# Classical and low-moment statistics
# ---------------------------------------------------------------------------


def _moments(c: np.ndarray, label: str) -> tuple[float, float, float]:
    """(zeta3, excess kurtosis, (mean - median)/sigma) of the `_sorted_centred` values, with one sigma."""
    n = c.size
    mean = det_sum(c) / n
    x = c - mean
    x2 = x * x
    m2 = det_sum(x2) / n
    if m2 == 0.0:
        raise ZeroVariance(f"{label}: zero variance")
    median = 0.5 * (c[(n - 1) // 2] + c[n // 2])
    # the products x^2 x and x^2 x^2 go into the spent x, so two N-arrays are held
    x *= x2
    m3 = det_sum(x) / n
    np.multiply(x2, x2, out=x)
    return (
        m3 / m2**1.5,
        det_sum(x) / n / (m2 * m2) - 3.0,
        float((mean - median) / math.sqrt(m2)),
    )


def classical_moments(s: ReturnSeries) -> tuple[float, float]:
    """(zeta3, excess kurtosis) from population central moments."""
    if len(s) < 3:
        raise TooShort(f"{s.label}: need at least 3 points")
    return _moments(_sorted_centred(s.values)[0], s.label)[:2]


def mean_minus_median(s: ReturnSeries) -> float:
    """(mean - median) / sigma, a robust low-moment skewness proxy."""
    return _moments(_sorted_centred(s.values)[0], s.label)[2]


def co_skewness(s: ReturnSeries, benchmark: ReturnSeries) -> float:
    """E[(r - mu)(b - mu_b)^2] / (sigma sigma_b^2) over common dates."""
    common, ia, ib = np.intersect1d(s.dates, benchmark.dates, return_indices=True)
    if common.size < 12:
        raise InsufficientOverlap(
            f"{s.label} vs {benchmark.label}: {common.size} overlapping dates, need 12"
        )
    r = s.values[ia] - np.mean(s.values[ia])
    b = benchmark.values[ib] - np.mean(benchmark.values[ib])
    sr = float(np.std(r))
    sb = float(np.std(b))
    if sr == 0.0 or sb == 0.0:
        leg, other = (s, benchmark) if sr == 0.0 else (benchmark, s)
        raise ZeroVariance(f"co-skewness: {leg.label} is constant on the {common.size} dates it shares with {other.label}")
    return float(np.mean(r * b * b) / (sr * sb * sb))


# ---------------------------------------------------------------------------
# CDF crossing test
# ---------------------------------------------------------------------------


def crossing_count(s: ReturnSeries, seed: int) -> int:
    """Sign changes of G = ecdf(standardized) - ecdf(symmetrized).

    G is evaluated on the pooled sorted support; values inside the
    DKW-style noise band |G| < 2/sqrt(N) are zeroed before counting.
    Two crossings mean the sample and its symmetrized twin are
    skewness-comparable; four or more flag mixed asymmetry scales.
    """
    _check_seed(seed)
    n = len(s)
    if n < 100:
        raise TooShort(f"{s.label}: need at least 100 points")
    std = standardize(s)
    pooled = np.concatenate((np.sort(std.values), np.sort(symmetrize(std, seed).values)))
    # two sorted runs, which the stable sort merges in O(N)
    order = np.argsort(pooled, kind="stable")
    merged = pooled[order]
    # G at each distinct value, read at the last entry of its group of equal values
    last = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    g = np.cumsum(np.where(order < n, 1, -1))[last] / n
    band = 2.0 / math.sqrt(n)
    g = np.where(np.abs(g) < band, 0.0, g)
    signs = np.sign(g[g != 0.0])
    if signs.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))


# ---------------------------------------------------------------------------
# Small-p power law
# ---------------------------------------------------------------------------


def small_p_exponent(curve: RankedPnlCurve) -> float:
    """OLS slope of log|F0(p)| against log p on `SMALL_P_WINDOW`.

    The curve must be the standardized variant and single-signed on the
    window; the generic small-p law gives a slope of 3.
    """
    if curve.variant != "standardized":
        raise InvalidParams("small-p exponent is defined on the standardized curve")
    p_min, p_max = SMALL_P_WINDOW
    w = (curve.p >= p_min) & (curve.p <= p_max)
    f = curve.f[w]
    p = curve.p[w]
    nz = f != 0.0
    f, p = f[nz], p[nz]
    if f.size < 20:
        raise TooFewPoints(f"{f.size} usable points in window, need 20")
    signs = np.sign(f)
    if signs.max() != signs.min():
        raise SignChangeInWindow("F0 changes sign inside the fit window")
    slope, _ = np.polyfit(np.log(p), np.log(np.abs(f)), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Bootstrap and the assembled report
# ---------------------------------------------------------------------------


def _zeta_star_from_counts(
    v_sorted: np.ndarray, counts: np.ndarray, drawn: np.ndarray | None = None, drawn_counts: np.ndarray | None = None
) -> tuple[float, float, float]:
    """(zeta*, mean, std) of a resample given its multiplicity vector.

    `v_sorted` holds the sample values in ascending order and `counts` the
    resample multiplicities in the same order; unit counts give the sample
    itself. Equivalent to materializing the resample and ranking it, but
    without sorting it: |v - m| is two sorted runs, which the stable sort
    merges in O(N). Entries tied in amplitude share their tie group's rank
    weights in proportion to their counts (mid-rank), whichever side of the
    mean they lie on. The variance is E[v^2] - m^2, so pass values centred
    near their mean.

    `drawn` lists the entries with a nonzero count in ascending order and
    `drawn_counts` their counts; only those entries are ranked and summed.
    None takes them from `counts`, and builds no list when every entry is
    drawn, as in the point estimate. An entry drawn zero times has weight 0
    and moves no other entry's ranks, so it is left out of the sum, and both
    give the same bytes. Each step writes into a buffer whose contents are
    spent, so a call holds three to four N-arrays at a time, fewer with `drawn`.

    zeta* is -100 sum_k w_k s_k / (sd n^2), with s_k = v_k - m the signed
    distance and w_k the entry's rank weights. The sum runs once over the
    drawn entries in amplitude order, ties in value order, the order the
    stable sort puts them in, which fixes its rounding and so the bytes of
    err_zeta_star. Since s_k holds the mean, the weights are not summed on
    their own, and nothing is scattered back to value order. The kernel
    sums 2 w_k s_k and multiplies by -50: doubling scales every rounding by
    2, so the bytes are those of -100 sum_k w_k s_k. Each 2 w_k is an
    integer, exact in float64 while n < 9.4e7, so only the products and
    their sum round.
    """
    n = v_sorted.size
    m = det_dot(counts, v_sorted) / n
    t = v_sorted * v_sorted
    t *= counts
    var = det_sum(t) / n - m * m
    del t
    if var <= 0.0:
        raise ZeroVariance("all values equal")
    sd = math.sqrt(var)
    if drawn is None and not counts.all():
        drawn = counts.nonzero()[0]
    if drawn is None:
        s = v_sorted - m
        drawn_counts = counts
    else:
        s = v_sorted.take(drawn)
        s -= m
        if drawn_counts is None:
            drawn_counts = counts.take(drawn)
    a = np.abs(s)
    order = a.argsort(kind="stable")
    # each gather goes into a buffer whose contents are spent, the amplitudes' and then the distances'; with
    # mode "raise" numpy gathers through a temporary copy, and the indices are in range, so "clip" changes nothing
    s_ranked = s.take(order, out=a, mode="clip")
    c = drawn_counts.take(order, out=s, mode="clip")
    del a, s, order
    x = np.abs(s_ranked)
    tied = x[1:] == x[:-1]
    # each unit of count in a block of ranks (a, b] weighs twice the mean rank weight, 2n + 1 - (a + b), and
    # an entry's block is (S - c, S], S = cumsum(c); every step is exact in integers
    c.cumsum(out=x)
    x += x
    x -= c  # a + b
    if np.count_nonzero(tied):
        # mid-rank: a run of equal distances, entries first..last, shares one block from the first's a to
        # the last's b; a lone entry's block is already its own, so only the runs are rewritten
        edges = np.flatnonzero(np.diff(np.concatenate(([False], tied, [False]))))
        first, last = edges[::2], edges[1::2]
        run_ends = ((x[first] - c[first]) + (x[last] + c[last])) * 0.5
        in_run = np.append(tied, False)
        in_run[1:] |= tied
        x[in_run] = run_ends.repeat(last - first + 1)
    np.subtract(2 * n + 1, x, out=x)
    x *= c
    x *= s_ranked
    return -50.0 * det_sum(x) / sd / (float(n) * float(n)), float(m), sd


def _bootstrap(samples: list[tuple[str, np.ndarray, float, float]], n_boot: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap replicates of (zeta*, annualized Sharpe) of each sample, two (samples, n_boot) arrays.

    A sample is (label, c, m0, ann): `c` and `m0` come from
    `_sorted_centred` and `ann` annualizes the Sharpe ratio. Resamples are
    i.i.d. with replacement, of the sample's size N. Replicate b draws its
    indices from the generator seeded with seed + b, so the draw depends
    only on (seed, b, N). The draw is the multiplicity vector `counts`, the
    list of entries it draws at all (about 63 % of them) and their counts:
    all three are made once per replicate and length and shared by every
    sample of that length, and replicates can be evaluated in any order
    with identical results. The counts index each sample's sorted values,
    so samples of one length are paired by rank, not by date (see the
    module docstring).
    """
    by_size: dict[int, list[int]] = {}
    for i, (_, c, _, _) in enumerate(samples):
        by_size.setdefault(c.size, []).append(i)
    zs = np.empty((len(samples), n_boot))
    sh = np.empty((len(samples), n_boot))
    for b in range(n_boot):
        for n, members in by_size.items():
            # one expression, so the index array is freed before any kernel runs
            counts = np.bincount(np.random.default_rng(seed + b).integers(0, n, size=n), minlength=n).astype(np.float64)
            drawn = (counts > 0).nonzero()[0]
            drawn_counts = counts.take(drawn)
            for i in members:
                label, c, m0, ann = samples[i]
                try:
                    z, m, sd = _zeta_star_from_counts(c, counts, drawn, drawn_counts)
                except ZeroVariance:
                    raise ZeroVariance(f"{label}: bootstrap resample {b} has zero variance") from None
                zs[i, b] = z
                sh[i, b] = (m0 + m) / sd * ann
    return zs, sh


def _point_and_sample(s: ReturnSeries) -> tuple[tuple[float, float, float, float], tuple[str, np.ndarray, float, float]]:
    """The point statistics of a series, and its bootstrap sample (label, c, m0, ann) for `_bootstrap`."""
    if len(s) < 30:
        raise TooShort(f"{s.label}: need at least 30 points for a report")
    c, m0 = _sorted_centred(s.values)
    moments = _moments(c, s.label)  # its zero-variance check names the series, so it runs before the kernel's
    point = (_zeta_star_from_counts(c, np.ones(c.size))[0], *moments)
    return point, (s.label, c, m0, math.sqrt(PERIODS_PER_YEAR[s.period]))


def skew_reports(series: Iterable[ReturnSeries], bootstrap: int = 1000, seed: int = 0) -> list[SkewReport]:
    """All skewness diagnostics of each series, with bootstrap errors, without co-skewness.

    The series are taken one at a time, and of each only its sorted,
    centred sample is kept for the bootstrap, so `series` may be a
    generator. Every check and statistic that needs no resample is made
    before the bootstrap, in the order of the series. Equal-length series
    share each replicate's draw (see `_bootstrap`), which indexes their
    sorted values: each series' errors are those `skew_report` gives it
    alone, but across series the replicates are paired by rank, not by date.
    """
    if bootstrap < 2:
        raise InvalidParams(f"need at least 2 bootstrap replicates, got {bootstrap}")
    _check_size(bootstrap, "bootstrap replicates", 16)  # a zeta* and a Sharpe per replicate and series
    _check_seed(seed)
    # no name outlives the comprehension, so no series lives through the bootstrap
    taken = [_point_and_sample(s) for s in series]
    zs, sh = _bootstrap([sample for _, sample in taken], bootstrap, seed)
    return [
        SkewReport(*point, err_zeta_star=float(np.std(z, ddof=1)), err_sharpe=float(np.std(h, ddof=1)),
                   n=c.size, label=label, seed=seed, bootstrap=bootstrap)
        for (point, (label, c, _, _)), z, h in zip(taken, zs, sh)
    ]


def skew_report(s: ReturnSeries, bootstrap: int = 1000, seed: int = 0) -> SkewReport:
    """`skew_reports` of one series."""
    return skew_reports([s], bootstrap, seed)[0]
