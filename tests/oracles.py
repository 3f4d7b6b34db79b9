"""Superseded implementations kept as test oracles.

Each function here is an earlier production implementation, kept verbatim
so that its replacement can be checked against it. The exceptions:
`edgeworth_zeta_star_split_quad` is a tighter form of the replaced nested
`quad` that also splits at the density's jumps, and `zeta_star_ij_se` and
`sharpe_se_mertens` are analytic references for the bootstrap errors,
not earlier implementations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from rankskew.analysis import _MIN_COVERAGE, CrossSection, PcaSpectrum, RegressionResult, WindowSpectrum, _pairwise_corr
from rankskew.errors import (
    InvalidParams,
    IOWrite,
    MomentDoesNotExist,
    SingularWindow,
    TooFewAssets,
    TooFewRows,
    TooShort,
    WrongPeriod,
    ZeroVariance,
)
from rankskew.io import _check_labels
from rankskew.portfolio import Panel, _rebalance_indices
from rankskew.series import (
    ABS_VOL_UNBIAS,
    ReturnSeries,
    _running_percentile_floor,
    det_dot,
    det_sum,
    standardize,
    symmetrize,
)
from rankskew.skew import RankedPnlCurve, amplitude_order
from rankskew.synth import (
    AsymmetricStudentT,
    EdgeworthDensity,
    _ast_log_unnorm,
    _edgeworth_raw,
    ast_density,
    edgeworth_density,
)


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


def zeta_star_from_counts_allocating(v_sorted: np.ndarray, v_sq: np.ndarray, counts: np.ndarray, n: int) -> tuple[float, float, float]:
    """(zeta*, mean, std) of a resample given its multiplicity vector; a fresh array per step.

    The replicate kernel before `rankskew.skew._zeta_star_from_counts`
    dropped `v_sq` and reused its buffers.

    `v_sorted` holds the sample values in ascending order, `v_sq` their
    squares and `counts` the resample multiplicities in the same order;
    unit counts give the sample itself. Equivalent to materializing the
    resample and ranking it, but without sorting it: |v - m| is two sorted
    runs, which the stable sort merges in O(N). Entries tied in amplitude
    share their tie group's rank weights in proportion to their counts
    (mid-rank), whichever side of the mean they lie on. The variance is
    E[v^2] - m^2, so pass values centred near their mean.
    """
    m = det_dot(counts, v_sorted) / n
    var = det_dot(counts, v_sq) / n - m * m
    if var <= 0.0:
        raise ZeroVariance("all values equal")
    sd = math.sqrt(var)
    d = np.abs(v_sorted - m)
    order = np.argsort(d, kind="stable")
    c = counts[order]
    # sum of rank weights (n - j + 1) over each block of ranks (S - c, S], S = cumsum(c)
    w_ranked = c * ((n + 0.5) - np.cumsum(c) + 0.5 * c)
    d = d[order]
    tied = d[1:] == d[:-1]
    if tied.any():
        # mid-rank: each tie group's weight is shared by count; a group drawn zero times has none
        first = np.flatnonzero(np.concatenate(([True], ~tied)))
        group_w = np.add.reduceat(w_ranked, first)
        group_c = np.add.reduceat(c, first)
        share = np.divide(group_w, group_c, out=np.zeros_like(group_w), where=group_c > 0)
        w_ranked = c * np.repeat(share, np.diff(first, append=n))
    w = np.empty(n)
    w[order] = w_ranked
    # summing each side nearest-first fixes the rounding, and so the bytes of err_zeta_star
    split = int(np.searchsorted(v_sorted, m))
    lo = slice(split - 1, None, -1) if split > 0 else slice(0, 0)
    w_lo, v_lo, w_hi, v_hi = w[lo], v_sorted[lo], w[split:], v_sorted[split:]
    total = (det_dot(w_lo, v_lo) + det_dot(w_hi, v_hi)) - m * (det_sum(w_lo) + det_sum(w_hi))
    return -100.0 * total / sd / (float(n) * float(n)), float(m), sd


def zeta_star_ij_se(values: np.ndarray) -> float:
    """Infinitesimal-jackknife standard error of zeta* (Jaeckel 1972, Efron 1982), for untied i.i.d. samples.

    zeta* = -100/sigma * mean[(x - m)(1 - H(|x - m|))], H the amplitude CDF.
    Entry k's empirical influence sums four terms: its own product
    (x_k - m)(1 - H_k); minus the sum of (x_i - m)/N over the entries of
    larger amplitude, which its weight in H moves; the derivative in m, by a
    central difference at +-0.01 sigma, times x_k - m; and -(zeta*/sigma)
    times sigma's influence ((x_k - m)^2 - sigma^2)/(2 sigma). The SE is
    sqrt(sum U_k^2)/N of the centred influences U.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    m = float(np.mean(x))
    sigma = math.sqrt(float(np.mean((x - m) ** 2)))

    def area(centre: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        d = x - centre
        order = np.argsort(np.abs(d), kind="stable")
        h = np.empty(n)
        h[order] = np.arange(n) / n
        return float(np.mean(d * (1.0 - h))), d, h, order

    a, d, h, order = area(m)
    t = -100.0 * a / sigma
    ranked = d[order]
    larger = np.empty(n)
    larger[order] = np.cumsum(ranked[::-1])[::-1] - ranked
    step = 0.01 * sigma
    dt_dm = -100.0 * (area(m + step)[0] - area(m - step)[0]) / (2.0 * step) / sigma
    u = -100.0 / sigma * (d * (1.0 - h) - larger / n) + dt_dm * d - t / sigma * (d * d - sigma * sigma) / (2.0 * sigma)
    u -= np.mean(u)
    return math.sqrt(float(np.sum(u * u))) / n


def sharpe_se_mertens(values: np.ndarray) -> float:
    """Standard error of the annualized Sharpe ratio of i.i.d. daily returns (Mertens 2002).

    Var(SR) = (1 + SR^2/2 - zeta3 SR + (kurt/4) SR^2)/N per period, with
    population moments and kurt the excess kurtosis, which extends Lo (2002)
    to skewed, fat-tailed returns; annualized by sqrt(252).
    """
    x = np.asarray(values, dtype=np.float64)
    d = x - np.mean(x)
    sd = math.sqrt(float(np.mean(d**2)))
    sr = float(np.mean(x)) / sd
    zeta3 = float(np.mean(d**3)) / sd**3
    kurt = float(np.mean(d**4)) / sd**4 - 3.0
    return math.sqrt(252.0 * (1.0 + sr * sr / 2.0 - zeta3 * sr + kurt / 4.0 * sr * sr) / x.size)


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


def _open_text(path: str, mode: str = "r"):
    """Open a file as UTF-8: newlines untranslated to read, '\\n' to write."""
    return open(path, mode, encoding="utf-8", newline="" if mode == "r" else "\n")


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


def write_scatter_csv_by_row(path: str, cs: CrossSection, result: RegressionResult) -> None:
    """Plot data for the Sharpe-vs-skewness scatter with the channel."""
    _check_labels(path, (r.name for r in cs.rows))
    with _open_text(path, "w") as fh:
        fh.write("name,neg_zeta_star,sharpe,err_x,err_y,class\n")
        for r in cs.rows:
            fh.write(
                f"{r.name},{_fmt(-r.zeta_star)},{_fmt(r.sharpe)},"
                f"{_fmt(r.err_zeta_star)},{_fmt(r.err_sharpe)},{result.classifications[r.name]}\n"
            )


def write_fig10_csv_by_row(path: str, rows) -> None:
    with _open_text(path, "w") as fh:
        fh.write("nu_plus,zeta3,zeta_star\n")
        for r in rows:
            z3 = "" if r.zeta3 is None else _fmt(r.zeta3)
            fh.write(f"{_fmt(r.nu_plus)},{z3},{_fmt(r.zeta_star)}\n")


def write_decile_csv_by_row(path: str, table) -> None:
    with _open_text(path, "w") as fh:
        fh.write("bucket,vol_pct,zeta_star,sharpe\n")
        for r in table.rows:
            fh.write(f"{r.bucket},{_fmt(r.vol_pct)},{_fmt(r.zeta_star)},{_fmt(r.sharpe)}\n")


def rank_buckets_loop(
    returns: Panel,
    signal: Panel,
    n_buckets: int = 10,
    rebalance: str = "monthly",
) -> list[ReturnSeries]:
    """`rankskew.portfolio.rank_buckets` as a loop per date, bucket and rank position.

    Bucket k of B holds ascending-signal ranks in (ceil((k-1)N/B), ceil(kN/B)].
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
                period="daily",
                dates=np.array(bucket_dates[k], dtype="datetime64[D]"),
                values=np.array(bucket_vals[k]),
            )
        )
    return out


def pairwise_corr_loop(block: np.ndarray) -> np.ndarray:
    """`rankskew.analysis._pairwise_corr` as a loop over column pairs."""
    k = block.shape[1]
    corr = np.eye(k)
    finite = np.isfinite(block)
    for i in range(k):
        for j in range(i + 1, k):
            both = finite[:, i] & finite[:, j]
            if both.sum() < 2:
                corr[i, j] = corr[j, i] = 0.0
                continue
            xi = block[both, i]
            xj = block[both, j]
            xi = xi - xi.mean()
            xj = xj - xj.mean()
            denom = math.sqrt(float(np.sum(xi * xi)) * float(np.sum(xj * xj)))
            corr[i, j] = corr[j, i] = 0.0 if denom == 0.0 else float(np.sum(xi * xj) / denom)
    return corr


def pca_spectrum_per_window(panel: Panel, window: int = 252, step: int = 21) -> PcaSpectrum:
    """`rankskew.analysis.pca_spectrum` with one `eigh` call per window.

    Each window keeps the strategies with at least `_MIN_COVERAGE` of its
    dates populated, builds the pairwise-complete correlation matrix and
    reports eigenvalues (descending) and the lambda1/lambda2 separation.
    Stability is the mean |cosine| between top eigenvectors of
    consecutive windows, compared on their common strategies.
    """
    if len(panel.assets) < 2:
        raise TooFewRows("need at least 2 strategies")
    if window < 2 or step < 1:
        raise InvalidParams(f"need window >= 2 and step >= 1, got window {window}, step {step}")
    n = panel.dates.size
    if window > n:
        raise TooShort(f"window {window} exceeds history {n}")
    windows: list[WindowSpectrum] = []
    tops: list[tuple[list[str], np.ndarray]] = []
    for start in range(0, n - window + 1, step):
        block = panel.values[start : start + window]
        coverage = np.isfinite(block).sum(axis=0) / window
        cols = np.flatnonzero(coverage >= _MIN_COVERAGE)
        if cols.size < 2:
            continue
        sub = block[:, cols]
        constant = np.nanmax(sub, axis=0) == np.nanmin(sub, axis=0)
        if constant.any():
            raise SingularWindow(
                f"{panel.assets[cols[np.argmax(constant)]]} is constant in the window ending {panel.dates[start + window - 1]}"
            )
        corr = _pairwise_corr(sub)
        evals, evecs = np.linalg.eigh(corr)
        order = np.argsort(evals)[::-1]
        evals = evals[order]
        top = evecs[:, order[0]]
        sep = float(evals[0] / evals[1]) if evals[1] > 1e-12 else None
        names = [panel.assets[c] for c in cols]
        windows.append(
            WindowSpectrum(
                end_date=panel.dates[start + window - 1],
                assets=names,
                eigenvalues=[float(v) for v in evals],
                separation=sep,
            )
        )
        tops.append((names, top))

    stability = None
    cosines = []
    for (na, va), (nb, vb) in zip(tops[:-1], tops[1:]):
        common = [x for x in na if x in set(nb)]
        if len(common) < 2:
            continue
        sa = np.array([va[na.index(x)] for x in common])
        sb = np.array([vb[nb.index(x)] for x in common])
        norm = float(np.linalg.norm(sa) * np.linalg.norm(sb))
        if norm > 0:
            cosines.append(abs(float(np.dot(sa, sb)) / norm))
    if cosines:
        stability = float(np.mean(cosines))
    return PcaSpectrum(windows=windows, top_vector_stability=stability)


def first_constant_column_ptp(sub: np.ndarray) -> int | None:
    """The constant-column check of `rankskew.analysis.pca_spectrum` as a `ptp` loop.

    Returns the index of the first column whose finite cells are all equal.
    """
    for c in range(sub.shape[1]):
        col = sub[:, c][np.isfinite(sub[:, c])]
        if col.size and np.ptp(col) == 0.0:
            return c
    return None


# ---------------------------------------------------------------------------
# Scalar adaptive quadrature of the synthetic families
# ---------------------------------------------------------------------------

QUAD_EPSREL = 1e-10
QUAD_EPSABS = 1e-13


def _quad(fn, lo, hi) -> float:
    val, _ = quad(fn, lo, hi, limit=600, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL)
    return val


class AsymmetricStudentTQuad(AsymmetricStudentT):
    """`rankskew.synth.AsymmetricStudentT` with its normalization and moments by scalar `quad`."""

    def __post_init__(self) -> None:
        if not (0.5 < self.nu_plus < math.inf and 0.5 < self.nu_minus < math.inf):
            raise InvalidParams(
                f"tail exponents must be finite and exceed 1/2, got ({self.nu_plus}, {self.nu_minus})"
            )
        u_max = self._u_max()
        raw = _quad(lambda u: self._unnorm_u(u), -u_max, 0.0) + _quad(
            lambda u: self._unnorm_u(u), 0.0, u_max
        )
        object.__setattr__(self, "norm_const", 1.0 / raw)
        mean = var = None
        if min(self.nu_plus, self.nu_minus) > 1.0:
            mean = self._raw_moment(1)
            if min(self.nu_plus, self.nu_minus) > 2.0:
                var = self._raw_moment(2) - mean * mean
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    def _unnorm_u(self, u: float) -> float:
        x = math.sinh(u)
        return float(np.exp(_ast_log_unnorm(x, self.nu_plus, self.nu_minus))) * math.cosh(u)

    def _raw_moment(self, k: int) -> float:
        um = self._u_max()
        def g(u: float) -> float:
            return math.sinh(u) ** k * self._unnorm_u(u)
        return self.norm_const * (_quad(g, -um, 0.0) + _quad(g, 0.0, um))


def ast_zeta3_quad(dist: AsymmetricStudentTQuad) -> float:
    """Classical skewness by quadrature; requires both exponents > 3."""
    if min(dist.nu_plus, dist.nu_minus) <= 3.0:
        raise MomentDoesNotExist(
            f"zeta3 needs nu+- > 3, got ({dist.nu_plus}, {dist.nu_minus})"
        )
    m1 = dist.mean
    m2 = dist._raw_moment(2)
    m3 = dist._raw_moment(3)
    mu2 = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    return mu3 / mu2**1.5


def zeta_star_of_pdf(pdf, u_max: float) -> float:
    """zeta* of a standardized density by the nested double integral.

    zeta* = -100 int_0^inf dx P_s(x) int_0^x dy y P_a(y), with
    P_s/P_a the symmetric/antisymmetric parts of the density. The outer
    integral runs in the sinh coordinate up to u_max.
    """
    def inner(ux: float) -> float:
        if ux <= 0.0:
            return 0.0
        val, _ = quad(
            lambda v: math.sinh(v) * (pdf(math.sinh(v)) - pdf(-math.sinh(v))) * math.cosh(v),
            0.0, ux, limit=300, epsabs=1e-12, epsrel=1e-9,
        )
        return val

    def outer(u: float) -> float:
        x = math.sinh(u)
        return (pdf(x) + pdf(-x)) * inner(u) * math.cosh(u)

    val, _ = quad(outer, 0.0, u_max, limit=600, epsabs=1e-12, epsrel=1e-9)
    return -100.0 * val


def ast_zeta_star_quad(dist: AsymmetricStudentTQuad) -> float:
    """zeta* of the standardized density by quadrature (`rankskew.synth.ast_zeta_star_exact` on scalar `quad`)."""
    if dist.var is None:
        raise MomentDoesNotExist("standardized zeta* needs nu+- > 2")
    mu = dist.mean
    sd = math.sqrt(dist.var)

    def pdf(x):
        return sd * float(ast_density(mu + sd * x, dist))

    return zeta_star_of_pdf(pdf, math.asinh(math.sinh(dist._u_max()) / sd + 1.0))


def edgeworth_moments_quad(dist: EdgeworthDensity) -> tuple[float, float, float, float, float]:
    """norm, mean, var, zeta3_eff and kurt_eff of the density by five scalar `quad`s on its support."""
    lo_x, hi_x = dist.support
    z = _quad(lambda t: float(_edgeworth_raw(t, dist.zeta3, dist.kurt)), lo_x, hi_x)
    m1 = _quad(lambda t: t * float(_edgeworth_raw(t, dist.zeta3, dist.kurt)), lo_x, hi_x) / z
    m2 = _quad(lambda t: (t - m1) ** 2 * float(_edgeworth_raw(t, dist.zeta3, dist.kurt)), lo_x, hi_x) / z
    m3 = _quad(lambda t: (t - m1) ** 3 * float(_edgeworth_raw(t, dist.zeta3, dist.kurt)), lo_x, hi_x) / z
    m4 = _quad(lambda t: (t - m1) ** 4 * float(_edgeworth_raw(t, dist.zeta3, dist.kurt)), lo_x, hi_x) / z
    return z, m1, m2, m3 / m2**1.5, m4 / (m2 * m2) - 3.0


def edgeworth_zeta_star_split_quad(dist: EdgeworthDensity) -> float:
    """zeta* of the standardized truncated density by a nested scalar `quad` at epsrel 1e-13.

    Unlike `zeta_star_of_pdf`, both integrals are split at the support
    ends, where the truncated density jumps.
    """
    _, mu, var, _, _ = edgeworth_moments_quad(dist)
    sd = math.sqrt(var)

    def pdf(x):
        return sd * float(edgeworth_density(mu + sd * x, dist))

    lo, hi = dist.support
    ends = sorted(math.asinh(e) for e in ((mu - lo) / sd, (hi - mu) / sd))
    u_max = math.asinh(max(abs(lo), abs(hi)) / sd + 1.0)

    def inner(ux: float) -> float:
        # no split within 1e-9 of ux: quad reports bad behaviour on the sliver,
        # which holds too little mass to matter at 1e-13
        val, _ = quad(
            lambda v: math.sinh(v) * (pdf(math.sinh(v)) - pdf(-math.sinh(v))) * math.cosh(v),
            0.0, ux, points=[e for e in ends if e < ux - 1e-9] or None, limit=300, epsabs=1e-15, epsrel=1e-13,
        )
        return val

    def outer(u: float) -> float:
        x = math.sinh(u)
        return (pdf(x) + pdf(-x)) * inner(u) * math.cosh(u)

    val, _ = quad(outer, 0.0, u_max, points=ends, limit=600, epsabs=1e-15, epsrel=1e-13)
    return -100.0 * val


# ---------------------------------------------------------------------------
# Risk management
# ---------------------------------------------------------------------------


def risk_manage_lfilter(s: ReturnSeries, span: int = 20) -> ReturnSeries:
    """`rankskew.series.risk_manage` with the EMA from `scipy.signal.lfilter`."""
    if s.period != "daily":
        raise WrongPeriod(f"{s.label}: risk management is defined on daily series")
    if len(s) <= span:
        raise TooShort(f"{s.label}: need more than {span} points")
    if len(s) - span < 2:
        raise TooShort(f"{s.label}: fewer than 2 points would survive warm-up")
    from scipy.signal import lfilter  # deferred: slow to import, and no CLI command calls this

    absr = np.abs(s.values)
    alpha = 2.0 / (span + 1.0)
    # EMA seeded with the first observation: ema[t] = (1-a) ema[t-1] + a |r_t|
    ema, _ = lfilter([alpha], [1.0, alpha - 1.0], absr, zi=[(1.0 - alpha) * absr[0]])
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
