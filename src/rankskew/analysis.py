"""Cross-sectional Sharpe-vs-skewness analysis and the PCA diagnostic."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateX, DuplicateLabel, InvalidParams, SingularWindow, TooFewRows, TooShort
from .portfolio import Panel

ON_LINE = "on-line"
BELOW_LINE = "below-line"
PURE_ALPHA = "pure-alpha"

# Least share of a PCA window's dates a strategy must have populated.
_MIN_COVERAGE = 0.8


@dataclass(frozen=True)
class CrossSectionRow:
    name: str
    sharpe: float
    ann_vol: float
    zeta_star: float
    err_sharpe: float = 0.0
    err_zeta_star: float = 0.0
    included_in_fit: bool = True


@dataclass(frozen=True)
class CrossSection:
    rows: list[CrossSectionRow]

    def __post_init__(self) -> None:
        names = [r.name for r in self.rows]
        if len(set(names)) != len(names):
            raise DuplicateLabel("duplicate strategy names in cross-section")
        for r in self.rows:
            if r.err_sharpe < 0 or r.err_zeta_star < 0:
                raise InvalidParams(f"{r.name}: negative error bar")


@dataclass(frozen=True)
class RegressionResult:
    """Fit S = a + b * (-zeta*) with a 2-sigma classification channel."""

    intercept: float
    slope: float
    corr_skew_sr: float | None  # None when a column is constant
    corr_vol_sr: float | None
    channel_halfwidth: float
    classifications: dict[str, str]

    def as_dict(self) -> dict:
        return asdict(self)


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson correlation; None, not NaN, when either column is constant."""
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        # not a zero test on the centred sums: the mean of equal values may be off by an ulp
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
    return float(np.sum(xc * yc) / denom)


def cross_section_stats(cs: CrossSection) -> RegressionResult:
    """OLS of Sharpe on -zeta* plus correlations and the 2-sigma channel.

    The fit uses only rows flagged included_in_fit (the pure-alpha
    candidates are held out of it); correlations and the channel use
    every supplied row. The channel half-width is twice the median
    combined error sqrt(err_S^2 + b^2 err_z^2); rows more than one
    half-width above the line classify as pure-alpha, below as
    below-line, otherwise on-line.
    """
    rows = cs.rows
    fit_rows = [r for r in rows if r.included_in_fit]
    if len(fit_rows) < 3:
        raise TooFewRows(f"{len(fit_rows)} rows included in fit, need 3")
    x_fit = np.array([-r.zeta_star for r in fit_rows])
    y_fit = np.array([r.sharpe for r in fit_rows])
    xc = x_fit - x_fit.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise DegenerateX("all fitted zeta* values are equal")
    slope = float(np.sum(xc * (y_fit - y_fit.mean())) / sxx)
    intercept = float(y_fit.mean() - slope * x_fit.mean())

    zs_all = np.array([r.zeta_star for r in rows])
    sr_all = np.array([r.sharpe for r in rows])
    vol_all = np.array([r.ann_vol for r in rows])
    combined = np.array(
        [math.sqrt(r.err_sharpe**2 + slope**2 * r.err_zeta_star**2) for r in rows]
    )
    halfwidth = 2.0 * float(np.median(combined))

    classes: dict[str, str] = {}
    for r in rows:
        resid = r.sharpe - (intercept + slope * (-r.zeta_star))
        if resid > halfwidth:
            classes[r.name] = PURE_ALPHA
        elif resid < -halfwidth:
            classes[r.name] = BELOW_LINE
        else:
            classes[r.name] = ON_LINE

    return RegressionResult(
        intercept=intercept,
        slope=slope,
        corr_skew_sr=_pearson(zs_all, sr_all),
        corr_vol_sr=_pearson(vol_all, sr_all),
        channel_halfwidth=halfwidth,
        classifications=classes,
    )


# ---------------------------------------------------------------------------
# Rolling PCA of the strategy correlation matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowSpectrum:
    end_date: np.datetime64
    assets: list[str]
    eigenvalues: list[float]          # descending
    separation: float | None          # lambda1/lambda2, None if lambda2 ~ 0


@dataclass(frozen=True)
class PcaSpectrum:
    windows: list[WindowSpectrum]
    top_vector_stability: float | None = field(default=None)

    def as_dict(self) -> dict:
        return {
            "top_vector_stability": self.top_vector_stability,
            "windows": [
                {
                    "end_date": str(w.end_date),
                    "assets": list(w.assets),
                    "eigenvalues": list(w.eigenvalues),
                    **({"separation": w.separation} if w.separation is not None else {}),
                }
                for w in self.windows
            ],
        }


def _pairwise_corr(block: np.ndarray) -> np.ndarray:
    """Pairwise-complete Pearson correlation matrix of panel columns.

    Each pair's sums over the rows where both columns are finite are
    masked products of the presence mask m and the block x, zero-filled
    and centred on each column's median. The one-pass Sxx - Sx^2/n loses
    about eps * Sxx / var of a pair variance, so the centre must sit near
    every pair's mean: the median does for a mostly-zero column, the mean
    does not. A pair variance within that rounding, n * eps * Sxx, is
    zero; a pair with a zero variance or fewer than 2 common rows has
    correlation 0. `einsum` without `optimize` never calls threaded BLAS.
    """
    m = np.isfinite(block).astype(np.float64)
    x = np.where(m > 0, block - np.nanmedian(block, axis=0), 0.0)
    n = np.einsum("ti,tj->ij", m, m)
    sx = np.einsum("ti,tj->ij", x, m)  # sx[i, j]: sum of column i over the rows shared with j
    sxx = np.einsum("ti,tj->ij", x * x, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = sxx - sx * sx / n
        cov = np.einsum("ti,tj->ij", x, x) - sx * sx.T / n
        var[var <= n * np.finfo(np.float64).eps * sxx] = 0.0
        corr = np.where((n >= 2) & (var > 0.0) & (var.T > 0.0), cov / np.sqrt(var * var.T), 0.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def pca_spectrum(panel: Panel, window: int = 252, step: int = 21) -> PcaSpectrum:
    """Rolling eigenvalue spectra of the strategy correlation matrix.

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
    # every window's matrix first, so the checks fail in window order; then one
    # stacked eigh per matrix size, which leaves BLAS no gaps to spin in
    kept: list[tuple[int, np.ndarray]] = []
    mats: list[np.ndarray] = []
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
        kept.append((start, cols))
        mats.append(_pairwise_corr(sub))
    by_size: dict[int, list[int]] = {}
    for i, corr in enumerate(mats):
        by_size.setdefault(corr.shape[0], []).append(i)
    eig: list = [None] * len(mats)
    for members in by_size.values():
        evals, evecs = np.linalg.eigh(np.stack([mats[i] for i in members]))
        for i, ev, vec in zip(members, evals, evecs):
            eig[i] = (ev, vec)
    windows: list[WindowSpectrum] = []
    tops: list[tuple[np.ndarray, np.ndarray]] = []
    for (start, cols), (evals, evecs) in zip(kept, eig):
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
        tops.append((cols, top))

    stability = None
    cosines = []
    for (ca, va), (cb, vb) in zip(tops[:-1], tops[1:]):
        # ascending column indices name the strategies, so common ones pair up in order
        common, ia, ib = np.intersect1d(ca, cb, return_indices=True)
        if common.size < 2:
            continue
        sa = va[ia]
        sb = vb[ib]
        norm = float(np.linalg.norm(sa) * np.linalg.norm(sb))
        if norm > 0:
            cosines.append(abs(float(np.dot(sa, sb)) / norm))
    if cosines:
        stability = float(np.mean(cosines))
    return PcaSpectrum(windows=windows, top_vector_stability=stability)
