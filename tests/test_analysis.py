from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankskew import (
    CrossSection,
    CrossSectionRow,
    DegenerateX,
    DuplicateLabel,
    InvalidParams,
    Panel,
    SingularWindow,
    TooFewRows,
    TooShort,
    cross_section_stats,
    pca_spectrum,
)
from rankskew.analysis import _MIN_COVERAGE, BELOW_LINE, ON_LINE, PURE_ALPHA, _nanmedian, _pairwise_corr
from tests.oracles import first_constant_column_ptp, pairwise_corr_loop, pca_spectrum_per_window


def row(name, sharpe, zs, vol=0.1, err_s=0.05, err_z=0.1, fit=True):
    return CrossSectionRow(
        name=name, sharpe=sharpe, ann_vol=vol, zeta_star=zs,
        err_sharpe=err_s, err_zeta_star=err_z, included_in_fit=fit,
    )


def on_paper_line(name, zs, err_s=0.05, err_z=0.1, fit=True):
    """A point exactly on S = 1/3 - zeta*/4."""
    return row(name, 1.0 / 3.0 - zs / 4.0, zs, err_s=err_s, err_z=err_z, fit=fit)


# ---------------------------------------------------------------------------
# Regression and classification
# ---------------------------------------------------------------------------


def test_exact_line_recovery():
    cs = CrossSection(rows=[on_paper_line(f"s{i}", zs) for i, zs in enumerate((-2.0, -1.0, -0.5, 0.2))])
    result = cross_section_stats(cs)
    assert result.intercept == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert result.slope == pytest.approx(0.25, abs=1e-12)
    assert all(c == ON_LINE for c in result.classifications.values())


def test_trend_like_row_is_pure_alpha():
    rows = [on_paper_line(f"rp{i}", zs) for i, zs in enumerate((-2.0, -1.2, -0.6, -0.1))]
    rows.append(row("trend", 0.9, +0.43, fit=False))
    rows.append(row("sink", -0.8, -0.5, fit=False))
    result = cross_section_stats(CrossSection(rows=rows))
    assert result.classifications["trend"] == PURE_ALPHA
    assert result.classifications["sink"] == BELOW_LINE
    for i in range(4):
        assert result.classifications[f"rp{i}"] == ON_LINE


def test_channel_halfwidth_is_twice_median_combined_error():
    rows = [on_paper_line(f"s{i}", zs, err_s=0.03, err_z=0.08) for i, zs in enumerate((-1.0, -0.5, 0.0))]
    result = cross_section_stats(CrossSection(rows=rows))
    expected = 2.0 * np.sqrt(0.03**2 + result.slope**2 * 0.08**2)
    assert result.channel_halfwidth == pytest.approx(expected, rel=1e-12)


def test_correlation_invariances():
    base = [row("a", 0.3, -1.5), row("b", 0.6, -2.0), row("c", 0.1, -0.2)]
    r1 = cross_section_stats(CrossSection(rows=base))
    shifted = [row(r.name, r.sharpe + 5.0, r.zeta_star) for r in base]
    r2 = cross_section_stats(CrossSection(rows=shifted))
    assert r2.corr_skew_sr == pytest.approx(r1.corr_skew_sr, abs=1e-12)
    negated = [row(r.name, r.sharpe, -r.zeta_star) for r in base]
    r3 = cross_section_stats(CrossSection(rows=negated))
    assert r3.corr_skew_sr == pytest.approx(-r1.corr_skew_sr, abs=1e-12)


def test_classification_invariant_under_reordering():
    rows = [on_paper_line(f"s{i}", zs) for i, zs in enumerate((-2.0, -1.0, 0.0))]
    rows.append(row("up", 2.0, 0.0, fit=False))
    a = cross_section_stats(CrossSection(rows=rows))
    b = cross_section_stats(CrossSection(rows=list(reversed(rows))))
    assert a.classifications == b.classifications


def test_regression_errors():
    with pytest.raises(TooFewRows):
        cross_section_stats(CrossSection(rows=[row("a", 0.1, -1.0), row("b", 0.2, -2.0)]))
    with pytest.raises(DegenerateX):
        cross_section_stats(
            CrossSection(rows=[row("a", 0.1, -1.0), row("b", 0.2, -1.0), row("c", 0.3, -1.0)])
        )
    with pytest.raises(DuplicateLabel):
        CrossSection(rows=[row("a", 0.1, -1.0), row("a", 0.2, -2.0)])
    with pytest.raises(InvalidParams):
        CrossSection(rows=[row("a", 0.1, -1.0, err_s=-0.05)])


# ---------------------------------------------------------------------------
# PCA spectrum
# ---------------------------------------------------------------------------


def _panel_from_matrix(x: np.ndarray, prefix="s") -> Panel:
    dates = np.datetime64("2001-01-01", "D") + np.arange(x.shape[0])
    return Panel(dates=dates, assets=[f"{prefix}{k}" for k in range(x.shape[1])], values=x)


def test_pca_trace_and_null_spectrum():
    rng = np.random.default_rng(0)
    k, t = 6, 800
    panel = _panel_from_matrix(rng.standard_normal((t, k)))
    spec = pca_spectrum(panel, window=252, step=63)
    assert len(spec.windows) >= 2
    for w in spec.windows:
        assert sum(w.eigenvalues) == pytest.approx(k, abs=1e-9)
        assert w.separation is not None and w.separation < 2.0
    assert spec.top_vector_stability is not None
    assert spec.top_vector_stability < 0.9


def test_pca_one_factor_structure():
    rng = np.random.default_rng(1)
    k, t = 8, 2000
    f = rng.standard_normal((t, 1))
    eps = rng.standard_normal((t, k))
    x = np.sqrt(0.5) * f + np.sqrt(0.5) * eps
    spec = pca_spectrum(_panel_from_matrix(x), window=504, step=252)
    for w in spec.windows:
        assert w.eigenvalues[0] == pytest.approx(k / 2.0 + 0.5, abs=0.45)
    assert spec.top_vector_stability > 0.99


def test_pca_duplicated_strategy_rank_one():
    rng = np.random.default_rng(2)
    col = rng.standard_normal(300)
    spec = pca_spectrum(_panel_from_matrix(np.column_stack([col, col])), window=252, step=21)
    w = spec.windows[0]
    assert w.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
    assert w.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    assert w.separation is None


def test_pca_errors():
    rng = np.random.default_rng(3)
    with pytest.raises(TooFewRows):
        pca_spectrum(_panel_from_matrix(rng.standard_normal((300, 1))), window=252)
    with pytest.raises(TooShort):
        pca_spectrum(_panel_from_matrix(rng.standard_normal((100, 3))), window=252)
    flat = np.column_stack([rng.standard_normal(300), np.full(300, 0.01)])
    with pytest.raises(SingularWindow):
        pca_spectrum(_panel_from_matrix(flat), window=252, step=21)
    with pytest.raises(InvalidParams):
        pca_spectrum(_panel_from_matrix(rng.standard_normal((300, 3))), window=252, step=0)


def test_pca_excludes_low_coverage_strategy():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 3))
    x[:200, 2] = np.nan  # only 100/252 populated in the first window
    spec = pca_spectrum(_panel_from_matrix(x), window=252, step=21)
    assert spec.windows[0].assets == ["s0", "s1"]


@pytest.mark.parametrize("seed", range(4))
def test_pca_stacked_eigh_matches_per_window_calls(seed):
    """Windows of 3, 4 and 5 strategies, interleaved, give exactly the per-window `eigh` spectra."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((900, 5)) @ rng.standard_normal((5, 5))
    x[rng.random(x.shape) < 0.05] = np.nan
    x[100:220, 4] = np.nan  # out of the windows overlapping these rows
    x[500:650, 3:] = np.nan
    spec = pca_spectrum(_panel_from_matrix(x), window=120, step=40)
    assert {len(w.assets) for w in spec.windows} == {3, 4, 5}
    want = pca_spectrum_per_window(_panel_from_matrix(x), window=120, step=40)
    assert spec.as_dict() == want.as_dict()


@given(seed=st.integers(0, 2**32 - 1), n_cols=st.integers(3, 6), tied=st.booleans())
@settings(max_examples=60, deadline=None)
def test_pca_matches_per_window_oracle_across_skips_sizes_and_ties(seed, n_cols, tied):
    """Skipped windows between kept ones, windows of several sizes and, when `tied`,
    windows whose two strategies have correlation 0 and so eigenvalues 1 and 1."""
    rng = np.random.default_rng(seed)
    window, step = 40, 10
    x = rng.standard_normal((600, n_cols)) @ rng.standard_normal((n_cols, n_cols))
    x[rng.random(x.shape) < 0.03] = np.nan
    x[100:200, 1:] = np.nan  # only s0 left: the windows inside keep < 2 strategies
    for _ in range(3):  # stretches without some strategies: smaller windows
        start = rng.integers(200, 560)
        gone = rng.choice(np.arange(2, n_cols), size=rng.integers(1, n_cols - 1), replace=False)
        x[start : start + rng.integers(20, 120), gone] = np.nan
    if tied:
        # only s0 and s1 here, and s0 is constant on the rows where s1 has data
        x[300:400, 2:] = np.nan
        x[300:400, 1] = rng.standard_normal(100)
        x[300:400:10, 1] = np.nan
        x[300:400, 0] = np.where(np.isfinite(x[300:400, 1]), 0.5, rng.standard_normal(100))
    panel = _panel_from_matrix(x)
    spec = pca_spectrum(panel, window=window, step=step)
    assert spec.as_dict() == pca_spectrum_per_window(panel, window=window, step=step).as_dict()
    assert len(spec.windows) < (600 - window) // step + 1
    assert len({len(w.assets) for w in spec.windows}) >= 2
    if tied:
        assert sum(w.eigenvalues == [1.0, 1.0] for w in spec.windows) >= 2


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(20, 300),
    n_cols=st.integers(2, 24),
    gaps=st.floats(0.0, 1.0 - _MIN_COVERAGE),  # the most pca_spectrum passes on
    offset=st.sampled_from([0.0, 1.0, 1e2]),
)
@settings(max_examples=300, deadline=None)
def test_pairwise_corr_matches_loop_oracle(seed, n_rows, n_cols, gaps, offset):
    """Gaps, offsets and mostly-zero columns; pairs with fewer than 2 common rows give 0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-4, 2, n_cols)
    sparse = rng.random(n_cols) < 0.3
    x[:, sparse] = np.where(rng.random((n_rows, sparse.sum())) < 0.85, 0.0, x[:, sparse])
    x[:, ~sparse] += offset * rng.uniform(-1.0, 1.0, n_cols - sparse.sum())
    x[rng.random(x.shape) < gaps] = np.nan
    got = _pairwise_corr(x)
    assert np.max(np.abs(got - pairwise_corr_loop(x))) <= 1e-12
    assert np.array_equal(got, got.T)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.sampled_from([1, 2, 3, 4, 7, 8, 251, 252, 599, 600, 601, 1000]),  # numpy's path changes at 600
    n_cols=st.integers(1, 6),
    pool=st.sampled_from(["continuous", "ties", "signed zeros"]),
    gaps=st.floats(0.0, 0.9),
)
@settings(max_examples=300, deadline=None)
def test_nanmedian_is_numpys_bit_for_bit(seed, n_rows, n_cols, pool, gaps):
    """Odd and even counts of non-NaN cells, ties, and medians of mixed +0.0 and -0.0, which numpy gives as +0.0."""
    rng = np.random.default_rng(seed)
    if pool == "continuous":
        x = rng.standard_normal((n_rows, n_cols))
    else:
        values = [-1.5, -0.0, 0.0, 0.5, 2.0] if pool == "ties" else [-0.0, 0.0]
        x = rng.choice(values, size=(n_rows, n_cols))
    kept = x[rng.integers(0, n_rows, n_cols), np.arange(n_cols)]
    x[rng.random(x.shape) < gaps] = np.nan
    x[rng.integers(0, n_rows, n_cols), np.arange(n_cols)] = kept  # no column is all NaN
    assert np.array_equal(_nanmedian(x).view(np.int64), np.nanmedian(x, axis=0).view(np.int64))


def test_pairwise_corr_degenerate_pairs_are_zero():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((60, 5)) * 0.01
    x[::3, 0] = 13.37  # constant where column 1 has data: a non-dyadic value, off the centre
    x[1::3, 1] = np.nan
    x[2::3, 1] = np.nan
    x[1, 2] = np.nan
    x[1:, 3] = np.nan  # one row: fewer than 2 rows in common with any column
    x[:30, 4] = np.nan
    x[30:, 1] = np.nan  # columns 1 and 4 share no row
    corr = _pairwise_corr(x)
    assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
    assert np.all(corr[3, [0, 1, 2, 4]] == 0.0) and corr[1, 4] == 0.0
    assert corr[0, 2] != 0.0
    assert np.max(np.abs(corr - pairwise_corr_loop(x))) <= 1e-12


def _expected_singular(panel: Panel, window: int, step: int) -> str | None:
    for start in range(0, panel.dates.size - window + 1, step):
        block = panel.values[start : start + window]
        cols = np.flatnonzero(np.isfinite(block).sum(axis=0) / window >= _MIN_COVERAGE)
        if cols.size < 2:
            continue
        c = first_constant_column_ptp(block[:, cols])
        if c is not None:
            return f"{panel.assets[cols[c]]} is constant in the window ending {panel.dates[start + window - 1]}"
    return None


@given(seed=st.integers(0, 2**32 - 1), n_cols=st.integers(2, 6), n_flat=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_pca_constant_column_check_matches_ptp_oracle(seed, n_cols, n_flat):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((120, n_cols))
    for _ in range(n_flat):
        c, start = rng.integers(n_cols), rng.integers(0, 100)
        x[start : start + rng.integers(30, 90), c] = rng.choice([0.0, 0.1, -2.5])
    x[rng.random(x.shape) < 0.15] = np.nan
    panel = _panel_from_matrix(x)
    want = _expected_singular(panel, 40, 10)
    if want is None:
        pca_spectrum(panel, window=40, step=10)
    else:
        with pytest.raises(SingularWindow) as exc:
            pca_spectrum(panel, window=40, step=10)
        assert str(exc.value) == want


def test_pairwise_corr_mostly_zero_column_keeps_digits():
    """A spike off the common rows must not set the centre of a mostly-zero column."""
    rng = np.random.default_rng(8)
    x = np.zeros((100, 2))
    x[:, 0] = rng.standard_normal(100)
    x[rng.choice(90, 8, replace=False), 1] = rng.standard_normal(8) * 1e-6
    x[95, 1] = 1.0
    x[90:, 0] = np.nan
    assert np.max(np.abs(_pairwise_corr(x) - pairwise_corr_loop(x))) <= 1e-12
