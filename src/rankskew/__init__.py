"""Ranked-amplitude P&L analytics for risk-premium strategies.

The toolkit implements the ranked-amplitude representation of a return
stream, the zeta* skewness it induces, synthetic heavy-tailed oracles
that make every estimator checkable without market data, generic
long-short/decile portfolio construction, and the cross-sectional
Sharpe-vs-skewness regression with its risk-premium/pure-alpha
classification.
"""

from .analysis import (
    CrossSection,
    CrossSectionRow,
    PcaSpectrum,
    RegressionResult,
    WindowSpectrum,
    cross_section_stats,
    pca_spectrum,
)
from .errors import (
    CsvFormatError,
    DegenerateX,
    DuplicateLabel,
    InsufficientOverlap,
    InvalidParams,
    IOWrite,
    MissingRate,
    MomentDoesNotExist,
    NegativeDensity,
    NonFiniteValue,
    RankSkewError,
    ShapeMismatch,
    SignChangeInWindow,
    SingularWindow,
    TooFewAssets,
    TooFewPoints,
    TooFewRows,
    TooShort,
    UnsortedDates,
    WrongPeriod,
    ZeroVariance,
)
from .io import (
    read_cross_section,
    read_panel,
    read_series,
    write_curve_csv,
    write_fig10_csv,
    write_json,
    write_panel,
    write_scatter_csv,
    write_series,
)
from .portfolio import (
    DecileRow,
    DecileTable,
    Panel,
    carry_pairs,
    decile_table,
    long_short,
    rank_buckets,
)
from .series import (
    PERIOD_DT,
    PERIODS_PER_YEAR,
    PerfStats,
    ReturnSeries,
    aggregate_monthly,
    perf_stats,
    risk_manage,
    standardize,
    symmetrize,
)
from .skew import (
    EDGEWORTH_ZETA_STAR_COEFF,
    RankedPnlCurve,
    SkewReport,
    classical_moments,
    co_skewness,
    crossing_count,
    mean_minus_median,
    ranked_pnl,
    skew_report,
    skew_reports,
    small_p_exponent,
    zeta_star,
)
from .synth import (
    AsymmetricStudentT,
    EdgeworthDensity,
    Fig10Row,
    ast_density,
    ast_sample,
    ast_zeta3_exact,
    ast_zeta_star_exact,
    edgeworth_density,
    edgeworth_sample,
    edgeworth_zeta_star_exact,
    fig10_sweep,
    gaussian_sample,
)

__version__ = "0.1.0"
