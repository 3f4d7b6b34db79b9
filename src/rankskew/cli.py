"""Command-line front end for reproducible batch runs.

Every randomized command takes an explicit --seed (no wall-clock
defaults); identical invocations produce byte-identical outputs. Exit
codes: 0 success, 1 data/validation error (message names the offending
file and row), 2 usage error. Partially written outputs are removed on
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import io as rio
from .analysis import CrossSection, CrossSectionRow, cross_section_stats, pca_spectrum
from .errors import RankSkewError
from .portfolio import carry_pairs, decile_table, rank_buckets
from .series import ReturnSeries, perf_stats, symmetrize
from .skew import co_skewness, ranked_pnl, skew_reports
from .synth import (
    AsymmetricStudentT,
    ast_sample,
    edgeworth_sample,
    fig10_sweep,
    gaussian_sample,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankskew",
        description="Ranked-amplitude P&L and skewness analytics for strategy returns.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("analyze", help="full skewness report plus ranked-P&L curve for one series")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("input", help="series CSV (date,value)")
    p.add_argument("--kind", choices=["return", "price"], default="return", help="interpret values as returns or prices")
    p.add_argument("--period", choices=["daily", "monthly"], default="daily", help="sampling period of the series")
    p.add_argument("--benchmark", help="benchmark series CSV for co-skewness", default=None)
    p.add_argument("--bootstrap", type=int, default=1000, help="bootstrap replicates for error bars")
    p.add_argument("--seed", type=int, required=True, help="seed for the bootstrap and symmetrized curve")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")

    p = sub.add_parser("rankplot", help="ranked-P&L curve CSV (p,F,F_sym) for one series")
    p.set_defaults(run=_cmd_rankplot)
    p.add_argument("input", help="series CSV (date,value)")
    p.add_argument("--kind", choices=["return", "price"], default="return", help="interpret values as returns or prices")
    p.add_argument("--period", choices=["daily", "monthly"], default="daily", help="sampling period of the series")
    p.add_argument("--seed", type=int, required=True, help="seed for the symmetrized twin")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")

    p = sub.add_parser("synth", help="emit synthetic samples as a series CSV")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("dist", choices=["ast", "edgeworth", "gaussian"], help="distribution family")
    p.add_argument("--nu-plus", type=float, default=None, help="right tail exponent (ast)")
    p.add_argument("--nu-minus", type=float, default=None, help="left tail exponent (ast)")
    p.add_argument("--zeta3", type=float, default=None, help="target skewness (edgeworth)")
    p.add_argument("--kurt", type=float, default=0.0, help="target excess kurtosis (edgeworth)")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, required=True, help="sampler seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("fig10", help="quadrature sweep of zeta3 and zeta* over right-tail exponents")
    p.set_defaults(run=_cmd_fig10)
    p.add_argument("--nu-minus", type=float, default=3.5, help="fixed left tail exponent")
    p.add_argument("--nu-plus-grid", default="3.2,3.5,4,5,7,10", help="comma-separated right tail exponents")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("deciles", help="signal-ranked bucket portfolios and their decile table")
    p.set_defaults(run=_cmd_deciles)
    p.add_argument("--returns", required=True, help="returns panel CSV (date,asset,value)")
    p.add_argument("--signal", required=True, help="signal panel CSV (date,asset,value)")
    p.add_argument("--buckets", type=int, default=10, help="number of buckets")
    p.add_argument("--rebalance", choices=["daily", "monthly"], default="monthly", help="rebalance frequency")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")

    p = sub.add_parser("carry", help="FX carry pair returns and signal panels from spot and rate panels")
    p.set_defaults(run=_cmd_carry)
    p.add_argument("--spot", required=True, help="spot price panel CSV (date,asset,value)")
    p.add_argument("--rates", required=True, help="annualized rate panel CSV (date,asset,value)")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")

    p = sub.add_parser("regress", help="Sharpe-vs-skewness regression and classification")
    p.set_defaults(run=_cmd_regress)
    p.add_argument("input", help="cross-section CSV (name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit)")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")

    p = sub.add_parser("pca", help="rolling eigenvalue spectrum of the strategy correlation matrix")
    p.set_defaults(run=_cmd_pca)
    p.add_argument("input", help="strategy returns panel CSV (date,asset,value)")
    p.add_argument("--window", type=int, default=252, help="window length in periods")
    p.add_argument("--step", type=int, default=21, help="step between windows")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")

    p = sub.add_parser("report", help="batch: analyze several series and bundle one JSON report")
    p.set_defaults(run=_cmd_report)
    p.add_argument("--series", action="append", required=True, help="series CSV, repeatable")
    p.add_argument("--period", choices=["daily", "monthly"], default="daily", help="sampling period of the series")
    p.add_argument("--bootstrap", type=int, default=1000, help="bootstrap replicates for error bars")
    p.add_argument("--seed", type=int, required=True, help="seed for bootstraps and symmetrized curves")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")
    return parser


class _Outputs:
    """Tracks files written by a command so failures leave no partials."""

    def __init__(self) -> None:
        self.paths: list[str] = []

    def add(self, path: str) -> str:
        self.paths.append(path)
        return path

    def discard(self) -> None:
        for p in self.paths:
            try:
                os.remove(p)
            except OSError:
                pass


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _write_curve(path: str, kind: str, args, out: _Outputs) -> ReturnSeries:
    """Read one series and write its {stem}_ranked_pnl.csv."""
    os.makedirs(args.out_dir, exist_ok=True)
    series = rio.read_series(path, kind=kind, period=args.period)
    curve = ranked_pnl(series, "raw")
    sym = ranked_pnl(symmetrize(series, args.seed))
    rio.write_curve_csv(out.add(os.path.join(args.out_dir, f"{_stem(path)}_ranked_pnl.csv")), curve, sym)
    return series


def _cmd_analyze(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    read = []

    def one_series():
        # like report: skew_reports checks --bootstrap before this reads or writes anything
        series = _write_curve(args.input, args.kind, args, out)
        benchmark = rio.read_series(args.benchmark, period=args.period) if args.benchmark else None
        read.append((series, benchmark))
        yield series

    (report,) = skew_reports(one_series(), bootstrap=args.bootstrap, seed=args.seed)
    series, benchmark = read[0]
    if benchmark is not None:
        report = replace(report, coskew=co_skewness(series, benchmark))
    rio.write_json(out.add(os.path.join(args.out_dir, f"{_stem(args.input)}_skew_report.json")), report.as_dict())


def _cmd_rankplot(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    _write_curve(args.input, args.kind, args, out)


def _cmd_synth(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    if args.dist == "ast":
        if args.nu_plus is None or args.nu_minus is None:
            parser.error("synth ast requires --nu-plus and --nu-minus")
        dist = AsymmetricStudentT(nu_plus=args.nu_plus, nu_minus=args.nu_minus)
        series = ast_sample(args.n, dist, args.seed)
    elif args.dist == "edgeworth":
        if args.zeta3 is None:
            parser.error("synth edgeworth requires --zeta3")
        series = edgeworth_sample(args.n, args.zeta3, args.kurt, args.seed)
    else:
        series = gaussian_sample(args.n, args.seed)
    rio.write_series(out.add(args.out), series)


def _cmd_fig10(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    try:
        grid = [float(tok) for tok in args.nu_plus_grid.split(",") if tok.strip()]
    except ValueError:
        grid = []
    if not grid:
        parser.error(f"bad --nu-plus-grid {args.nu_plus_grid!r}")
    rows = fig10_sweep(nu_minus=args.nu_minus, nu_plus_grid=grid)
    rio.write_fig10_csv(out.add(args.out), rows)


def _cmd_deciles(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    returns = rio.read_panel(args.returns)
    signal = rio.read_panel(args.signal)
    buckets = rank_buckets(returns, signal, n_buckets=args.buckets, rebalance=args.rebalance)
    table = decile_table(buckets)
    rio.write_decile_csv(out.add(os.path.join(args.out_dir, "deciles.csv")), table)


def _cmd_carry(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    spot = rio.read_panel(args.spot)
    rates = rio.read_panel(args.rates)
    returns, signal = carry_pairs(spot, rates)
    rio.write_panel(out.add(os.path.join(args.out_dir, "carry_returns.csv")), returns)
    rio.write_panel(out.add(os.path.join(args.out_dir, "carry_signal.csv")), signal)


def _cmd_regress(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    cs = rio.read_cross_section(args.input)
    result = cross_section_stats(cs)
    rio.write_json(out.add(os.path.join(args.out_dir, "regression.json")), result.as_dict())
    rio.write_scatter_csv(out.add(os.path.join(args.out_dir, "scatter.csv")), cs, result)


def _cmd_pca(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    panel = rio.read_panel(args.input)
    spectrum = pca_spectrum(panel, window=args.window, step=args.step)
    rio.write_json(out.add(os.path.join(args.out_dir, "pca.json")), spectrum.as_dict())


def _cmd_report(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    stems = [_stem(p) for p in args.series]
    for stem in stems:
        if stems.count(stem) > 1:
            parser.error(f"--series files need distinct names: {stem!r} repeats")
    stats = []

    def each_series():
        # one series at a time: read it and write its curve, let skew_reports check it, then take its stats
        for path in args.series:
            series = _write_curve(path, "return", args, out)
            yield series
            stats.append(perf_stats(series))

    reports = skew_reports(each_series(), bootstrap=args.bootstrap, seed=args.seed)
    rows = [
        CrossSectionRow(
            name=rep.label,
            sharpe=st.sharpe,
            ann_vol=st.ann_vol,
            zeta_star=rep.zeta_star,
            err_sharpe=rep.err_sharpe,
            err_zeta_star=rep.err_zeta_star,
        )
        for rep, st in zip(reports, stats)
    ]
    doc = {
        "skew_reports": [rep.as_dict() for rep in reports],
        "provenance": {
            "series": [os.path.basename(p) for p in args.series],
            "seed": args.seed,
            "bootstrap": args.bootstrap,
        },
    }
    if len(rows) >= 3:
        cs = CrossSection(rows=rows)
        regression = cross_section_stats(cs)
        doc["regression"] = regression.as_dict()
        rio.write_scatter_csv(out.add(os.path.join(args.out_dir, "scatter.csv")), cs, regression)
    rio.write_json(out.add(os.path.join(args.out_dir, "report.json")), doc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Outputs()
    try:
        args.run(args, parser, out)
    except (RankSkewError, OSError) as exc:
        out.discard()
        print(f"rankskew: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        out.discard()
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
