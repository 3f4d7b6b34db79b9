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


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankskew",
        description="Ranked-amplitude P&L and skewness analytics for strategy returns.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # flags several commands share, each declared once
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=".", help="directory for output artifacts")
    period = argparse.ArgumentParser(add_help=False)
    period.add_argument("--period", choices=["daily", "monthly"], default="daily", help="sampling period of the series")
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("--kind", choices=["return", "price"], default="return", help="interpret values as returns or prices")
    bootstrap = argparse.ArgumentParser(add_help=False)
    bootstrap.add_argument("--bootstrap", type=int, default=1000, help="bootstrap replicates for error bars")

    p = sub.add_parser("analyze", help="full skewness report plus ranked-P&L curve for one series",
                       parents=[kind, period, bootstrap, out_dir])
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("input", help="series CSV (date,value)")
    p.add_argument("--benchmark", default=None,
                   help="benchmark series CSV for co-skewness, read with the input's --kind and --period")
    p.add_argument("--seed", type=_seed, required=True, help="seed for the bootstrap and symmetrized curve")

    p = sub.add_parser("rankplot", parents=[kind, out_dir], help="ranked-P&L curve CSV (p,F,F_sym) for one series")
    # no curve value is annualized: the period the series is read with acts on nothing
    p.set_defaults(run=_cmd_rankplot, period="daily")
    p.add_argument("input", help="series CSV (date,value)")
    p.add_argument("--seed", type=_seed, required=True, help="seed for the symmetrized twin")

    p = sub.add_parser("synth", help="emit synthetic samples as a series CSV")
    p.set_defaults(run=_cmd_synth)
    families = p.add_subparsers(dest="dist", required=True, metavar="family", help="distribution family")
    draw = argparse.ArgumentParser(add_help=False)
    draw.add_argument("--n", type=int, required=True, help="number of samples")
    draw.add_argument("--seed", type=_seed, required=True, help="sampler seed")
    draw.add_argument("--out", required=True, help="output CSV path")
    # each family supplies its sampler, as each command supplies its run
    f = families.add_parser("ast", parents=[draw], help="asymmetric Student-t with tail exponents nu+ and nu-")
    f.set_defaults(sample=lambda a: ast_sample(a.n, AsymmetricStudentT(nu_plus=a.nu_plus, nu_minus=a.nu_minus), a.seed))
    f.add_argument("--nu-plus", type=float, required=True, help="right tail exponent")
    f.add_argument("--nu-minus", type=float, required=True, help="left tail exponent")
    f = families.add_parser("edgeworth", parents=[draw], help="Hermite-corrected Gaussian")
    f.set_defaults(sample=lambda a: edgeworth_sample(a.n, a.zeta3, a.kurt, a.seed))
    f.add_argument("--zeta3", type=float, required=True, help="target skewness")
    f.add_argument("--kurt", type=float, default=0.0, help="target excess kurtosis")
    f = families.add_parser("gaussian", parents=[draw], help="standard normal")
    f.set_defaults(sample=lambda a: gaussian_sample(a.n, a.seed))

    p = sub.add_parser("fig10", help="quadrature sweep of zeta3 and zeta* over right-tail exponents")
    p.set_defaults(run=_cmd_fig10)
    p.add_argument("--nu-minus", type=float, default=3.5, help="fixed left tail exponent")
    p.add_argument("--nu-plus-grid", default="3.2,3.5,4,5,7,10", help="comma-separated right tail exponents")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("deciles", parents=[out_dir], help="signal-ranked bucket portfolios and their decile table")
    p.set_defaults(run=_cmd_deciles)
    p.add_argument("--returns", required=True, help="returns panel CSV (date,asset,value)")
    p.add_argument("--signal", required=True, help="signal panel CSV (date,asset,value)")
    p.add_argument("--buckets", type=int, default=10, help="number of buckets")
    p.add_argument("--rebalance", choices=["daily", "monthly"], default="monthly", help="rebalance frequency")

    p = sub.add_parser("carry", parents=[out_dir], help="FX carry pair returns and signal panels from spot and rate panels")
    p.set_defaults(run=_cmd_carry)
    p.add_argument("--spot", required=True, help="spot price panel CSV (date,asset,value)")
    p.add_argument("--rates", required=True, help="annualized rate panel CSV (date,asset,value)")

    p = sub.add_parser("regress", parents=[out_dir], help="Sharpe-vs-skewness regression and classification")
    p.set_defaults(run=_cmd_regress)
    p.add_argument("input", help="cross-section CSV (name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit)")

    p = sub.add_parser("pca", parents=[out_dir], help="rolling eigenvalue spectrum of the strategy correlation matrix")
    p.set_defaults(run=_cmd_pca)
    p.add_argument("input", help="strategy returns panel CSV (date,asset,value)")
    p.add_argument("--window", type=int, default=252, help="window length in periods")
    p.add_argument("--step", type=int, default=21, help="step between windows")

    p = sub.add_parser("report", help="batch: analyze several series and bundle one JSON report",
                       parents=[period, bootstrap, out_dir])
    # no --kind: every series is read as returns
    p.set_defaults(run=_cmd_report, kind="return")
    p.add_argument("--series", action="append", required=True, help="series CSV, repeatable")
    p.add_argument("--seed", type=_seed, required=True, help="seed for bootstraps and symmetrized curves")
    return parser


class _Outputs:
    """Tracks files written by a command so failures leave no partials; --out-dir is created at the first write."""

    def __init__(self, out_dir: str | None) -> None:
        self.out_dir = out_dir
        self.paths: list[str] = []
        self.dirs: list[str] = []

    def add(self, name: str) -> str:
        if self.out_dir is not None:
            # the ancestors makedirs is about to create, found by its own walk up the path
            d = self.out_dir
            while d and not os.path.exists(d):
                self.dirs.append(d)
                head, tail = os.path.split(d)
                d = head if tail else os.path.dirname(head)
            os.makedirs(self.out_dir, exist_ok=True)
            name = os.path.join(self.out_dir, name)
        self.paths.append(name)
        return name

    def discard(self) -> None:
        # the files, then the directories add created, deepest first: rmdir removes a directory only if it is empty
        for remove, p in [(os.remove, p) for p in self.paths] + [(os.rmdir, d) for d in self.dirs]:
            try:
                remove(p)
            except OSError:
                pass


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _write_curve(path: str, args, out: _Outputs, p_texts: dict[int, list[str]] | None = None) -> ReturnSeries:
    """Read one series and write its {stem}_ranked_pnl.csv."""
    series = rio.read_series(path, kind=args.kind, period=args.period)
    curve = ranked_pnl(series, "raw")
    sym = ranked_pnl(symmetrize(series, args.seed))
    rio.write_curve_csv(out.add(f"{_stem(path)}_ranked_pnl.csv"), curve, sym, p_texts=p_texts)
    return series


def _skew_reports(paths: list[str], args, out: _Outputs, step) -> tuple[list, list]:
    """Skew reports of the series at `paths`, and `step` of each series.

    One series at a time: read it and write its curve, let `skew_reports` check
    it, then run `step` on it, so every step has run before the bootstrap.
    Curves of one length share one text of their p column.
    """
    steps = []
    p_texts: dict[int, list[str]] = {}

    def each_series():
        for path in paths:
            series = _write_curve(path, args, out, p_texts)
            yield series
            steps.append(step(series))

    return skew_reports(each_series(), bootstrap=args.bootstrap, seed=args.seed), steps


def _cmd_analyze(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    def coskew_of(series: ReturnSeries) -> dict:
        if not args.benchmark:
            return {}
        return {"coskew": co_skewness(series, rio.read_series(args.benchmark, kind=args.kind, period=args.period))}

    (report,), (coskew,) = _skew_reports([args.input], args, out, coskew_of)
    rio.write_json(out.add(f"{_stem(args.input)}_skew_report.json"), {**report.as_dict(), **coskew})


def _cmd_rankplot(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    _write_curve(args.input, args, out)


def _cmd_synth(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    rio.write_series(out.add(args.out), args.sample(args))


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
    returns = rio.read_panel(args.returns)
    signal = rio.read_panel(args.signal)
    buckets = rank_buckets(returns, signal, n_buckets=args.buckets, rebalance=args.rebalance)
    table = decile_table(buckets)
    rio.write_decile_csv(out.add("deciles.csv"), table)


def _cmd_carry(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    spot = rio.read_panel(args.spot)
    rates = rio.read_panel(args.rates)
    returns, signal = carry_pairs(spot, rates)
    rio.write_panel(out.add("carry_returns.csv"), returns)
    rio.write_panel(out.add("carry_signal.csv"), signal)


def _cmd_regress(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    cs = rio.read_cross_section(args.input)
    result = cross_section_stats(cs)
    rio.write_json(out.add("regression.json"), result.as_dict())
    rio.write_scatter_csv(out.add("scatter.csv"), cs, result)


def _cmd_pca(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    panel = rio.read_panel(args.input)
    spectrum = pca_spectrum(panel, window=args.window, step=args.step)
    rio.write_json(out.add("pca.json"), spectrum.as_dict())


def _cmd_report(args, parser: argparse.ArgumentParser, out: _Outputs) -> None:
    stems = [_stem(p) for p in args.series]
    for stem in stems:
        if stems.count(stem) > 1:
            parser.error(f"--series files need distinct names: {stem!r} repeats")
    reports, stats = _skew_reports(args.series, args, out, perf_stats)
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
        rio.write_scatter_csv(out.add("scatter.csv"), cs, regression)
    rio.write_json(out.add("report.json"), doc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Outputs(getattr(args, "out_dir", None))
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
