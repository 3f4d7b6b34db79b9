"""CSV/JSON ingestion and byte-stable export.

All numeric output is serialized with repr(), the shortest decimal that
round-trips to the same float64, and files always use '\\n' newlines, so
identical inputs and seeds produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable

import numpy as np

from .analysis import CrossSection, CrossSectionRow, RegressionResult
from .errors import CsvFormatError, IOWrite
from .portfolio import Panel
from .series import Period, RateSeries, ReturnSeries
from .skew import RankedPnlCurve, SkewReport


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_date(token: str, path: str, line: int) -> np.datetime64:
    token = token.strip()
    if len(token) != 10 or token[4] != "-" or token[7] != "-":
        raise CsvFormatError(path, line, f"bad date {token!r}, expected YYYY-MM-DD")
    try:
        return np.datetime64(token, "D")
    except ValueError:
        raise CsvFormatError(path, line, f"bad date {token!r}") from None


def _parse_float(token: str, path: str, line: int, what: str = "value") -> float:
    try:
        return float(token)
    except ValueError:
        raise CsvFormatError(path, line, f"bad {what} {token!r}") from None


# ---------------------------------------------------------------------------
# Series CSV (columns: date,value)
# ---------------------------------------------------------------------------


def read_series(
    path: str,
    kind: str = "return",
    period: Period = "daily",
    label: str | None = None,
):
    """Load a date,value CSV as a return, price or rate stream.

    kind "price" converts to arithmetic returns p_t/p_{t-1} - 1; "rate"
    yields a RateSeries of annualized fractions; "return" is passthrough.
    """
    if kind not in ("return", "price", "rate"):
        raise CsvFormatError(path, 0, f"unknown kind {kind!r}")
    dates: list[np.datetime64] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["date", "value"]:
            raise CsvFormatError(path, 1, "expected header 'date,value'")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise CsvFormatError(path, line_no, "expected two columns")
            dates.append(_parse_date(row[0], path, line_no))
            values.append(_parse_float(row[1], path, line_no))
    name = label if label is not None else os.path.splitext(os.path.basename(path))[0]
    d = np.array(dates, dtype="datetime64[D]")
    v = np.array(values)
    if kind == "rate":
        return RateSeries(label=name, dates=d, rates=v)
    if kind == "price":
        if np.any(v[:-1] == 0.0):
            bad = int(np.flatnonzero(v[:-1] == 0.0)[0])
            raise CsvFormatError(path, bad + 2, "zero price cannot seed a return")
        v = v[1:] / v[:-1] - 1.0
        d = d[1:]
    return ReturnSeries(label=name, period=period, dates=d, values=v)


def write_series(path: str, s: ReturnSeries) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("date,value\n")
        for d, v in zip(s.dates, s.values):
            fh.write(f"{d},{_fmt(v)}\n")


# ---------------------------------------------------------------------------
# Panel CSV (long format: date,asset,value)
# ---------------------------------------------------------------------------


def read_panel(path: str, period: Period = "daily") -> Panel:
    cells: dict[tuple[np.datetime64, str], float] = {}
    assets: list[str] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:3]] != ["date", "asset", "value"]:
            raise CsvFormatError(path, 1, "expected header 'date,asset,value'")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise CsvFormatError(path, line_no, "expected three columns")
            d = _parse_date(row[0], path, line_no)
            a = row[1].strip()
            if not a:
                raise CsvFormatError(path, line_no, "empty asset label")
            key = (d, a)
            if key in cells:
                raise CsvFormatError(path, line_no, f"duplicate cell {a}@{d}")
            cells[key] = _parse_float(row[2], path, line_no)
            if a not in seen:
                seen.add(a)
                assets.append(a)
    if not cells:
        raise CsvFormatError(path, 1, "no data rows")
    dates = np.array(sorted({d for d, _ in cells}), dtype="datetime64[D]")
    values = np.full((dates.size, len(assets)), np.nan)
    col = {a: i for i, a in enumerate(assets)}
    pos = {d: i for i, d in enumerate(dates.tolist())}
    for (d, a), v in cells.items():
        values[pos[d.tolist()], col[a]] = v
    return Panel(dates=dates, assets=assets, values=values, period=period)


def write_panel(path: str, panel: Panel) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("date,asset,value\n")
        for i, d in enumerate(panel.dates):
            for j, a in enumerate(panel.assets):
                v = panel.values[i, j]
                if np.isfinite(v):
                    fh.write(f"{d},{a},{_fmt(v)}\n")


# ---------------------------------------------------------------------------
# Cross-section CSV
# ---------------------------------------------------------------------------

_CS_HEADER = ["name", "sharpe", "vol", "zeta_star", "err_sharpe", "err_zeta_star", "fit"]
_TRUTHY = {"1", "true", "yes"}
_FALSY = {"0", "false", "no"}


def read_cross_section(path: str) -> CrossSection:
    rows: list[CrossSectionRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:7]] != _CS_HEADER:
            raise CsvFormatError(path, 1, f"expected header {','.join(_CS_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 7:
                raise CsvFormatError(path, line_no, "expected seven columns")
            flag = row[6].strip().lower()
            if flag not in _TRUTHY | _FALSY:
                raise CsvFormatError(path, line_no, f"bad fit flag {row[6]!r}")
            rows.append(
                CrossSectionRow(
                    name=row[0].strip(),
                    sharpe=_parse_float(row[1], path, line_no, "sharpe"),
                    ann_vol=_parse_float(row[2], path, line_no, "vol"),
                    zeta_star=_parse_float(row[3], path, line_no, "zeta_star"),
                    err_sharpe=_parse_float(row[4], path, line_no, "err_sharpe"),
                    err_zeta_star=_parse_float(row[5], path, line_no, "err_zeta_star"),
                    included_in_fit=flag in _TRUTHY,
                )
            )
    return CrossSection(rows=rows)


def write_scatter_csv(path: str, cs: CrossSection, result: RegressionResult) -> None:
    """Plot data for the Sharpe-vs-skewness scatter with the channel."""
    with open(path, "w", newline="\n") as fh:
        fh.write("name,neg_zeta_star,sharpe,err_x,err_y,class\n")
        for r in cs.rows:
            fh.write(
                f"{r.name},{_fmt(-r.zeta_star)},{_fmt(r.sharpe)},"
                f"{_fmt(r.err_zeta_star)},{_fmt(r.err_sharpe)},{result.classifications[r.name]}\n"
            )


# ---------------------------------------------------------------------------
# Curves, tables, JSON
# ---------------------------------------------------------------------------


def write_curve_csv(path: str, curve: RankedPnlCurve, symmetrized: RankedPnlCurve) -> None:
    """Ranked-P&L plot data: columns p, F and the symmetrized twin's F_sym."""
    if symmetrized.p.size != curve.p.size:
        raise IOWrite("curve and symmetrized curve differ in length")
    with open(path, "w", newline="\n") as fh:
        fh.write("p,F,F_sym\n")
        for p, f, g in zip(curve.p, curve.f, symmetrized.f):
            fh.write(f"{_fmt(p)},{_fmt(f)},{_fmt(g)}\n")


def write_fig10_csv(path: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("nu_plus,zeta3,zeta_star\n")
        for r in rows:
            z3 = "" if r.zeta3 is None else _fmt(r.zeta3)
            fh.write(f"{_fmt(r.nu_plus)},{z3},{_fmt(r.zeta_star)}\n")


def write_decile_csv(path: str, table) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("bucket,vol_pct,zeta_star,sharpe\n")
        for r in table.rows:
            fh.write(f"{r.bucket},{_fmt(r.vol_pct)},{_fmt(r.zeta_star)},{_fmt(r.sharpe)}\n")


def write_json(path: str, obj) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IOWrite(f"cannot write {path}: {exc}") from exc


def render_report(
    out_dir: str,
    *,
    skew_reports: Iterable[SkewReport] = (),
    regression: RegressionResult | None = None,
    cross_section: CrossSection | None = None,
    provenance: dict | None = None,
) -> list[str]:
    """Bundle analysis results into report.json plus plot-data CSVs.

    Sections without content are omitted from the JSON rather than
    emitted as nulls; output is byte-stable for fixed inputs and seeds.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    doc: dict = {}
    reports = list(skew_reports)
    if reports:
        doc["skew_reports"] = [r.as_dict() for r in reports]
    if regression is not None:
        doc["regression"] = regression.as_dict()
    if provenance:
        doc["provenance"] = provenance
    if regression is not None and cross_section is not None:
        scatter = os.path.join(out_dir, "scatter.csv")
        write_scatter_csv(scatter, cross_section, regression)
        written.append(scatter)
    report_path = os.path.join(out_dir, "report.json")
    write_json(report_path, doc)
    written.append(report_path)
    return written
