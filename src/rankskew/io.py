"""CSV/JSON ingestion and byte-stable export.

One function, _write_csv, writes every CSV a block of rows at a time:
each float as repr(), the shortest decimal that round-trips to the same
float64, and '\\n' newlines, so identical inputs and seeds produce
byte-identical artifacts. A failed write raises IOWrite naming the file.
A column may also come as text already formatted, such as the p = k/N
column that the curves of one length share (see write_curve_csv).

Series and panel CSVs are read a block of rows at a time. A file in the
canonical dialect, the one _write_csv produces, is parsed a column at a
time: the exact header, ASCII without quotes or whitespace other than
'\\n', and the header's field count on every line. Any other file, and
any file with a bad row, is read again by the row scanner, which also
takes csv-module quoting, CRLF, blank lines, padded tokens and extra
columns, and names the file and line of the first bad row. Every CSV is
UTF-8; a file that is not names the first line that fails to decode.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from itertools import islice, repeat
from typing import Iterable, Iterator, TextIO

import numpy as np

from .analysis import CrossSection, CrossSectionRow, RegressionResult
from .errors import CsvFormatError, InvalidParams, IOWrite
from .portfolio import Panel
from .series import Period, ReturnSeries
from .skew import RankedPnlCurve

# Fixed sizes, not options: whole-file parsing costs memory on long series
# for no gain in speed.
_BLOCK_CHARS = 1 << 16  # readlines() hint: characters parsed per block
_WRITE_ROWS = 2048  # rows formatted per write

# The characters of the canonical dialect: '\n' and the printable ASCII
# characters other than ' ' and '"'.
_CANONICAL = bytes([ord("\n"), ord("!"), *range(ord("#"), ord("~") + 1)])

# The header of each CSV file, shared by its reader, row scanner and writer.
_SERIES_HEADER = "date,value"
_PANEL_HEADER = "date,asset,value"
_CS_HEADER = "name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit"
_SCATTER_HEADER = "name,neg_zeta_star,sharpe,err_x,err_y,class"
_CURVE_HEADER = "p,F,F_sym"
_FIG10_HEADER = "nu_plus,zeta3,zeta_star"
_DECILE_HEADER = "bucket,vol_pct,zeta_star,sharpe"


def _check_labels(path: str, labels: Iterable[str]) -> None:
    """Raise IOWrite for a label the unquoted dialect cannot hold."""
    for label in labels:
        if any(ch in label for ch in ',"\r\n'):
            raise IOWrite(f"cannot write {path}: label {label!r} contains a comma, quote or line break")


@contextmanager
def _writing(path: str) -> Iterator[TextIO]:
    """`path` open to write UTF-8 text; an OSError is raised as IOWrite naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise IOWrite(f"cannot write {path}: {exc}") from exc


def _fields(block) -> list[str]:
    """The text of a column block. A list of str is text already and is itself. A float is
    the repr of a Python float (numpy 2's repr of an np.float64 is 'np.float64(...)'); in a
    column of objects a str is itself and None an empty field; a column of another dtype,
    such as datetime64[D] or integers, is str."""
    if isinstance(block, list) and block and isinstance(block[0], str):
        return block
    block = np.asarray(block)
    if block.dtype.kind == "f":
        return list(map(repr, block.tolist()))
    if block.dtype == object:
        return [x if isinstance(x, str) else "" if x is None else repr(float(x)) for x in block.tolist()]
    return block.astype(str).tolist()


def _write_csv(path: str, header: str, *columns) -> None:
    """Write `header` and a row per index of the equal-length `columns`, _WRITE_ROWS rows per write."""
    with _writing(path) as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _WRITE_ROWS):
            text = [_fields(c[i : i + _WRITE_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


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
        x = float(token)
    except ValueError:
        raise CsvFormatError(path, line, f"bad {what} {token!r}") from None
    if not math.isfinite(x):
        raise CsvFormatError(path, line, f"non-finite {what} {token!r}")
    return x


def _open_text(path: str):
    """Open a file to read as UTF-8, newlines untranslated."""
    return open(path, encoding="utf-8", newline="")


@contextmanager
def _utf8(path: str) -> Iterator[None]:
    """Turn a decode error while reading `path` into a CsvFormatError at the
    first line that is not UTF-8 (no UTF-8 sequence holds a newline byte)."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for line, raw in enumerate(fh, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CsvFormatError(path, line, f"not UTF-8 text: {exc.reason}") from None
        raise


# ---------------------------------------------------------------------------
# Row scanner: every dialect, and the line of the first bad row
# ---------------------------------------------------------------------------


def _scan(path: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) for each non-blank row after the header.

    The header must begin with the fields of `header`, ignoring case and
    padding. A row with fewer fields, and any error of the csv module (such
    as a field over `csv.field_size_limit()`), raises CsvFormatError.
    """
    names = header.split(",")
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [c.strip().lower() for c in first[: len(names)]] != names:
                raise CsvFormatError(path, 1, f"expected header '{header}'")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < len(names):
                    raise CsvFormatError(path, reader.line_num, f"expected {len(names)} columns")
                yield reader.line_num, row
        except csv.Error as exc:
            raise CsvFormatError(path, reader.line_num, str(exc)) from None


def _scan_series(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(dates, values) of any date,value file, row by row."""
    dates: list[np.datetime64] = []
    values: list[float] = []
    for line, row in _scan(path, _SERIES_HEADER):
        d = _parse_date(row[0], path, line)
        if dates and d <= dates[-1]:
            raise CsvFormatError(path, line, f"date {d} is not after {dates[-1]}")
        dates.append(d)
        values.append(_parse_float(row[1], path, line))
    return np.array(dates, dtype="datetime64[D]"), np.array(values, dtype=np.float64)


def _scan_panel(path: str) -> tuple[np.ndarray, list[str], np.ndarray]:
    """(dates, assets, values grid) of any date,asset,value file, row by row."""
    cells: dict[tuple[np.datetime64, str], float] = {}
    assets: dict[str, None] = {}
    for line, row in _scan(path, _PANEL_HEADER):
        d = _parse_date(row[0], path, line)
        a = row[1].strip()
        if not a:
            raise CsvFormatError(path, line, "empty asset label")
        if (d, a) in cells:
            raise CsvFormatError(path, line, f"duplicate cell {a}@{d}")
        cells[d, a] = _parse_float(row[2], path, line)
        assets.setdefault(a)
    if not cells:
        raise CsvFormatError(path, 1, "no data rows")
    dates = np.array(sorted({d for d, _ in cells}), dtype="datetime64[D]")
    values = np.full((dates.size, len(assets)), np.nan)
    col = {a: i for i, a in enumerate(assets)}
    pos = {d: i for i, d in enumerate(dates.tolist())}
    for (d, a), v in cells.items():
        values[pos[d.tolist()], col[a]] = v
    return dates, list(assets), values


# ---------------------------------------------------------------------------
# Column parser: canonical files, a block at a time
# ---------------------------------------------------------------------------


def _column_blocks(fh, ncol: int) -> Iterator[list[list[str]] | None]:
    """Yield the rest of `fh` in blocks of about _BLOCK_CHARS characters,
    each as `ncol` lists of column tokens. Yield None and stop at the first
    block outside the canonical dialect, or with a line the csv module would
    refuse as too long."""
    while lines := fh.readlines(_BLOCK_CHARS):
        text = "".join(lines)
        if (
            not text.isascii()
            or text.encode("ascii").translate(None, _CANONICAL)
            or len(text) > csv.field_size_limit()
            or set(map(str.count, lines, repeat(","))) != {ncol - 1}
        ):
            yield None
            return
        tokens = text.replace("\n", ",").split(",")
        if text.endswith("\n"):
            tokens.pop()
        yield [tokens[j::ncol] for j in range(ncol)]


def _iso_days(tokens: list[str]) -> np.ndarray:
    """Tokens of the form YYYY-MM-DD as datetime64[D]; ValueError otherwise."""
    text = "".join(tokens)
    n = len(tokens)
    if set(map(len, tokens)) - {10} or text[4::10].count("-") != n or text[7::10].count("-") != n:
        raise ValueError("date not of the form YYYY-MM-DD")
    return np.array(tokens, dtype="datetime64[D]")


def _codes(code: dict[str, int], tokens: list[str]) -> np.ndarray:
    """Integer code of each token; a new token gets the next code."""
    for t in dict.fromkeys(tokens):
        code.setdefault(t, len(code))
    return np.array(list(map(code.__getitem__, tokens)), dtype=np.int64)


def _parse_series(path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(dates, values) of a canonical date,value file; None for any other file."""
    dates = [np.empty(0, dtype="datetime64[D]")]
    values = [np.empty(0)]
    with _open_text(path) as fh:
        if fh.readline() != _SERIES_HEADER + "\n":
            return None
        for block in _column_blocks(fh, 2):
            if block is None:
                return None
            try:
                dates.append(_iso_days(block[0]))
                values.append(np.fromiter(map(float, block[1]), np.float64, len(block[1])))
            except ValueError:
                return None
    d = np.concatenate(dates)
    del dates
    v = np.concatenate(values)
    del values
    if not (np.isfinite(v).all() and (d[1:] > d[:-1]).all()):
        return None
    return d, v


def _parse_panel(path: str) -> tuple[np.ndarray, list[str], np.ndarray] | None:
    """(dates, assets, values grid) of a canonical date,asset,value file;
    None for any other file."""
    date_code: dict[str, int] = {}
    asset_code: dict[str, int] = {}
    rows, cols, values = [], [], []
    with _open_text(path) as fh:
        if fh.readline() != _PANEL_HEADER + "\n":
            return None
        for block in _column_blocks(fh, 3):
            if block is None:
                return None
            try:
                values.append(np.fromiter(map(float, block[2]), np.float64, len(block[2])))
            except ValueError:
                return None
            rows.append(_codes(date_code, block[0]))
            cols.append(_codes(asset_code, block[1]))
    if not date_code or "" in asset_code:
        return None
    try:
        days = _iso_days(list(date_code))
    except ValueError:
        return None
    order = np.argsort(days)
    dates = days[order]
    row, col, value = np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    # two spellings of one day, a repeated cell or a non-finite value: the scanner says where
    if (
        (np.diff(dates.astype(np.int64)) == 0).any()
        or np.bincount(row * len(asset_code) + col).max() > 1
        or not np.isfinite(value).all()
    ):
        return None
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    grid = np.full((dates.size, len(asset_code)), np.nan)
    grid[rank[row], col] = value
    return dates, list(asset_code), grid


# ---------------------------------------------------------------------------
# Series CSV (columns: date,value)
# ---------------------------------------------------------------------------


def read_series(path: str, kind: str = "return", period: Period = "daily") -> ReturnSeries:
    """Load a date,value CSV as a return series labelled with the file's stem.

    kind "price" converts prices to arithmetic returns p_t/p_{t-1} - 1;
    "return" is passthrough.
    """
    if kind not in ("return", "price"):
        raise InvalidParams(f"unknown kind {kind!r}, expected 'return' or 'price'")
    with _utf8(path):
        d, v = _parse_series(path) or _scan_series(path)
    name = os.path.splitext(os.path.basename(path))[0]
    if kind == "price":
        if np.any(v[:-1] == 0.0):
            bad = int(np.flatnonzero(v[:-1] == 0.0)[0])
            line, _ = next(islice(_scan(path, _SERIES_HEADER), bad, None))
            raise CsvFormatError(path, line, "zero price cannot seed a return")
        v = v[1:] / v[:-1] - 1.0
        d = d[1:]
    return ReturnSeries(label=name, period=period, dates=d, values=v)


def write_series(path: str, s: ReturnSeries) -> None:
    _write_csv(path, _SERIES_HEADER, s.dates, s.values)


# ---------------------------------------------------------------------------
# Panel CSV (long format: date,asset,value)
# ---------------------------------------------------------------------------


def read_panel(path: str) -> Panel:
    """Load a long-format daily panel; a missing cell is an absent row."""
    with _utf8(path):
        dates, assets, values = _parse_panel(path) or _scan_panel(path)
    return Panel(dates=dates, assets=assets, values=values)


def write_panel(path: str, panel: Panel) -> None:
    _check_labels(path, panel.assets)
    rows, cols = np.nonzero(np.isfinite(panel.values))
    # each date is formatted once; the rows gather its text
    days = panel.dates.astype(str).astype(object)
    assets = np.array(panel.assets, dtype=object)
    _write_csv(path, _PANEL_HEADER, days[rows], assets[cols], panel.values[rows, cols])


# ---------------------------------------------------------------------------
# Cross-section CSV
# ---------------------------------------------------------------------------

_TRUTHY = {"1", "true", "yes"}
_FALSY = {"0", "false", "no"}


def read_cross_section(path: str) -> CrossSection:
    rows: list[CrossSectionRow] = []
    with _utf8(path):
        for line_no, row in _scan(path, _CS_HEADER):
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
    names = [r.name for r in cs.rows]
    _check_labels(path, names)
    numbers = zip(*((-r.zeta_star, r.sharpe, r.err_zeta_star, r.err_sharpe) for r in cs.rows))
    _write_csv(path, _SCATTER_HEADER, names, *numbers, [result.classifications[n] for n in names])


# ---------------------------------------------------------------------------
# Curves, tables, JSON
# ---------------------------------------------------------------------------


def write_curve_csv(
    path: str, curve: RankedPnlCurve, symmetrized: RankedPnlCurve, *, p_text: list[str] | None = None
) -> None:
    """Ranked-P&L plot data: columns p, F and the symmetrized twin's F_sym.

    Without `p_text` every column is formatted a block of rows at a time and
    no whole column of text is held. `p_text` is the text of p = k/N, which
    curves of one length share: an empty list is filled with it, and a
    filled one is written as it is.
    """
    if symmetrized.p.size != curve.p.size:
        raise IOWrite("curve and symmetrized curve differ in length")
    p, f, f_sym = (np.asarray(x, dtype=np.float64) for x in (curve.p, curve.f, symmetrized.f))
    if p_text is not None:
        if not p_text:
            p_text += _fields(p)
        if len(p_text) != p.size:
            raise IOWrite("curve and p text differ in length")
        p = p_text
    _write_csv(path, _CURVE_HEADER, p, f, f_sym)


def write_fig10_csv(path: str, rows) -> None:
    """The fig10 sweep, a Fig10Row's fields per row; a zeta3 that does not exist is an empty field."""
    rows = list(rows)
    _write_csv(path, _FIG10_HEADER, *([getattr(r, f) for r in rows] for f in _FIG10_HEADER.split(",")))


def write_decile_csv(path: str, table) -> None:
    _write_csv(path, _DECILE_HEADER, *([getattr(r, f) for r in table.rows] for f in _DECILE_HEADER.split(",")))


def write_json(path: str, obj) -> None:
    """Write `obj` as strict JSON; a NaN or infinity is refused with IOWrite before the file is opened."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise IOWrite(f"cannot write {path}: {exc}") from exc
    with _writing(path) as fh:
        fh.write(text + "\n")
