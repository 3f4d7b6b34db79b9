"""CSV/JSON ingestion and byte-stable export.

One function, _write_csv, writes every CSV a block of rows at a time:
each float as repr(), the shortest decimal that round-trips to the same
float64, and '\\n' newlines, so identical inputs and seeds produce
byte-identical artifacts. A failed write, and a NaN or infinity that no
reader would take back, raise IOWrite naming the file.
A column may also come as text already formatted, such as the p = k/N
column that the curves of one length share (see write_curve_csv).

Series and panel CSVs are read a block of rows at a time. A file in the
canonical dialect, the one _write_csv produces, is parsed a column at a
time: the exact header, ASCII without quotes or whitespace other than
'\\n', and the header's field count on every line. Any other file, and
any file with a bad row, is read again by the row scanner, which also
takes csv-module quoting, CRLF, blank lines, padded tokens and extra
columns, and names the file and line of the first bad row. Both panel
readers end in one grid builder, _grid, so the column parser itself reads
a day spelled two ways ('0001-01-01', '+001-01-01') as one. Every CSV is
UTF-8, read past a byte-order mark if it starts with one and written
without; a file that is not UTF-8 names the first line that fails to decode.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from itertools import islice
from typing import Iterable, Iterator, TextIO

import numpy as np

from .analysis import CrossSection, CrossSectionRow, RegressionResult
from .errors import CsvFormatError, InvalidParams, IOWrite, TooShort
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
# Every byte but the separators ',' and '\n': deleting these leaves a block's separators in order.
_NOT_SEPARATOR = bytes(range(256)).translate(None, b",\n")

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


# The first and last day whose text is the 10 characters of YYYY-MM-DD, the only dates the readers take.
_DAY_RANGE = np.array(["-999-01-01", "9999-12-31"], dtype="datetime64[D]")


def _check_days(path: str, days: np.ndarray) -> None:
    """Raise IOWrite for a day the readers would not take back: a year outside -999..9999 (or NaT).
    `days` ascend, as a series' and a panel's do, so only the ends are looked at."""
    for day in days[:1], days[-1:]:
        if day.size and not _DAY_RANGE[0] <= day[0] <= _DAY_RANGE[1]:
            raise IOWrite(f"cannot write {path}: date {day[0]} is not of the form YYYY-MM-DD (years -999 to 9999)")


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
    the repr of a Python float (numpy 2's repr of an np.float64 is 'np.float64(...)'); a
    column of objects holds floats and None, an empty field; a column of another dtype,
    such as datetime64[D] or integers, is str."""
    if isinstance(block, list) and block and isinstance(block[0], str):
        return block
    block = np.asarray(block)
    if block.dtype.kind == "f":
        return list(map(repr, block.tolist()))
    if block.dtype == object:
        return ["" if x is None else repr(float(x)) for x in block.tolist()]
    return block.astype(str).tolist()


def _finite(column) -> bool:
    """Whether every float of a column is finite. An array holds floats only if its dtype
    is float; a list of text holds none."""
    if isinstance(column, np.ndarray):
        return column.dtype.kind != "f" or bool(np.isfinite(column).all())
    if column and isinstance(column[0], str):
        return True
    return all(math.isfinite(x) for x in column if isinstance(x, float))


def _write_csv(path: str, header: str, *columns) -> None:
    """Write `header` and a row per index of the equal-length `columns`, _WRITE_ROWS rows per write.

    A NaN or infinity, which no reader takes back, is refused with IOWrite before the file is opened.
    """
    for name, column in zip(header.split(","), columns):
        if not _finite(column):
            raise IOWrite(f"cannot write {path}: non-finite value in column {name}")
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
    """Open a file to read as UTF-8 after any byte-order mark, newlines untranslated."""
    return open(path, encoding="utf-8-sig", newline="")


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
    days: list[np.datetime64] = []
    assets: dict[str, int] = {}
    cols: list[int] = []
    values: list[float] = []
    seen: set[tuple[np.datetime64, str]] = set()
    for line, row in _scan(path, _PANEL_HEADER):
        d = _parse_date(row[0], path, line)
        a = row[1].strip()
        if not a:
            raise CsvFormatError(path, line, "empty asset label")
        if (d, a) in seen:
            raise CsvFormatError(path, line, f"duplicate cell {a}@{d}")
        seen.add((d, a))
        values.append(_parse_float(row[2], path, line))
        days.append(d)
        cols.append(assets.setdefault(a, len(assets)))
    if not days:
        raise CsvFormatError(path, 1, "no data rows")
    return _grid(np.array(days, dtype="datetime64[D]"), list(assets), np.array(cols), np.array(values))


# ---------------------------------------------------------------------------
# Column parser: canonical files, a block at a time
# ---------------------------------------------------------------------------


def _column_blocks(path: str, header: str) -> Iterator[list[list[str]] | None]:
    """Yield the rows of `path` after the exact `header` line in blocks of
    about _BLOCK_CHARS characters, each as a list of column tokens per field
    of `header`. Yield None and stop at another header, at the first block
    outside the canonical dialect, or with a line the csv module would
    refuse as too long."""
    ncol = header.count(",") + 1
    separators = b"," * (ncol - 1) + b"\n"  # of one line
    with _open_text(path) as fh:
        if fh.readline() != header + "\n":
            yield None
            return
        while lines := fh.readlines(_BLOCK_CHARS):
            text = "".join(lines)
            raw = text.encode()  # a character outside ASCII is bytes outside the canonical dialect
            # the lines end at '\n' (any other line break is not canonical), so each has ncol - 1 commas
            # exactly when the block's separators are one line's, repeated, less a last line's missing '\n'
            expected = (separators * len(lines))[: None if raw.endswith(b"\n") else -1]
            if (
                raw.translate(None, _CANONICAL)
                or len(text) > csv.field_size_limit()
                or raw.translate(None, _NOT_SEPARATOR) != expected
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
    # the checked text as one buffer of 10-byte strings, parsed in C (a non-ASCII token is a ValueError too)
    return np.frombuffer(text.encode("ascii"), dtype="S10").astype("datetime64[D]")


def _grid(days: np.ndarray, assets: list[str], col: np.ndarray, values: np.ndarray) -> tuple | None:
    """(dates, assets, grid) with values[i] at (days[i], assets[col[i]]), a row per distinct day; None on a repeat."""
    dates = np.sort(days, kind="stable")  # the rows of a file arrive in date order, which a stable sort runs through
    dates = dates[np.append(True, dates[1:] != dates[:-1])]  # np.unique(days) would import numpy.ma
    row = dates.searchsorted(days)
    del days
    if np.bincount(row * len(assets) + col).max() > 1:
        return None
    grid = np.full((dates.size, len(assets)), np.nan)
    grid[row, col] = values
    return dates, assets, grid


def _parse_series(path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(dates, values) of a canonical date,value file; None for any other file."""
    dates = [np.empty(0, dtype="datetime64[D]")]
    values = [np.empty(0)]
    for block in _column_blocks(path, _SERIES_HEADER):
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
    None for any other file, and for one with a repeated cell or a
    non-finite value, whose line the scanner names."""
    asset_code: dict[str, int] = {}
    days, cols, values = [], [], []
    for block in _column_blocks(path, _PANEL_HEADER):
        if block is None:
            return None
        try:
            days.append(_iso_days(block[0]))
            values.append(np.fromiter(map(float, block[2]), np.float64, len(block[2])))
        except ValueError:
            return None
        for a in dict.fromkeys(block[1]):  # a new asset gets the next column
            asset_code.setdefault(a, len(asset_code))
        cols.append(np.fromiter(map(asset_code.__getitem__, block[1]), np.int64, len(block[1])))
    if not days or "" in asset_code or not all(np.isfinite(v).all() for v in values):
        return None
    col, value = np.concatenate(cols), np.concatenate(values)
    del cols, values
    return _grid(np.concatenate(days), list(asset_code), col, value)


# ---------------------------------------------------------------------------
# Series CSV (columns: date,value)
# ---------------------------------------------------------------------------


def read_series(path: str, kind: str = "return", period: Period = "daily") -> ReturnSeries:
    """Load a date,value CSV as a return series labelled with the file's stem.

    kind "price" converts prices to arithmetic returns p_t/p_{t-1} - 1;
    "return" is passthrough. A file with too few rows for 2 returns is TooShort.
    """
    if kind not in ("return", "price"):
        raise InvalidParams(f"unknown kind {kind!r}, expected 'return' or 'price'")
    with _utf8(path):
        d, v = _parse_series(path) or _scan_series(path)
    if v.size < (need := 3 if kind == "price" else 2):
        raise TooShort(f"{path}: need at least {need} rows of {kind}s, got {v.size}")
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
    """Refuses, as IOWrite, a date the readers would not read back."""
    _check_days(path, s.dates)
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
    """Refuses, as IOWrite, a date or an asset label the readers would not read back as itself."""
    _check_days(path, panel.dates)
    _check_labels(path, panel.assets)
    for a in panel.assets:
        if not a or a != a.strip():
            raise IOWrite(f"cannot write {path}: asset label {a!r} is empty or padded with whitespace")
    rows, cols = np.nonzero(np.isfinite(panel.values))
    # each date is formatted once; the cells gather its text, and the labels', into lists of str in C
    days = panel.dates.astype(str).astype(object)
    assets = np.array(panel.assets, dtype=object)
    _write_csv(path, _PANEL_HEADER, days[rows].tolist(), assets[cols].tolist(), panel.values[rows, cols])


# ---------------------------------------------------------------------------
# Cross-section CSV
# ---------------------------------------------------------------------------

_TRUTHY = {"1", "true", "yes"}
_FALSY = {"0", "false", "no"}


def read_cross_section(path: str) -> CrossSection:
    """Load a cross-section; an empty or repeated name and a negative error bar name their line."""
    rows: list[CrossSectionRow] = []
    names: set[str] = set()
    with _utf8(path):
        for line_no, row in _scan(path, _CS_HEADER):
            name = row[0].strip()
            if not name:
                raise CsvFormatError(path, line_no, "empty strategy name")
            if name in names:
                raise CsvFormatError(path, line_no, f"duplicate strategy name {name}")
            names.add(name)
            flag = row[6].strip().lower()
            if flag not in _TRUTHY | _FALSY:
                raise CsvFormatError(path, line_no, f"bad fit flag {row[6]!r}")
            # sharpe, vol, zeta_star, err_sharpe, err_zeta_star: each named as in the header
            x = [_parse_float(t, path, line_no, what) for t, what in zip(row[1:6], _CS_HEADER.split(",")[1:6])]
            if min(x[3:]) < 0:
                raise CsvFormatError(path, line_no, f"negative error bar for {name}")
            rows.append(CrossSectionRow(name, *x, included_in_fit=flag in _TRUTHY))
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
    path: str, curve: RankedPnlCurve, symmetrized: RankedPnlCurve, *, p_texts: dict[int, list[str]] | None = None
) -> None:
    """Ranked-P&L plot data: columns p, F and the symmetrized twin's F_sym.

    Every column is formatted a block of rows at a time and no whole column
    of text is held, unless `p_texts`, one dict for the curves of a command,
    has seen a curve of this length: the text of p = k/N, which curves of one
    length share, is kept there by the second curve and reused by later ones.
    """
    n = curve.p.size
    if symmetrized.p.size != n:
        raise IOWrite("curve and symmetrized curve differ in length")
    p, f, f_sym = (np.asarray(x, dtype=np.float64) for x in (curve.p, curve.f, symmetrized.f))
    if p_texts is not None and n not in p_texts:
        p_texts[n] = []
    elif p_texts is not None:
        p = p_texts[n] = p_texts[n] or _fields(p)
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
