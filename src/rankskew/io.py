"""CSV/JSON ingestion and byte-stable export.

One function, _write_csv, writes every CSV, _WRITE_ROWS rows at a time,
each block built in numpy as one buffer of UTF-8 bytes and written with one
call. A float is spelled exactly as repr() spells it, the shortest decimal
that round-trips to the same float64, by floattext.float_text: it finds the
digits of a whole array at once (Schubfach, in uint64 arithmetic), and a
template per sign, decimal point position and digit count lays them out in
repr()'s fixed or exponent form. Dates are spelled YYYY-MM-DD by _day_text:
integer arithmetic finds each day's year, month and day, and floattext's digit
tables, which spell the floats' significands too, give their digits. Labels
are their UTF-8 bytes, and '\\n' ends each row, so identical inputs and seeds
produce byte-identical artifacts.
Each field of a block is a byte array padded past its text with PAD (0xFF),
a byte that valid UTF-8 never holds; the fields sit side by side in one byte
array and the pads are dropped, so text may hold any character, NUL included.
Every CSV writer goes through _column, which refuses, before the file is
opened, what no reader would take back: a NaN or infinity, a date outside the
years -999..9999, a label that is not UTF-8 text (such as a lone surrogate,
which sys.argv holds for a file name that is not UTF-8) or holds a comma,
quote or line break; _write_csv refuses columns of unequal lengths. Each
refusal, and a failed write, raises IOWrite naming the file.

Series and panel CSVs are read a block of rows at a time: a chunk of
_BLOCK_CHARS characters cut at its last '\\n', so no string is made per
line. A file in the canonical dialect, the one _write_csv produces, is
parsed a column at a time: the exact header, ASCII without quotes or
whitespace other than '\\n', and the header's field count on every line.
Any other file, and any file with a bad row, is read again by the row
scanner, which also takes csv-module quoting, CRLF, blank lines, padded
tokens and extra columns, and names the file and line of the first bad row.
Both panel readers end in one grid builder, _grid, so the column parser
itself reads a day spelled two ways ('0001-01-01', '+001-01-01') as one.
Every CSV is UTF-8, read past a byte-order mark if it starts with one and
written without; a file that is not UTF-8 names the first line that fails
to decode.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice
from typing import BinaryIO, Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .analysis import CrossSection, CrossSectionRow, RegressionResult
from .errors import CsvFormatError, InvalidParams, IOWrite, TooShort
from .floattext import FOUR_DIGITS, PAD, PAIRS, float_text
from .portfolio import Panel
from .series import Period, ReturnSeries
from .skew import RankedPnlCurve

# Fixed sizes, not options: whole-file parsing costs memory on long series
# for no gain in speed.
_BLOCK_CHARS = 1 << 16  # characters read per block, which then ends at its last '\n'
# rows formatted per write; the largest temporary, float_text's (4096, 24) intp index, is 768 KiB
_WRITE_ROWS = 4096

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


# The first and last day whose text is the 10 characters of YYYY-MM-DD, the only dates the readers take.
_DAY_RANGE = np.array(["-999-01-01", "9999-12-31"], dtype="datetime64[D]")


@contextmanager
def _writing(path: str) -> Iterator[BinaryIO]:
    """`path` open to write bytes; an OSError is raised as IOWrite naming the file."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise IOWrite(f"cannot write {path}: {exc}") from exc


def _day_text(days: np.ndarray) -> np.ndarray:
    """The YYYY-MM-DD text of datetime64[D] days in the years -999..9999, as astype(str) spells it
    (a year below 0 is '-' and three digits): a (k, 10) array of ASCII codes. The year, month and day
    come from integer arithmetic (H. Hinnant's civil_from_days), their digits from floattext's tables."""
    z = days.astype(np.int32) + 719_468  # days since 0000-03-01, in eras of 400 years (146 097 days)
    era = z // 146_097
    doe = z - era * 146_097
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365  # the year of the era, from March
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153  # the month, 0 for March to 11 for February
    y = yoe + era * 400 + (mp >= 10)
    code = np.empty((days.size, 10), np.uint8)
    code[:, :4] = FOUR_DIGITS.take(np.abs(y)).view(np.uint8).reshape(-1, 4)
    code[y < 0, 0] = ord("-")
    code[:, 4] = code[:, 7] = ord("-")
    code[:, 5:7] = PAIRS.take((mp + 2) % 12 + 1, axis=0)
    code[:, 8:] = PAIRS.take(doy - (153 * mp + 2) // 5 + 1, axis=0)
    return code


# ---------------------------------------------------------------------------
# CSV writing: a block of rows as one buffer of bytes
# ---------------------------------------------------------------------------


class _Text(NamedTuple):
    """A text column: row i is labels[index[i]]."""

    labels: list[str]
    index: np.ndarray


def _column(path: str, name: str, column) -> tuple[int, Callable[[int, int], np.ndarray]]:
    """The row count of column `name` of _write_csv, and a speller of its rows i..j-1 as a _join field.
    A column is days (datetime64[D]), floats (an array, or a list whose None is an empty field), a _Text,
    str labels, or values of another dtype, such as integers, spelled as str() spells them. IOWrite
    refuses what no reader takes back: a day outside _DAY_RANGE (or NaT), a label that is not UTF-8
    text or holds a comma, quote or line break, and a NaN or infinity."""
    if isinstance(column, np.ndarray) and column.dtype == "datetime64[D]":
        lo, hi = _DAY_RANGE
        if column.size and not (lo <= column.min() and column.max() <= hi):
            bad = column[~((lo <= column) & (column <= hi))][0]
            raise IOWrite(f"cannot write {path}: date {bad} is not of the form YYYY-MM-DD (years -999 to 9999)")
        return column.size, lambda i, j: _day_text(column[i:j])
    if isinstance(column, list) and column and isinstance(column[0], str):
        column = _Text(column, np.arange(len(column)))
    elif not isinstance(column, _Text) and (values := np.asarray(column)).dtype.kind not in "fO":
        column = _Text(values.astype(str).tolist(), np.arange(values.size))
    if isinstance(column, _Text):
        labels, index = column
        try:
            raw = [label.encode() for label in labels]
        except UnicodeEncodeError as exc:
            raise IOWrite(f"cannot write {path}: label {exc.object!r} is not UTF-8 text") from exc
        width = max(map(len, raw), default=0)
        code = np.frombuffer(b"".join(r.ljust(width, bytes([PAD])) for r in raw), np.uint8).reshape(len(raw), width)
        bad = np.isin(code, list(b',"\r\n')).any(axis=1)  # in UTF-8 these bytes are only ever themselves
        if bad.any():
            raise IOWrite(f"cannot write {path}: label {labels[bad.argmax()]!r} contains a comma, quote or line break")
        return index.size, lambda i, j: code[index[i:j]]
    empty = None
    if values.dtype == object:
        empty = np.array([x is None for x in column], dtype=bool)
        values = np.array([0.0 if x is None else float(x) for x in column], dtype=np.float64)
    values = values.astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise IOWrite(f"cannot write {path}: non-finite value in column {name}")

    def floats(i: int, j: int) -> np.ndarray:
        text = float_text(values[i:j])
        if empty is not None:
            text[empty[i:j]] = PAD
        return text

    return values.size, floats


def _join(fields: list[np.ndarray]) -> np.ndarray:
    """The bytes of CSV rows from their fields, a (k, w) uint8 array per column whose row is a field's text
    padded with PAD. The fields and separators are laid side by side in one (k, width) byte array, and
    the pads are dropped from it."""
    comma = np.full((len(fields[0]), 1), ord(","), np.uint8)
    row = np.hstack([part for field in fields for part in (field, comma)])
    row[:, -1] = ord("\n")
    return row[row != PAD]


def _write_csv(path: str, header: str, *columns) -> None:
    """Write `header` and a row per index of the `columns` (see _column), _WRITE_ROWS at a time. IOWrite
    refuses columns of unequal row counts."""
    rows, spellers = zip(*(_column(path, name, c) for name, c in zip(header.split(","), columns)))
    if len(set(rows)) > 1:
        raise IOWrite(f"cannot write {path}: columns differ in length ({', '.join(map(str, rows))} rows)")
    n = rows[0]
    with _writing(path) as fh:
        fh.write(header.encode() + b"\n")
        for i in range(0, n, _WRITE_ROWS):
            fh.write(_join([spell(i, min(i + _WRITE_ROWS, n)) for spell in spellers]))


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


def _blocks(fh: TextIO) -> Iterator[str]:
    """The rest of `fh` as blocks of whole lines, each ending in '\\n'. A read of _BLOCK_CHARS
    characters is cut at its last '\\n' and the rest carries into the next block; a read
    without one carries whole. A last line without a '\\n' is given one."""
    tail = ""
    while chunk := fh.read(_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield tail + "\n"


def _column_blocks(path: str, header: str) -> Iterator[list[list[str]] | None]:
    """Yield the rows of `path` after the exact `header` line in blocks of
    about _BLOCK_CHARS characters (see _blocks), each as a list of column
    tokens per field of `header`. Yield None and stop at another header, at
    the first block outside the canonical dialect, or with a line the csv
    module would refuse as too long."""
    ncol = header.count(",") + 1
    separators = b"," * (ncol - 1) + b"\n"  # of one line
    with _open_text(path) as fh:
        if fh.readline() != header + "\n":
            yield None
            return
        for text in _blocks(fh):
            raw = text.encode()  # a character outside ASCII is bytes outside the canonical dialect
            # the lines end at '\n' (any other line break is not canonical), so each has ncol - 1 commas
            # exactly when the block's separators are one line's, repeated once per '\n'
            if (
                raw.translate(None, _CANONICAL)
                or len(text) > csv.field_size_limit()
                or raw.translate(None, _NOT_SEPARATOR) != separators * raw.count(b"\n")
            ):
                yield None
                return
            tokens = text.replace("\n", ",").split(",")
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
    asset_code: defaultdict[str, int] = defaultdict()
    asset_code.default_factory = asset_code.__len__  # a new asset gets the next column
    days, cols, values = [], [], []
    for block in _column_blocks(path, _PANEL_HEADER):
        if block is None:
            return None
        try:
            days.append(_iso_days(block[0]))
            values.append(np.fromiter(map(float, block[2]), np.float64, len(block[2])))
        except ValueError:
            return None
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
    """Refuses, as IOWrite, an empty or padded asset label, which the readers would not read back as itself."""
    for a in panel.assets:
        if not a or a != a.strip():
            raise IOWrite(f"cannot write {path}: asset label {a!r} is empty or padded with whitespace")
    rows, cols = np.nonzero(np.isfinite(panel.values))
    _write_csv(path, _PANEL_HEADER, panel.dates[rows], _Text(panel.assets, cols), panel.values[rows, cols])


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
    numbers = zip(*((-r.zeta_star, r.sharpe, r.err_zeta_star, r.err_sharpe) for r in cs.rows))
    _write_csv(path, _SCATTER_HEADER, names, *numbers, [result.classifications[n] for n in names])


# ---------------------------------------------------------------------------
# Curves, tables, JSON
# ---------------------------------------------------------------------------


def write_curve_csv(path: str, curve: RankedPnlCurve, symmetrized: RankedPnlCurve) -> None:
    """Ranked-P&L plot data: columns p, F and the symmetrized twin's F_sym."""
    _write_csv(path, _CURVE_HEADER, *(np.asarray(x, dtype=np.float64) for x in (curve.p, curve.f, symmetrized.f)))


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
        fh.write(text.encode() + b"\n")
