"""The block-at-a-time CSV readers and writers against the row scanner and
the row-at-a-time writers they replace."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankskew import (
    CrossSection,
    CrossSectionRow,
    CsvFormatError,
    DecileRow,
    DecileTable,
    Fig10Row,
    Panel,
    RankSkewError,
    RegressionResult,
    ReturnSeries,
    read_panel,
    read_series,
    write_panel,
    write_series,
)
from rankskew import io as rio
from rankskew.skew import RankedPnlCurve
from tests.oracles import (
    scan_panel_by_cells,
    write_curve_csv_by_row,
    write_decile_csv_by_row,
    write_fig10_csv_by_row,
    write_panel_by_row,
    write_scatter_csv_by_row,
    write_series_by_row,
)

# ---------------------------------------------------------------------------
# Readers: the column parser agrees with the row scanner on any text
# ---------------------------------------------------------------------------

_PADS = [" ", "\t", "\x0c", "\x1f", "\xa0"]  # each removed by str.strip()
_VALUES = ["0.5", "-0.0", "1e-310", "-1e300", "3", "1_0", "0.25", "2.5e-07"]
_ASSETS = ["a", "b", "C1", "x.y", "USD/JPY"]
# "+002001-01" parses as a date but is not of the form YYYY-MM-DD
_BAD_DATES = ["2001-02-30", "+002001-01", "20010101", ""]
_BAD_VALUES = ["nan", "-Infinity", "1e400", "abc"]
_BAD_ASSETS = ["", "é", "a b", "b\x1f", "a\xa0"]  # the last two strip to "b" and "a"


def _days(draw, n: int) -> list[str]:
    gaps = draw(st.lists(st.integers(1, 900), min_size=n, max_size=n))
    return (np.datetime64("1965-01-01", "D") + np.cumsum(gaps, dtype=np.int64)).astype(str).tolist()


_ODD = ["header", "pad", "quote", "extra", "blank", "crlf", "no final newline"]


@st.composite
def csv_texts(draw, header: str, rows, bad: list[list[str]]) -> str:
    """A CSV text with at most one fault, and a few kinds of odd but valid
    text at a rate drawn per file.

    `rows(draw, fault)` gives canonical rows, with the faults it knows how
    to make; this adds a wrong header, a missing column or a token from
    `bad[column]`, which is wrong or outside the canonical dialect. The odd
    kinds are in `_ODD`.
    """
    fault = draw(st.sampled_from([None, None, None, "header", "column", "token", "order", "spelling", "empty"]))
    kinds = draw(st.sets(st.sampled_from(_ODD), max_size=3))
    rate = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))

    def odd(kind: str) -> bool:
        return kind in kinds and draw(st.integers(0, 999)) < 1000 * rate

    body = rows(draw, fault)
    if body and fault in ("column", "token"):
        k = draw(st.integers(0, len(body) - 1))
        if fault == "column":
            body[k] = body[k][:-1]
        else:
            j = draw(st.integers(0, len(bad) - 1))
            body[k][j] = draw(st.sampled_from(bad[j]))
    if fault == "header":
        header = "x,y,z"
    elif odd("header"):
        header = draw(st.sampled_from([header.upper(), header.replace(",", ", "), header + ",note"]))
    lines = [header]
    padded, quoted = draw(st.integers(0, len(bad) - 1)), draw(st.integers(0, len(bad) - 1))
    for row in body:
        if len(row) > padded and odd("pad"):
            row[padded] += draw(st.sampled_from(_PADS))
        if len(row) > quoted and odd("quote"):
            row[quoted] = f'"{row[quoted]}"'
        if odd("extra"):
            row.append(draw(st.sampled_from(["x", "", "1.5"])))
        lines.append(",".join(row))
        if odd("blank"):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    newline = "\r\n" if odd("crlf") else "\n"
    text = newline.join(lines)
    return text if odd("no final newline") else text + newline


def _series_rows(draw, fault) -> list[list[str]]:
    """Increasing dates; for fault "order" one date not after the one before."""
    days = _days(draw, draw(st.integers(0 if fault == "empty" else 1, 60)))
    if fault == "order" and len(days) > 1:
        k = draw(st.integers(1, len(days) - 1))
        days[k] = days[draw(st.integers(0, k - 1))]
    return [[d, draw(st.sampled_from(_VALUES))] for d in days]


def _panel_rows(draw, fault) -> list[list[str]]:
    """Distinct cells in any order; for fault "order" a repeated cell, for
    "spelling" one day written two ways, for "empty" no cell at all."""
    days = _days(draw, draw(st.integers(1, 8)))
    assets = draw(st.lists(st.sampled_from(_ASSETS), min_size=1, max_size=5, unique=True))
    cells = draw(st.permutations([[d, a] for d in days for a in assets]))
    cells = [] if fault == "empty" else cells[: draw(st.integers(1, len(cells)))]
    if fault == "order":
        cells.insert(draw(st.integers(0, len(cells))), list(draw(st.sampled_from(cells))))
    if fault == "spelling" and len(cells) > 1:
        i, j = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2, max_size=2, unique=True))
        cells[i][0], cells[j][0] = "0001-01-01", "+001-01-01"
    return [[d, a, draw(st.sampled_from(_VALUES))] for d, a in cells]


def _outcome(read, path: str):
    """Dates, values and labels of what `read` returns, or the error and the line it cites."""
    try:
        got = read(path)
    except CsvFormatError as exc:
        return "CsvFormatError", exc.line
    except RankSkewError as exc:
        return type(exc).__name__, None
    if isinstance(got, Panel):
        return got.dates.tolist(), got.assets, got.values.tobytes()
    dates, values = (got.dates, got.values) if isinstance(got, ReturnSeries) else got
    return dates.tolist(), values.tobytes()


def _scanned_series(path: str) -> ReturnSeries:
    dates, values = rio._scan_series(path)
    return ReturnSeries(label="s", period="daily", dates=dates, values=values)


def _scanned_panel(path: str) -> Panel:
    dates, assets, values = rio._scan_panel(path)
    return Panel(dates=dates, assets=assets, values=values)


def _compare(tmp_path_factory, text: str, block: int, read, scanned) -> None:
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rio, "_BLOCK_CHARS", block)  # block boundaries fall inside the data
        assert _outcome(read, str(path)) == _outcome(scanned, str(path))


@given(
    text=csv_texts("date,value", _series_rows, [_BAD_DATES, _BAD_VALUES]),
    block=st.sampled_from([1, 24, 100, 1 << 16]),
)
@example(text="date,value\n+002001-01,0.5\n2002-01-01,0.1\n", block=1 << 16)
# chunk edges: a read that ends right after a '\n', lines longer than a read, a short last line without '\n'
@example(text="date,value\n2001-01-01,0.5\n2002-01-01,0.1\n2003-01-01,0.2\n", block=15)
@example(text="date,value\n2001-01-01,0.5\n2002-01-01,0.1\n", block=4)
@example(text="date,value\n2001-01-01,0.5\n2002-01-01,0.1", block=1 << 16)
@settings(max_examples=300, deadline=None)
def test_read_series_agrees_with_scanner(tmp_path_factory, text, block):
    _compare(tmp_path_factory, text, block, read_series, _scanned_series)
    # a one-row file is TooShort as a series: compare the parsed dates and values too
    _compare(tmp_path_factory, text, block, lambda p: rio._parse_series(p) or rio._scan_series(p), rio._scan_series)


@given(
    text=csv_texts("date,asset,value", _panel_rows, [_BAD_DATES, _BAD_ASSETS, _BAD_VALUES]),
    block=st.sampled_from([1, 30, 120, 1 << 16]),
)
@example(text="date,asset,value\n2001-01-01,b\x1f,0.5\n", block=1 << 16)
@example(text='date,asset,value\n2001-01-01,"b",0.5\n', block=1 << 16)
@example(text="date,asset,value\n2001-01-01,,0.5\n", block=1 << 16)
@example(text="date,asset,value\n+002001-01,a,0.5\n", block=1 << 16)
@example(text="date,asset,value\n0001-01-01,a,0.5\n+001-01-01,b,0.5\n", block=1 << 16)
@example(text="date,asset,value\n2001-01-01,a,abc\n", block=1 << 16)
# chunk edges as for a series, and a later block that brings a new asset: columns in order of first appearance
@example(text="date,asset,value\n2001-01-01,b,0.5\n2001-01-01,a,0.1\n2001-01-02,c,0.2\n2001-01-02,a,0.3\n", block=17)
@example(text="date,asset,value\n2001-01-01,b,0.5\n2001-01-02,a,0.1\n", block=5)
@example(text="date,asset,value\n2001-01-01,b,0.5\n2001-01-02,a,0.1", block=1 << 16)
@settings(max_examples=300, deadline=None)
def test_read_panel_agrees_with_scanner(tmp_path_factory, text, block):
    _compare(tmp_path_factory, text, block, read_panel, _scanned_panel)


@given(text=csv_texts("date,asset,value", _panel_rows, [_BAD_DATES, _BAD_ASSETS, _BAD_VALUES]))
@example(text="date,asset,value\n0001-01-01,a,0.5\n+001-01-01,a,0.5\n")
@example(text="date,asset,value\n2001-01-02,b,0.5\n2001-01-01,a,-0.0\n")
@settings(max_examples=300, deadline=None)
def test_scan_panel_agrees_with_cell_scanner(tmp_path_factory, text):
    """The row scanner, ending in the shared grid builder, reads what the scanner that filled a dict of cells read."""
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode())
    assert _outcome(_scanned_panel, str(path)) == _outcome(lambda p: Panel(*scan_panel_by_cells(p)), str(path))


def test_canonical_files_take_the_column_path(tmp_path, monkeypatch):
    """Files as the writers write them never reach the row scanner, also when every read is shorter than a line."""
    rng = np.random.default_rng(3)
    dates = np.datetime64("1999-12-20", "D") + np.arange(5000)
    series = ReturnSeries(label="s", period="daily", dates=dates, values=rng.standard_normal(5000))
    values = rng.standard_normal((900, 7))
    values[1:][rng.random((899, 7)) < 0.2] = np.nan
    panel = Panel(dates=np.datetime64("1960-03-01", "D") + 2 * np.arange(900), assets=list("GFEDCBA"), values=values)
    write_series(tmp_path / "s.csv", series)
    write_panel(tmp_path / "p.csv", panel)

    def no_scanner(path):
        raise AssertionError(f"{path} went to the row scanner")

    monkeypatch.setattr(rio, "_scan_series", no_scanner)
    monkeypatch.setattr(rio, "_scan_panel", no_scanner)
    for block in (rio._BLOCK_CHARS, 5):
        monkeypatch.setattr(rio, "_BLOCK_CHARS", block)
        back = read_series(str(tmp_path / "s.csv"))
        assert np.array_equal(back.dates, series.dates) and np.array_equal(back.values, series.values)
        grid = read_panel(str(tmp_path / "p.csv"))
        assert grid.assets == panel.assets and np.array_equal(grid.dates, panel.dates)
        assert np.array_equal(grid.values, panel.values, equal_nan=True)


def test_one_day_spelled_two_ways_takes_the_column_path(tmp_path, monkeypatch):
    """A canonical panel that spells one day two ways, for two assets, is one row to the column parser."""
    path = tmp_path / "p.csv"
    path.write_text("date,asset,value\n0001-01-03,a,2.0\n0001-01-01,a,0.5\n+001-01-01,b,-1.5\n")

    def no_scanner(path):
        raise AssertionError(f"{path} went to the row scanner")

    monkeypatch.setattr(rio, "_scan_panel", no_scanner)
    panel = read_panel(str(path))
    assert panel.dates.astype(str).tolist() == ["0001-01-01", "0001-01-03"] and panel.assets == ["a", "b"]
    assert np.array_equal(panel.values, [[0.5, -1.5], [2.0, np.nan]], equal_nan=True)


def test_read_series_peak_allocation_is_bounded(tmp_path):
    """Reading 150 000 rows holds at most 4.2 float64 arrays of that length at a time (6.1 while the
    parser kept its per-block lists and checked the order on an int64 copy)."""
    n = 150_000
    dates = np.datetime64("1700-01-01", "D") + np.arange(n)
    series = ReturnSeries(label="s", period="daily", dates=dates, values=np.random.default_rng(8).standard_t(4, n) * 0.01)
    write_series(tmp_path / "s.csv", series)
    tracemalloc.start()
    try:
        back = read_series(str(tmp_path / "s.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.dates, dates) and np.array_equal(back.values, series.values)
    assert peak / (8 * n) <= 4.2


def test_read_panel_peak_allocation_is_bounded(tmp_path):
    """Reading a panel of 49 473 cells holds at most 9.17 float64 arrays of that many cells at a time, as the
    reader that coded the date strings and placed its rows through an inverse permutation did (one grid builder
    holds 6.83)."""
    rng = np.random.default_rng(9)
    values = rng.standard_normal((1000, 55)) * 0.01
    values[1:][rng.random((999, 55)) < 0.1] = np.nan
    panel = Panel(dates=np.datetime64("1990-01-01", "D") + np.arange(1000), assets=[f"A{k:02d}" for k in range(55)],
                  values=values)
    write_panel(tmp_path / "p.csv", panel)
    cells = int(np.isfinite(values).sum())
    tracemalloc.start()
    try:
        back = read_panel(str(tmp_path / "p.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.assets == panel.assets and np.array_equal(back.dates, panel.dates)
    assert np.array_equal(back.values, values, equal_nan=True)
    assert cells == 49_473 and peak / (8 * cells) <= 9.17


# ---------------------------------------------------------------------------
# Writers: byte-identical to the row-at-a-time writers
# ---------------------------------------------------------------------------

_DAY_INTS = rio._DAY_RANGE.astype(np.int64).tolist()  # the days writers take, as integers
# the ends of that range, years -1, 0 and 1, leap days and the turns of the centuries and of 1970
_EDGE_DAYS = ["-999-01-01", "-999-12-31", "-100-02-28", "-100-03-01", "-004-02-29", "-001-01-01", "-001-12-31",
              "0000-01-01", "0000-02-29", "0000-12-31", "0001-01-01", "0999-12-31", "1000-01-01", "1900-02-28",
              "1900-03-01", "1969-12-31", "1970-01-01", "2000-02-29", "9999-12-31"]


def test_day_text_spells_every_day_the_writers_take():
    """All 4 017 302 days of _DAY_RANGE, a quarter million at a time, against numpy's astype(str)."""
    lo, hi = _DAY_INTS
    for start in range(lo, hi + 1, 1 << 18):
        days = np.arange(start, min(start + (1 << 18), hi + 1)).astype("datetime64[D]")
        assert np.array_equal(rio._day_text(days).view("S10").ravel().astype(str), days.astype(str))


@given(st.lists(st.integers(*_DAY_INTS), max_size=40))
@example(np.array(_EDGE_DAYS, dtype="datetime64[D]").astype(np.int64).tolist())
def test_day_text_spells_days_as_numpy_does(days):
    """The date speller of both writers agrees with numpy's astype(str) on every day the writers take."""
    days = np.array(days, dtype=np.int64).astype("datetime64[D]")
    assert rio._day_text(days).view("S10").ravel().astype(str).tolist() == days.astype(str).tolist()


# with the values at repr's switches to exponent notation: 1e-05 and 1e+16
_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300, 3.0, -17.0, 0.1, 2.0**53,
            0.0001, 1e-05, 9999999999999998.0, 1e16, -1e16]


def _floats(rng, n: int) -> np.ndarray:
    x = rng.standard_t(3, n) * 10.0 ** rng.integers(-8, 8, n)
    x[: min(n, len(_SPECIAL))] = _SPECIAL[: min(n, len(_SPECIAL))]
    return rng.permutation(x)


def _table_fields(rng, n: int) -> list[float]:
    """Table fields as the library makes them: np.float64 and float mixed."""
    return [np.float64(x) if k % 2 else x for k, x in enumerate(_floats(rng, n).tolist())]


def _same_bytes(tmp_path, write, by_row, *args) -> None:
    write(tmp_path / "new.csv", *args)
    by_row(tmp_path / "old.csv", *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _writers_match_row_writers(tmp_path, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    dates = np.datetime64("1950-06-01", "D") + np.cumsum(rng.integers(1, 40, n))
    series = ReturnSeries(label="s", period="daily", dates=dates, values=_floats(rng, n))
    _same_bytes(tmp_path, write_series, write_series_by_row, series)

    curve = RankedPnlCurve(f=np.cumsum(_floats(rng, n)), variant="raw")
    twin = RankedPnlCurve(f=_floats(rng, n), variant="symmetrized")
    _same_bytes(tmp_path, rio.write_curve_csv, write_curve_csv_by_row, curve, twin)

    # n cells in all, a third of the grid missing
    values = _floats(rng, 3 * (n // 2)).reshape(-1, 3)
    values.flat[rng.choice(values.size, values.size - n, replace=False)] = np.nan
    panel = Panel(dates=dates[: n // 2], assets=["x", "y", "é"], values=values)
    _same_bytes(tmp_path, write_panel, write_panel_by_row, panel)

    # zeta3 is missing in every third row, then in none
    sweep = [Fig10Row(nu_plus=a, zeta3=None if k % 3 == 0 else b, zeta_star=c)
             for k, (a, b, c) in enumerate(zip(*(_table_fields(rng, n) for _ in range(3))))]
    _same_bytes(tmp_path, rio.write_fig10_csv, write_fig10_csv_by_row, sweep)
    rio.write_fig10_csv(tmp_path / "iter.csv", iter(sweep))  # any iterable of rows
    assert (tmp_path / "iter.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()
    _same_bytes(tmp_path, rio.write_fig10_csv, write_fig10_csv_by_row, sweep[1::3])

    table = DecileTable(rows=[DecileRow(bucket=k + 1, vol_pct=v, zeta_star=z, sharpe=h)
                              for k, (v, z, h) in enumerate(zip(*(_table_fields(rng, n) for _ in range(3))))])
    _same_bytes(tmp_path, rio.write_decile_csv, write_decile_csv_by_row, table)

    rows = [CrossSectionRow(name=f"s{k}é", sharpe=h, ann_vol=1.0, zeta_star=z, err_sharpe=abs(eh), err_zeta_star=abs(ez))
            for k, (h, z, eh, ez) in enumerate(zip(*(_table_fields(rng, n) for _ in range(4))))]
    classes = {r.name: ("on-line", "below-line", "pure-alpha")[k % 3] for k, r in enumerate(rows)}
    result = RegressionResult(intercept=0.0, slope=1.0, corr_skew_sr=0.0, corr_vol_sr=0.0, channel_halfwidth=0.1,
                              classifications=classes)
    _same_bytes(tmp_path, rio.write_scatter_csv, write_scatter_csv_by_row, CrossSection(rows=rows), result)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_writers_match_row_writers_byte_for_byte(tmp_path, offset):
    _writers_match_row_writers(tmp_path, rio._WRITE_ROWS + offset, 11 + offset)


@pytest.mark.parametrize("rows", [1, 3])
def test_writers_match_row_writers_in_small_blocks(tmp_path, monkeypatch, rows):
    """Blocks of 1 and 3 rows, so that every row, or every third, starts a block, and files end in a
    block of each length."""
    monkeypatch.setattr(rio, "_WRITE_ROWS", rows)
    for n in (30, 31, 32, 200):
        _writers_match_row_writers(tmp_path, n, n)
