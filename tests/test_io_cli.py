from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from rankskew import (
    CrossSection,
    CrossSectionRow,
    CsvFormatError,
    Fig10Row,
    InvalidParams,
    IOWrite,
    Panel,
    RankedPnlCurve,
    RegressionResult,
    ReturnSeries,
    TooShort,
    ranked_pnl,
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
from rankskew.cli import build_parser, main
from tests.test_series import daily


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_series_roundtrip(tmp_path):
    series = daily(np.random.default_rng(0).standard_normal(50) * 0.01, label="x")
    path = tmp_path / "x.csv"
    write_series(path, series)
    back = read_series(str(path))
    assert back.label == "x"
    assert np.array_equal(back.values, series.values)
    assert np.array_equal(back.dates, series.dates)


def test_price_kind_converts_to_returns(tmp_path):
    path = tmp_path / "px.csv"
    path.write_text("date,value\n2001-01-01,100\n2001-01-02,101\n2001-01-03,99.99\n")
    series = read_series(str(path), kind="price")
    assert len(series) == 2
    assert series.values[0] == pytest.approx(0.01)
    assert series.values[1] == pytest.approx(99.99 / 101.0 - 1.0)


@pytest.mark.parametrize("kind", ["rate", "Return", ""])
def test_unknown_kind_is_a_caller_error(tmp_path, kind):
    path = tmp_path / "r.csv"
    path.write_text("date,value\n2001-01-01,0.05\n2001-01-02,0.04\n")
    with pytest.raises(InvalidParams, match=f"unknown kind {kind!r}"):
        read_series(str(path), kind=kind)


def test_malformed_rows_cite_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,value\n2001-01-01,0.01\n01/02/2001,0.02\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series(str(path))
    assert exc.value.line == 3
    path.write_text("date,value\n2001-01-01,abc\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series(str(path))
    assert exc.value.line == 2
    path.write_text("time,value\n2001-01-01,0.01\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series(str(path))
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "body, line",
    [
        ("2001-01-01,0.01\n2001-01-02,nan\n", 3),
        ("2001-01-01,0.01\n2001-01-02,0.02\n2001-01-03,1e400\n", 4),
        ("2001-01-01,0.01\n2001-01-03,-inf\n", 3),
        ("2001-01-02,0.01\n2001-01-01,0.02\n", 3),
        ("2001-01-01,0.01\n2001-01-02,0.02\n2001-01-02,0.03\n", 4),
    ],
)
def test_series_data_errors_cite_file_and_line(tmp_path, body, line):
    path = tmp_path / "s.csv"
    path.write_text("date,value\n" + body)
    for kind in ("return", "price"):
        with pytest.raises(CsvFormatError) as exc:
            read_series(str(path), kind=kind)
        assert (exc.value.path, exc.value.line) == (str(path), line)


def test_cli_series_data_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,value\n2001-01-01,0.01\n2001-01-02,0.02\n2001-01-03,nan\n")
    assert run_cli("analyze", str(bad), "--seed", "1", "--out-dir", str(tmp_path)) == 1
    assert "bad.csv:4:" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["inf", "nan", "-1e400", "NaN"])
def test_panel_rejects_non_finite_cells(tmp_path, token):
    path = tmp_path / "p.csv"
    path.write_text(f"date,asset,value\n2001-01-01,a,0.1\n2001-01-01,b,{token}\n2001-01-02,b,0.2\n")
    with pytest.raises(CsvFormatError) as exc:
        read_panel(str(path))
    assert exc.value.line == 3


def test_over_long_field_cites_line(tmp_path):
    """A field past csv.field_size_limit() is a data error in every reader."""
    long_zero = "0." + "0" * 200_000  # a finite value, so only the length is wrong
    cases = [
        (read_series, "date,value\n2001-01-01,0.1\n2001-01-02,{}\n2001-01-03,0.2\n", 3),
        (read_panel, "date,asset,value\n2001-01-01,a,0.1\n2001-01-02,a,{}\n", 3),
        (read_cross_section, "name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\nm,{},0.1,-1,0.1,0.1,1\n", 2),
    ]
    for reader, text, line in cases:
        path = tmp_path / "long.csv"
        path.write_text(text.format(long_zero))
        with pytest.raises(CsvFormatError, match="field larger than field limit") as exc:
            reader(str(path))
        assert exc.value.line == line, reader.__name__


def test_cli_over_long_field_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "long.csv"
    bad.write_text("date,asset,value\n2001-01-01,a,0.1\n2001-01-02," + "a" * 200_000 + ",0.2\n")
    assert run_cli("pca", str(bad), "--out-dir", str(tmp_path)) == 1
    assert "long.csv:3:" in capsys.readouterr().err


def test_text_that_is_not_utf8_cites_line(tmp_path):
    """A byte that is not UTF-8 is a data error at its line in every reader."""
    cases = [
        (read_series, b"date,value\n2001-01-01,0.1\n2001-01-02,0.2\xe9\n", 3),
        (read_panel, b"date,asset,value\n2001-01-01,a,0.1\n2001-01-01,caf\xe9,0.2\n2001-01-02,a,0.3\n", 3),
        (read_cross_section, b"name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\ncaf\xe9,0.5,0.1,-1,0.1,0.1,1\n", 2),
    ]
    for reader, data, line in cases:
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(CsvFormatError, match="not UTF-8") as exc:
            reader(str(path))
        assert exc.value.line == line, reader.__name__


def test_cli_panel_not_utf8_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"date,asset,value\n2001-01-01,a,0.1\n2001-01-01,caf\xe9,0.2\n2001-01-02,a,0.3\n")
    assert run_cli("pca", str(bad), "--out-dir", str(tmp_path)) == 1
    assert "latin1.csv:3:" in capsys.readouterr().err


def test_panel_utf8_labels_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes("date,asset,value\n2001-01-01,café,0.1\n2001-01-02,café,0.2\n".encode("utf-8"))
    panel = read_panel(str(path))
    assert panel.assets == ["café"]
    out = tmp_path / "out.csv"
    write_panel(out, panel)
    assert out.read_bytes() == path.read_bytes()


def test_byte_order_mark_is_read_past(tmp_path):
    """A file saved as UTF-8 with a byte-order mark, as spreadsheets export CSV, reads as the same file without it."""
    dates = np.datetime64("2001-01-01", "D") + np.arange(4)
    write_series(tmp_path / "s.csv", daily(np.array([0.01, -0.02, 0.03, 0.005]), label="s"))
    write_panel(tmp_path / "p.csv", Panel(dates=dates, assets=["a", "b"], values=np.arange(8.0).reshape(4, 2)))
    (tmp_path / "cs.csv").write_text(
        "name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\nm,0.5,0.1,-1,0.1,0.1,1\nn,0.2,0.2,-2,0.1,0.1,0\n"
    )
    (tmp_path / "px.csv").write_text("date,value\n\n2001-01-01,1\n2001-01-02,0\n2001-01-03,2\n")

    def fields(x):
        if isinstance(x, Panel):
            return x.dates.tolist(), x.assets, x.values.tobytes()
        return x.rows if hasattr(x, "rows") else (x.dates.tolist(), x.values.tobytes())

    for name, read in (("s.csv", read_series), ("p.csv", read_panel), ("cs.csv", read_cross_section)):
        bom = tmp_path / f"bom_{name}"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        assert fields(read(str(bom))) == fields(read(str(tmp_path / name))), name
    (tmp_path / "bom_px.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "px.csv").read_bytes())
    with pytest.raises(CsvFormatError, match="zero price") as exc:
        read_series(str(tmp_path / "bom_px.csv"), kind="price")
    assert exc.value.line == 4


def test_price_zero_cites_scanned_line(tmp_path):
    path = tmp_path / "px.csv"
    path.write_text("date,value\n\n2001-01-01,0\n2001-01-02,1\n2001-01-03,2\n")
    with pytest.raises(CsvFormatError, match="zero price") as exc:
        read_series(str(path), kind="price")
    assert exc.value.line == 3


@pytest.mark.parametrize("field, token", [(1, "nan"), (2, "inf"), (3, "-inf"), (4, "NaN"), (5, "1e400")])
def test_cli_regress_non_finite_field_is_a_data_error(tmp_path, capsys, field, token):
    row = ["m", "0.5", "0.1", "-1.0", "0.1", "0.1", "1"]
    row[field] = token
    cs = tmp_path / "cs.csv"
    cs.write_text(
        "name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\n"
        "a,0.2,0.1,-0.5,0.1,0.1,1\n" + ",".join(row) + "\nb,0.4,0.1,-1.5,0.1,0.1,1\n"
    )
    assert run_cli("regress", str(cs), "--out-dir", str(tmp_path)) == 1
    assert "cs.csv:3: non-finite" in capsys.readouterr().err
    assert not (tmp_path / "regression.json").exists()


def test_panel_roundtrip_and_duplicates(tmp_path):
    dates = np.datetime64("2001-01-01", "D") + np.arange(3)
    values = np.array([[0.1, np.nan], [0.2, 0.3], [np.nan, 0.4]])
    from rankskew import Panel

    panel = Panel(dates=dates, assets=["a", "b"], values=values)
    path = tmp_path / "p.csv"
    write_panel(path, panel)
    back = read_panel(str(path))
    assert back.assets == ["a", "b"]
    assert np.allclose(back.values, values, equal_nan=True)
    path.write_text("date,asset,value\n2001-01-01,a,0.1\n2001-01-01,a,0.2\n")
    with pytest.raises(CsvFormatError) as exc:
        read_panel(str(path))
    assert exc.value.line == 3


def test_cross_section_parsing(tmp_path):
    path = tmp_path / "cs.csv"
    path.write_text(
        "name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\n"
        "mkt,0.57,0.15,-1.47,0.13,0.12,1\n"
        "trend,0.9,0.1,0.43,0.14,0.16,false\n"
    )
    cs = read_cross_section(str(path))
    assert cs.rows[0].included_in_fit is True
    assert cs.rows[1].included_in_fit is False
    path.write_text("name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\nmkt,0.5,0.1,-1.0,0.1,0.1,maybe\n")
    with pytest.raises(CsvFormatError):
        read_cross_section(str(path))
    # a repeated name, an empty name and a negative error bar each name the file and the row's line
    for rows, message in [
        ("mkt,0.5,0.1,-1.0,0.1,0.1,1\ntrend,0.9,0.1,0.4,0.1,0.1,0\n mkt ,0.2,0.1,0.3,0.1,0.1,1\n",
         "duplicate strategy name mkt"),
        ("mkt,0.5,0.1,-1.0,0.1,0.1,1\ntrend,0.9,0.1,0.4,0.1,0.1,0\n ,0.2,0.1,0.3,0.1,0.1,1\n", "empty strategy name"),
        ("mkt,0.5,0.1,-1.0,0.1,0.1,1\ntrend,0.9,0.1,0.4,0.1,0.1,0\na,0.2,0.1,0.3,0.1,-0.1,1\n",
         "negative error bar for a"),
    ]:
        path.write_text("name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\n" + rows)
        with pytest.raises(CsvFormatError, match=message) as exc:
            read_cross_section(str(path))
        assert exc.value.line == 4 and str(path) in str(exc.value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_cli_synth_analyze_flow(tmp_path):
    out = tmp_path / "samples.csv"
    assert run_cli("synth", "gaussian", "--n", "3000", "--seed", "9", "--out", str(out)) == 0
    assert run_cli(
        "analyze", str(out), "--seed", "4", "--bootstrap", "50", "--out-dir", str(tmp_path)
    ) == 0
    report = json.loads((tmp_path / "samples_skew_report.json").read_text())
    assert report["n"] == 3000
    assert abs(report["zeta_star"]) < 0.5
    curve = (tmp_path / "samples_ranked_pnl.csv").read_text().splitlines()
    assert curve[0] == "p,F,F_sym"
    assert len(curve) == 3001


def test_cli_rankplot(tmp_path):
    src = tmp_path / "s.csv"
    write_series(src, daily(np.random.default_rng(1).standard_normal(40) * 0.01, label="s"))
    assert run_cli("rankplot", str(src), "--seed", "2", "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "s_ranked_pnl.csv").exists()


def test_cli_rankplot_takes_no_period(tmp_path):
    """No curve value is annualized, so rankplot has no --period to ignore."""
    src = tmp_path / "s.csv"
    write_series(src, daily(np.random.default_rng(1).standard_normal(40) * 0.01, label="s"))
    with pytest.raises(SystemExit) as exc:
        run_cli("rankplot", str(src), "--seed", "2", "--period", "monthly", "--out-dir", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_synth_ast_and_edgeworth(tmp_path):
    out = tmp_path / "a.csv"
    assert run_cli(
        "synth", "ast", "--nu-plus", "5", "--nu-minus", "3.5",
        "--n", "500", "--seed", "1", "--out", str(out),
    ) == 0
    series = read_series(str(out))
    assert len(series) == 500
    out2 = tmp_path / "e.csv"
    assert run_cli(
        "synth", "edgeworth", "--zeta3", "0.1", "--kurt", "0.5",
        "--n", "500", "--seed", "1", "--out", str(out2),
    ) == 0


def test_cli_oracle_round_trip(tmp_path):
    """synth ast -> analyze recovers the quadrature zeta* within 3 errors."""
    out = tmp_path / "ast.csv"
    assert run_cli(
        "synth", "ast", "--nu-plus", "5", "--nu-minus", "3.5",
        "--n", "200000", "--seed", "1", "--out", str(out),
    ) == 0
    assert run_cli(
        "analyze", str(out), "--seed", "2", "--bootstrap", "64", "--out-dir", str(tmp_path)
    ) == 0
    report = json.loads((tmp_path / "ast_skew_report.json").read_text())
    exact = -2.593049  # frozen double-integral value for (5, 3.5)
    assert abs(report["zeta_star"] - exact) < 3.0 * report["err_zeta_star"]


def test_cli_synth_usage_error(tmp_path):
    for argv in (["ast"], ["edgeworth", "--kurt", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", *argv, "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ast", "--nu-plus", "5", "--nu-minus", "3.5", "--kurt", "2"],
        ["ast", "--nu-plus", "5", "--nu-minus", "3.5", "--zeta3", "0.1"],
        ["edgeworth", "--zeta3", "0.1", "--nu-plus", "5"],
        ["gaussian", "--zeta3", "0.3"],
        ["gaussian", "--nu-minus", "3.5"],
        ["gaussian", "--kurt", "0"],
    ],
    ids=lambda argv: argv[0] + argv[-2][1:],
)
def test_cli_synth_refuses_another_familys_flag(tmp_path, capsys, argv):
    """Each family takes only its own flags: one of another family is a usage error, not ignored."""
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", *argv, "--n", "10", "--seed", "1", "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "1"])
@pytest.mark.parametrize(
    "family",
    [["ast", "--nu-plus", "5", "--nu-minus", "3.5"], ["edgeworth", "--zeta3", "0.1"], ["gaussian"]],
    ids=lambda f: f[0],
)
def test_cli_synth_needs_two_points(tmp_path, capsys, family, n):
    out = tmp_path / "x.csv"
    assert run_cli("synth", *family, "--n", n, "--seed", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"rankskew: error: need n >= 2, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{d}/x.csv", "--out-dir", "{d}/out"],
        ["rankplot", "{d}/x.csv", "--out-dir", "{d}/out"],
        ["synth", "gaussian", "--n", "100", "--out", "{d}/out/g.csv"],
        ["report", "--series", "{d}/x.csv", "--out-dir", "{d}/out"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_negative_seed_is_usage_error(tmp_path, capsys, argv):
    write_series(tmp_path / "x.csv", daily(np.random.default_rng(8).standard_normal(60) * 0.01, label="x"))
    for seed in ("-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            run_cli(*(a.replace("{d}", str(tmp_path)) for a in argv), "--seed", seed)
        assert exc.value.code == 2
        assert f"argument --seed: expected a non-negative integer, got '{seed}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["rankplot", "x.csv", "--seed", "1"],
        ["analyze", "x.csv", "--seed", "1"],
        ["report", "--series", "x.csv", "--seed", "1"],
        ["pca", "x.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_empty_out_dir_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    """An empty --out-dir names no directory: it is refused while parsing, not when the first artifact is opened."""
    monkeypatch.chdir(tmp_path)
    write_series(tmp_path / "x.csv", daily(np.random.default_rng(8).standard_normal(60) * 0.01, label="x"))
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out-dir", "")
    assert exc.value.code == 2
    assert "argument --out-dir: expected a directory path, got ''" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["x.csv"]


def test_cli_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("fig10", "--out", str(tmp_path / "f.csv"), "--bogus", "1")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fig10", "--nu-plus-grid", "inf,5"], "tail exponents must be finite"),
        (["synth", "ast", "--nu-plus", "inf", "--nu-minus", "3.5", "--n", "10", "--seed", "1"], "tail exponents"),
        (["synth", "ast", "--nu-plus", "5", "--nu-minus", "nan", "--n", "10", "--seed", "1"], "tail exponents"),
        (["synth", "edgeworth", "--zeta3", "nan", "--n", "10", "--seed", "1"], "parameters outside"),
        (["synth", "edgeworth", "--zeta3", "0.1", "--kurt", "nan", "--n", "10", "--seed", "1"], "parameters outside"),
        # past nu ~ 2000 the quadrature overflows: refused, not written as nan or 0 rows
        (["fig10", "--nu-minus", "3.5", "--nu-plus-grid", "3.5,5000"], "tail exponent nu_plus = 5000.0"),
        (["fig10", "--nu-minus", "3.5", "--nu-plus-grid", "2000,2040"], "tail exponent nu_plus = 2000.0"),
        (["fig10", "--nu-minus", "3.5", "--nu-plus-grid", "1e308"], "tail exponent nu_plus = 1e+308"),
        (["synth", "ast", "--nu-plus", "5000", "--nu-minus", "3.5", "--n", "100", "--seed", "1"], "nu_plus = 5000.0"),
        (["fig10", "--nu-minus", "1000.5", "--nu-plus-grid", "5"], "tail exponent nu_minus = 1000.5"),
    ],
)
def test_cli_rejects_non_finite_distribution_parameters(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_carry_rejects_non_positive_spot(tmp_path, capsys):
    spot = tmp_path / "spot.csv"
    rates = tmp_path / "rates.csv"
    dates = np.datetime64("2001-01-01", "D") + np.arange(5)
    spot.write_text(
        "date,asset,value\n"
        + "\n".join(f"{d},{a},{0.0 if (i, a) == (3, 'BBB') else 1.0}" for i, d in enumerate(dates) for a in ("AAA", "BBB"))
        + "\n"
    )
    rates.write_text(
        "date,asset,value\n"
        + "\n".join(f"{d},{a},{r}" for d in dates for a, r in (("AAA", 0.03), ("BBB", 0.01)))
        + "\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("carry", "--spot", str(spot), "--rates", str(rates), "--out-dir", str(tmp_path)) == 1
    assert "BBB spot price 0.0 on 2001-01-04 is not positive" in capsys.readouterr().err
    assert not (tmp_path / "carry_returns.csv").exists()


# the readers strip padding and refuse an empty label, so those would not read back as themselves
@pytest.mark.parametrize("label", ["US,D", 'say "x"', "a\rb", "a\nb", "", " a", "b ", "\tc", "d\u00a0"])
def test_write_panel_rejects_labels_the_dialect_cannot_hold(tmp_path, label):
    panel = Panel(dates=np.datetime64("2001-01-01", "D") + np.arange(2), assets=["a", label], values=np.ones((2, 2)))
    with pytest.raises(IOWrite, match=r"cannot write .*p\.csv: (asset )?label"):
        write_panel(tmp_path / "p.csv", panel)
    assert not (tmp_path / "p.csv").exists()


# a year above 9999 or below -999 has no 10-character YYYY-MM-DD text, which is all the readers take
_UNREADABLE_DATES = [(["9999-12-30", "10000-01-01"], "10000-01-01"), (["-1000-12-31", "-999-01-01"], "-1000-12-31")]


@pytest.mark.parametrize("dates, bad", _UNREADABLE_DATES)
def test_write_series_refuses_dates_the_readers_cannot_take(tmp_path, dates, bad):
    path = tmp_path / "s.csv"
    path.write_text("kept\n")
    s = ReturnSeries(label="s", period="daily", dates=np.array(dates, dtype="datetime64[D]"), values=[0.1, 0.2])
    with pytest.raises(IOWrite) as exc:
        write_series(str(path), s)
    assert str(exc.value) == f"cannot write {path}: date {bad} is not of the form YYYY-MM-DD (years -999 to 9999)"
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("dates, bad", _UNREADABLE_DATES)
def test_write_panel_refuses_dates_the_readers_cannot_take(tmp_path, dates, bad):
    panel = Panel(dates=np.array(dates, dtype="datetime64[D]"), assets=["a"], values=[[0.1], [0.2]])
    with pytest.raises(IOWrite, match=rf"cannot write .*p\.csv: date {bad} is not of the form YYYY-MM-DD"):
        write_panel(str(tmp_path / "p.csv"), panel)
    assert not (tmp_path / "p.csv").exists()


def test_write_panel_checks_only_the_dates_it_writes(tmp_path):
    """A date row with no finite cell writes no row, so its date need not be one the readers take."""
    dates = np.array(["-1000-12-31", "2001-01-01", "2001-01-02", "10000-01-01"], dtype="datetime64[D]")
    values = np.array([[np.nan, np.nan], [0.1, np.nan], [0.2, 0.3], [np.nan, np.nan]])
    write_panel(str(tmp_path / "p.csv"), Panel(dates=dates, assets=["a", "b"], values=values))
    back = read_panel(str(tmp_path / "p.csv"))
    assert np.array_equal(back.dates, dates[1:3]) and back.assets == ["a", "b"]
    assert np.array_equal(back.values, values[1:3], equal_nan=True)


def test_writers_take_the_widest_dates_the_readers_take(tmp_path):
    dates = np.array(["-999-01-01", "0000-01-01", "9999-12-31"], dtype="datetime64[D]")
    write_series(str(tmp_path / "s.csv"), ReturnSeries(label="s", period="daily", dates=dates, values=[0.1, 0.2, 0.3]))
    assert np.array_equal(read_series(str(tmp_path / "s.csv")).dates, dates)
    write_panel(str(tmp_path / "p.csv"), Panel(dates=dates, assets=["a"], values=[[0.1], [0.2], [0.3]]))
    assert np.array_equal(read_panel(str(tmp_path / "p.csv")).dates, dates)


def test_cli_carry_rejects_label_with_comma(tmp_path, capsys):
    spot = tmp_path / "spot.csv"
    rates = tmp_path / "rates.csv"
    dates = np.datetime64("2001-01-01", "D") + np.arange(5)
    spot.write_text("date,asset,value\n" + "".join(f'{d},"US,D",1.0\n{d},EUR,1.0\n' for d in dates))
    rates.write_text("date,asset,value\n" + "".join(f'{d},"US,D",0.03\n{d},EUR,0.01\n' for d in dates))
    assert run_cli("carry", "--spot", str(spot), "--rates", str(rates), "--out-dir", str(tmp_path)) == 1
    assert "label 'US,D/EUR'" in capsys.readouterr().err
    assert not (tmp_path / "carry_returns.csv").exists()
    assert not (tmp_path / "carry_signal.csv").exists()


def test_cli_regress_rejects_name_with_comma(tmp_path, capsys):
    cs = tmp_path / "cs.csv"
    cs.write_text(
        "name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\n"
        '"Trend, CTA",0.8,0.1,-1.0,0.1,0.2,0\n'
        "a,0.3,0.1,0.1,0.1,0.2,1\nb,0.5,0.1,-0.5,0.1,0.2,1\nc,0.1,0.1,0.8,0.1,0.2,1\n"
    )
    assert run_cli("regress", str(cs), "--out-dir", str(tmp_path)) == 1
    assert "label 'Trend, CTA'" in capsys.readouterr().err
    assert not (tmp_path / "scatter.csv").exists()
    assert not (tmp_path / "regression.json").exists()


def test_write_scatter_csv_refuses_a_label_that_is_not_utf8(tmp_path):
    """A lone surrogate, which sys.argv holds for a file name that is not UTF-8, has no UTF-8 bytes."""
    rows = [CrossSectionRow(name, 0.5, 0.1, -1.0, 0.1, 0.1) for name in ("a", "\udcff")]
    result = RegressionResult(0.0, 1.0, 0.0, 0.0, 0.1, classifications={r.name: "on-line" for r in rows})
    path = tmp_path / "s.csv"
    with pytest.raises(IOWrite) as exc:
        write_scatter_csv(str(path), CrossSection(rows=rows), result)
    assert str(exc.value) == f"cannot write {path}: label '\\udcff' is not UTF-8 text"
    assert not path.exists()


def test_cli_report_refuses_a_series_name_that_is_not_utf8(tmp_path, capsys):
    rng = np.random.default_rng(9)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", os.fsdecode(b"\xff.csv"))]
    try:
        paths[-1].touch()
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    for p in paths:
        write_series(p, daily(rng.standard_t(4, 200) * 0.01, label=p.stem))
    out = tmp_path / "out"
    argv = ["report", "--seed", "3", "--bootstrap", "10", "--out-dir", str(out)]
    assert run_cli(*argv, *(arg for p in paths for arg in ("--series", str(p)))) == 1
    assert "rankskew: error: cannot write" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", [",", "", " , ", "3.5,abc"])
def test_cli_fig10_empty_grid_is_usage_error(tmp_path, grid):
    with pytest.raises(SystemExit) as exc:
        run_cli("fig10", "--nu-plus-grid", grid, "--out", str(tmp_path / "f.csv"))
    assert exc.value.code == 2
    assert not (tmp_path / "f.csv").exists()


def test_cli_data_error_exit_code_and_cleanup(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,value\n2001-01-01,0.01\nnot-a-date,0.02\n")
    code = run_cli("analyze", str(bad), "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.csv:3" in err
    assert not (tmp_path / "bad_skew_report.json").exists()
    assert not (tmp_path / "bad_ranked_pnl.csv").exists()


def test_cli_report_write_failure_leaves_no_outputs(tmp_path):
    """When report.json cannot be written, the scatter CSV and the curves are removed too."""
    rng = np.random.default_rng(5)
    series = []
    for k in range(3):
        path = tmp_path / f"r{k}.csv"
        write_series(path, daily(rng.standard_t(4, 200) * 0.01, label=f"r{k}"))
        series += ["--series", str(path)]
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    code = run_cli("report", "--seed", "3", "--bootstrap", "10", "--out-dir", str(out), *series)
    assert code == 1
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


_SERIES_ARGS = ["--series", "{in}/r0.csv", "--series", "{in}/r1.csv", "--series", "{in}/r2.csv"]


@pytest.mark.parametrize(
    "command, blocked",
    [
        (["synth", "gaussian", "--n", "50", "--seed", "1", "--out", "{out}/x.csv"], "x.csv"),
        (["fig10", "--nu-plus-grid", "5", "--out", "{out}/fig10.csv"], "fig10.csv"),
        (["analyze", "{in}/r0.csv", "--seed", "1", "--bootstrap", "10", "--out-dir", "{out}"], "r0_ranked_pnl.csv"),
        (["rankplot", "{in}/r0.csv", "--seed", "1", "--out-dir", "{out}"], "r0_ranked_pnl.csv"),
        (["report", "--seed", "3", "--bootstrap", "10", "--out-dir", "{out}", *_SERIES_ARGS], "scatter.csv"),
        (["regress", "{in}/cs.csv", "--out-dir", "{out}"], "scatter.csv"),
        (["carry", "--spot", "{in}/spot.csv", "--rates", "{in}/rates.csv", "--out-dir", "{out}"], "carry_signal.csv"),
        (["deciles", "--returns", "{in}/rets.csv", "--signal", "{in}/sig.csv", "--buckets", "2",
          "--rebalance", "daily", "--out-dir", "{out}"], "deciles.csv"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_cli_csv_write_failure_is_named_and_leaves_no_outputs(tmp_path, capsys, command, blocked):
    """A CSV output path that is a directory: exit 1, an error naming the path, and no outputs left."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    rng = np.random.default_rng(8)
    for k in range(3):
        write_series(inputs / f"r{k}.csv", daily(rng.standard_t(4, 200) * 0.01, label=f"r{k}"))
    (inputs / "cs.csv").write_text(
        "name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\n"
        "a,0.3,0.1,0.1,0.1,0.2,1\nb,0.5,0.1,-0.5,0.1,0.2,1\nc,0.1,0.1,0.8,0.1,0.2,1\n"
    )
    dates = np.datetime64("2001-01-01", "D") + np.arange(40)
    write_panel(inputs / "spot.csv", Panel(dates=dates, assets=["AAA", "BBB"], values=np.ones((40, 2))))
    write_panel(inputs / "rates.csv", Panel(dates=dates, assets=["AAA", "BBB"], values=np.full((40, 2), 0.02)))
    assets = ["a0", "a1", "a2", "a3"]
    write_panel(inputs / "rets.csv", Panel(dates=dates, assets=assets, values=rng.standard_normal((40, 4)) * 0.01))
    write_panel(inputs / "sig.csv", Panel(dates=dates, assets=assets, values=np.arange(4) + 0.1 * np.arange(40)[:, None]))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = [arg.replace("{in}", str(inputs)).replace("{out}", str(out)) for arg in command]
    assert run_cli(*argv) == 1
    assert f"cannot write {out / blocked}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [blocked]


def test_cli_program_error_propagates_and_cleans_up(tmp_path, monkeypatch):
    """A ValueError that is not a data error is a bug: it is re-raised, not exit 1."""
    src = tmp_path / "s.csv"
    write_series(src, daily(np.random.default_rng(1).standard_normal(40) * 0.01, label="s"))

    def broken(series, *args, **kwargs):
        list(series)  # the curve is written before the bug strikes
        raise ValueError("internal bug")

    monkeypatch.setattr("rankskew.cli.skew_reports", broken)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="internal bug"):
        run_cli("analyze", str(src), "--seed", "1", "--out-dir", str(out))
    assert not out.exists()


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("constant, nulls", [("sharpe", {"corr_skew_sr", "corr_vol_sr"}), ("vol", {"corr_vol_sr"})])
def test_cli_regress_constant_column_writes_null_correlation(tmp_path, constant, nulls):
    cs = tmp_path / "cs.csv"
    rows = ["name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit"]
    for i, zs in enumerate((-1.0, 0.0, 0.5)):
        sharpe, vol = (0.5, 0.1 + 0.05 * i) if constant == "sharpe" else (0.2 + 0.3 * i, 0.1)
        rows.append(f"s{i},{sharpe},{vol},{zs},0.1,0.1,1")
    cs.write_text("\n".join(rows) + "\n")
    assert run_cli("regress", str(cs), "--out-dir", str(tmp_path)) == 0
    reg = _strict_json((tmp_path / "regression.json").read_text())
    assert {k for k in ("corr_skew_sr", "corr_vol_sr") if reg[k] is None} == nulls


def test_write_curve_csv_refuses_curves_of_different_lengths(tmp_path):
    curve = RankedPnlCurve(f=np.array([0.1, 0.2]), variant="raw")
    sym = RankedPnlCurve(f=np.zeros(3), variant="raw")
    path = tmp_path / "c.csv"
    with pytest.raises(IOWrite, match=r"cannot write .*c\.csv: columns differ in length \(2, 2, 3 rows\)"):
        write_curve_csv(str(path), curve, sym)
    assert not path.exists()


def test_write_curve_csv_refuses_non_finite_before_opening(tmp_path):
    """Partial sums of finite returns can overflow; no CSV holds a token its reader refuses."""
    src = tmp_path / "s.csv"
    values = [8e307] * 3 + [-1e308] * 3 + [1.0, -1.0]
    src.write_text("date,value\n" + "".join(f"2001-01-{d:02d},{v!r}\n" for d, v in enumerate(values, 1)))
    with np.errstate(over="ignore"):
        curve = ranked_pnl(read_series(str(src)))
    assert not np.isfinite(curve.f).all()
    path = tmp_path / "c.csv"
    with pytest.raises(IOWrite) as exc:
        write_curve_csv(str(path), curve, curve)
    assert str(exc.value) == f"cannot write {path}: non-finite value in column F"
    assert not path.exists()


@pytest.mark.parametrize(
    "zeta3, zeta_star, column", [(None, float("nan"), "zeta_star"), (float("inf"), -7.0, "zeta3")]
)
def test_write_fig10_csv_refuses_non_finite_before_opening(tmp_path, zeta3, zeta_star, column):
    path = tmp_path / "f.csv"
    rows = [Fig10Row(nu_plus=3.5, zeta3=None, zeta_star=0.0), Fig10Row(nu_plus=5.0, zeta3=zeta3, zeta_star=zeta_star)]
    with pytest.raises(IOWrite) as exc:
        write_fig10_csv(str(path), rows)
    assert str(exc.value) == f"cannot write {path}: non-finite value in column {column}"
    assert not path.exists()


def test_write_json_refuses_non_finite_before_opening(tmp_path):
    path = tmp_path / "x.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(IOWrite) as exc:
            write_json(str(path), {"a": [1.0, value]})
        assert str(exc.value).startswith(f"cannot write {path}: Out of range float values")
        assert not path.exists()


def test_cli_regress_and_deciles_and_pca(tmp_path):
    cs = tmp_path / "cs.csv"
    rows = ["name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit"]
    for i, zs in enumerate((-2.0, -1.0, -0.5, 0.1)):
        rows.append(f"s{i},{1/3 - zs/4},0.1,{zs},0.05,0.1,1")
    cs.write_text("\n".join(rows) + "\n")
    assert run_cli("regress", str(cs), "--out-dir", str(tmp_path)) == 0
    reg = json.loads((tmp_path / "regression.json").read_text())
    assert reg["slope"] == pytest.approx(0.25, abs=1e-9)
    scatter = (tmp_path / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "name,neg_zeta_star,sharpe,err_x,err_y,class"

    rng = np.random.default_rng(3)
    rets = tmp_path / "rets.csv"
    sig = tmp_path / "sig.csv"
    lines_r = ["date,asset,value"]
    lines_s = ["date,asset,value"]
    dates = np.datetime64("2001-01-01", "D") + np.arange(40)
    for t, d in enumerate(dates):
        for a in range(4):
            lines_r.append(f"{d},a{a},{rng.standard_normal() * 0.01}")
            lines_s.append(f"{d},a{a},{a + 0.1 * t}")
    rets.write_text("\n".join(lines_r) + "\n")
    sig.write_text("\n".join(lines_s) + "\n")
    assert run_cli(
        "deciles", "--returns", str(rets), "--signal", str(sig),
        "--buckets", "4", "--rebalance", "daily", "--out-dir", str(tmp_path),
    ) == 0
    table = (tmp_path / "deciles.csv").read_text().splitlines()
    assert table[0] == "bucket,vol_pct,zeta_star,sharpe"
    assert len(table) == 5

    panel = tmp_path / "panel.csv"
    lines_p = ["date,asset,value"]
    dates = np.datetime64("2001-01-01", "D") + np.arange(300)
    for d in dates:
        for a in range(3):
            lines_p.append(f"{d},s{a},{rng.standard_normal() * 0.01}")
    panel.write_text("\n".join(lines_p) + "\n")
    assert run_cli("pca", str(panel), "--window", "252", "--step", "21", "--out-dir", str(tmp_path)) == 0
    pca = json.loads((tmp_path / "pca.json").read_text())
    assert len(pca["windows"]) == 3


def test_cli_carry(tmp_path):
    spot = tmp_path / "spot.csv"
    rates = tmp_path / "rates.csv"
    dates = np.datetime64("2001-01-01", "D") + np.arange(5)
    spot.write_text(
        "date,asset,value\n" + "\n".join(f"{d},{a},1.0" for d in dates for a in ("AAA", "BBB")) + "\n"
    )
    rates.write_text(
        "date,asset,value\n"
        + "\n".join(f"{d},{a},{r}" for d in dates for a, r in (("AAA", 0.03), ("BBB", 0.01)))
        + "\n"
    )
    assert run_cli("carry", "--spot", str(spot), "--rates", str(rates), "--out-dir", str(tmp_path)) == 0
    returns = read_panel(str(tmp_path / "carry_returns.csv"))
    assert returns.assets == ["AAA/BBB"]


def _report_matches_analyze(tmp_path, lengths):
    """Run `report` on series of the given lengths; each entry and curve must be what `analyze` writes."""
    rng = np.random.default_rng(5)
    paths = []
    for i, n in enumerate(lengths):
        p = tmp_path / f"s{i}.csv"
        write_series(p, daily(rng.standard_normal(n) * 0.01 + 0.0002 * i, label=f"s{i}"))
        paths.append(str(p))
    argv = ["report", "--seed", "3", "--bootstrap", "40", "--out-dir", str(tmp_path / "out")]
    for p in paths:
        argv += ["--series", p]
    assert run_cli(*argv) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(doc["skew_reports"]) == len(lengths)
    assert "regression" in doc
    assert "pca" not in doc
    assert (tmp_path / "out" / "scatter.csv").exists()
    for i, p in enumerate(paths):
        single = tmp_path / f"analyze{i}"
        assert run_cli("analyze", p, "--seed", "3", "--bootstrap", "40", "--out-dir", str(single)) == 0
        curve = f"s{i}_ranked_pnl.csv"
        assert (tmp_path / "out" / curve).read_bytes() == (single / curve).read_bytes()
        assert doc["skew_reports"][i] == json.loads((single / f"s{i}_skew_report.json").read_text())


def test_cli_report_bundle(tmp_path):
    _report_matches_analyze(tmp_path, (120, 120, 120))


def test_cli_report_mixed_lengths(tmp_path):
    """Series of another length in the middle: each series still gets the draws analyze gives it."""
    _report_matches_analyze(tmp_path, (120, 90, 120, 120))


def test_cli_report_curves_equal_rankplot_curves(tmp_path):
    """Curves of one length share the text of p: the second fills it, the later ones reuse it, and a curve of
    another length in between neither uses nor spoils it. Each curve is, byte for byte, the one rankplot writes."""
    rng = np.random.default_rng(17)
    argv = ["report", "--seed", "5", "--bootstrap", "2", "--out-dir", str(tmp_path / "report")]
    for i, n in enumerate((48, 60, 48, 48)):
        write_series(tmp_path / f"s{i}.csv", daily(rng.standard_t(3, n) * 0.01, label=f"s{i}"))
        argv += ["--series", str(tmp_path / f"s{i}.csv")]
    assert run_cli(*argv) == 0
    for i in range(4):
        assert run_cli("rankplot", str(tmp_path / f"s{i}.csv"), "--seed", "5", "--out-dir", str(tmp_path / "plot")) == 0
        curve = f"s{i}_ranked_pnl.csv"
        assert (tmp_path / "report" / curve).read_bytes() == (tmp_path / "plot" / curve).read_bytes()


def test_cli_period_monthly_scales_only_the_sharpe_side(tmp_path):
    """--period monthly scales every Sharpe-side number by sqrt(12/252); the zeta* side keeps its bytes."""
    rng = np.random.default_rng(23)
    series = []
    for i in range(3):
        write_series(tmp_path / f"s{i}.csv", daily(rng.standard_t(4, 60) * 0.01 + 0.002 * i, label=f"s{i}"))
        series += ["--series", str(tmp_path / f"s{i}.csv")]
    out = {}
    for period in ("daily", "monthly"):
        d = tmp_path / period
        common = ["--seed", "3", "--bootstrap", "30", "--period", period]
        assert run_cli("analyze", str(tmp_path / "s0.csv"), *common, "--out-dir", str(d / "analyze")) == 0
        assert run_cli("report", *series, *common, "--out-dir", str(d / "report")) == 0
        out[period] = {
            "analyze": json.loads((d / "analyze" / "s0_skew_report.json").read_text()),
            "report": json.loads((d / "report" / "report.json").read_text()),
            "scatter": [line.split(",") for line in (d / "report" / "scatter.csv").read_text().splitlines()],
            "curves": [(d / "report" / f"s{i}_ranked_pnl.csv").read_bytes() for i in range(3)],
        }
    daily_, monthly_ = out["daily"], out["monthly"]
    k = np.sqrt(12 / 252)

    def scaled(m, d):
        assert abs(m / (k * d) - 1.0) <= 1e-12, (m, d)

    for d, m in zip([daily_["analyze"], *daily_["report"]["skew_reports"]],
                    [monthly_["analyze"], *monthly_["report"]["skew_reports"]]):
        scaled(m.pop("err_sharpe"), d.pop("err_sharpe"))
        assert m == d
    d_reg, m_reg = daily_["report"]["regression"], monthly_["report"]["regression"]
    for key in ("slope", "intercept", "channel_halfwidth"):
        scaled(m_reg[key], d_reg[key])
    for key in ("corr_skew_sr", "corr_vol_sr"):
        assert abs(m_reg[key] / d_reg[key] - 1.0) <= 1e-12
    assert m_reg["classifications"] == d_reg["classifications"]
    assert monthly_["report"]["provenance"] == daily_["report"]["provenance"]
    assert daily_["scatter"][0] == monthly_["scatter"][0] == "name,neg_zeta_star,sharpe,err_x,err_y,class".split(",")
    for d, m in zip(daily_["scatter"][1:], monthly_["scatter"][1:]):
        scaled(float(m[2]), float(d[2]))
        scaled(float(m[4]), float(d[4]))
        assert [m[0], m[1], m[3], m[5]] == [d[0], d[1], d[3], d[5]]
    assert monthly_["curves"] == daily_["curves"]


def test_cli_report_check_error_wins_over_later_read_error(tmp_path, capsys):
    short = tmp_path / "s1.csv"
    write_series(short, daily(np.random.default_rng(2).standard_normal(20) * 0.01, label="s1"))
    out = tmp_path / "out"
    code = run_cli(
        "report", "--seed", "3", "--bootstrap", "10", "--out-dir", str(out),
        "--series", str(short), "--series", str(tmp_path / "missing.csv"),
    )
    assert code == 1
    assert capsys.readouterr().err == "rankskew: error: s1: need at least 30 points for a report\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "missing.csv"],
        ["analyze", "x.csv", "--benchmark", "missing.csv"],
        ["report", "--series", "missing.csv"],
    ],
    ids=["analyze-input", "analyze-benchmark", "report-input"],
)
def test_cli_bootstrap_count_checked_before_any_read(tmp_path, capsys, monkeypatch, argv):
    write_series(tmp_path / "x.csv", daily(np.random.default_rng(3).standard_normal(60) * 0.01, label="x"))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(*argv, "--bootstrap", "1", "--seed", "1", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "rankskew: error: need at least 2 bootstrap replicates, got 1\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["synth", "gaussian", "--n", "4611686018427387904", "--seed", "1", "--out", "{d}/out/g.csv"],
         "draws 4611686018427387904 need"),
        (["analyze", "{d}/x.csv", "--seed", "1", "--bootstrap", "1000000000000", "--out-dir", "{d}/out"],
         "bootstrap replicates 1000000000000 need"),
    ],
    ids=["synth-n", "analyze-bootstrap"],
)
def test_cli_impossible_size_is_named_before_any_allocation(tmp_path, capsys, argv, message):
    """A size no array on the host could hold is a named error, exit 1, checked before any array or file is made."""
    write_series(tmp_path / "x.csv", daily(np.random.default_rng(3).standard_normal(60) * 0.01, label="x"))
    assert run_cli(*(a.replace("{d}", str(tmp_path)) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rankskew: error: {message}") and err.endswith("GiB of this host\n"), err
    assert not (tmp_path / "out").exists()


def test_cli_analyze_peak_memory_is_bounded(tmp_path):
    """`analyze` at N = 150 000 holds at most 7.5 N-arrays at a time (8.07 while the raw curve was built before the
    twin, and symmetrize and ranked_pnl made a new array per step); the first run warms numpy's lazy imports."""
    n = 150_000
    write_series(tmp_path / "x.csv", daily(np.random.default_rng(5).standard_t(4, n) * 0.01, label="x"))
    argv = ("analyze", str(tmp_path / "x.csv"), "--seed", "1", "--bootstrap", "2", "--out-dir", str(tmp_path))
    assert run_cli(*argv) == 0
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()
    assert peak <= 7.5, peak


def test_cli_rankplot_peak_memory_is_bounded(tmp_path):
    """`rankplot` at N = 150 000 holds at most 6.5 N-arrays at a time (7.31 while each curve stored its rank
    fractions, the symmetrized twin's unused); the first run warms numpy's lazy imports."""
    n = 150_000
    write_series(tmp_path / "x.csv", daily(np.random.default_rng(5).standard_t(4, n) * 0.01, label="x"))
    argv = ("rankplot", str(tmp_path / "x.csv"), "--seed", "1", "--out-dir", str(tmp_path))
    assert run_cli(*argv) == 0
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()
    assert peak <= 6.5, peak


@pytest.mark.parametrize(
    "family", [["ast", "--nu-plus", "5", "--nu-minus", "3.5"], ["edgeworth", "--zeta3", "-0.3", "--kurt", "0.5"]]
)
def test_cli_synth_peak_memory_is_bounded(tmp_path, family):
    """`synth` at N = 150 000 holds at most 4.5 N-arrays at a time (4.11 before the draws were looked up on sorted
    uniforms, which holds their sort order next to them); the first run warms numpy's lazy imports."""
    n = 150_000
    argv = ("synth", *family, "--n", str(n), "--seed", "3", "--out", str(tmp_path / "s.csv"))
    assert run_cli(*argv) == 0
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()
    assert peak <= 4.5, peak


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_cli_bootstrap_zero_variance_names_series(tmp_path, capsys, command):
    deg = tmp_path / "deg.csv"
    write_series(deg, daily(np.array([0.01] * 29 + [0.02]), label="deg"))
    out = tmp_path / "out"
    argv = ["analyze", str(deg)] if command == "analyze" else ["report", "--series", str(deg)]
    assert run_cli(*argv, "--seed", "1", "--bootstrap", "50", "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("rankskew: error: deg: bootstrap resample ") and err.endswith(" has zero variance\n")
    assert not out.exists()


def test_cli_analyze_constant_series_names_it(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    write_series(flat, daily(np.full(40, 0.01), label="flat"))
    out = tmp_path / "out"
    assert run_cli("analyze", str(flat), "--seed", "1", "--bootstrap", "10", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "rankskew: error: flat: zero variance\n"
    assert not out.exists()


@pytest.mark.parametrize(("existing", "out_dir"), [(False, "a/b"), (False, "a/b/"), (True, "a"), (True, "a/b/c")])
def test_cli_failed_command_removes_only_the_directories_it_created(tmp_path, capsys, monkeypatch, existing, out_dir):
    """The curve is written before the zero-variance check, so the directories exist when the command fails;
    a directory that existed before the command is kept."""
    write_series(tmp_path / "flat.csv", daily(np.full(50, 0.01), label="flat"))
    if existing:
        (tmp_path / "a").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run_cli("analyze", "flat.csv", "--seed", "1", "--bootstrap", "10", "--out-dir", out_dir) == 1
    assert capsys.readouterr().err == "rankskew: error: flat: zero variance\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["a", "flat.csv"] if existing else ["flat.csv"])
    assert not existing or list((tmp_path / "a").iterdir()) == []


def test_cli_analyze_reads_the_benchmark_with_the_input_kind(tmp_path):
    """Prices in, prices for the benchmark: the co-skewness of their returns, not of the benchmark's price levels."""
    rng = np.random.default_rng(14)
    z = rng.standard_t(4, (200, 2)) * 0.01
    r = np.column_stack((z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]))
    p = 100.0 * np.cumprod(np.vstack((np.ones(2), 1.0 + r)), axis=0)
    for k, name in enumerate(("x", "b")):
        write_series(tmp_path / f"{name}_px.csv", daily(p[:, k], label=name))
        write_series(tmp_path / f"{name}_ret.csv", daily(p[1:, k] / p[:-1, k] - 1.0, label=name, start="2001-01-02"))
    docs = []
    for suffix, kind in (("px", "price"), ("ret", "return")):
        argv = ["analyze", str(tmp_path / f"x_{suffix}.csv"), "--kind", kind, "--benchmark", str(tmp_path / f"b_{suffix}.csv")]
        assert run_cli(*argv, "--seed", "2", "--bootstrap", "20", "--out-dir", str(tmp_path / suffix)) == 0
        docs.append(json.loads((tmp_path / suffix / f"x_{suffix}_skew_report.json").read_text()))
    assert repr(docs[0]["coskew"]) == repr(docs[1]["coskew"])
    assert {**docs[0], "label": ""} == {**docs[1], "label": ""}


def test_cli_analyze_checks_benchmark_overlap_before_bootstrap(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(4)
    write_series(tmp_path / "x.csv", daily(rng.standard_normal(60) * 0.01, label="x"))
    write_series(tmp_path / "b.csv", daily(rng.standard_normal(60) * 0.01, label="b", start="2001-02-20"))

    def no_bootstrap(*args, **kwargs):
        raise AssertionError("the bootstrap ran before the overlap check")

    monkeypatch.setattr("rankskew.skew._bootstrap", no_bootstrap)
    out = tmp_path / "out"
    argv = ["analyze", str(tmp_path / "x.csv"), "--benchmark", str(tmp_path / "b.csv"), "--seed", "1"]
    assert run_cli(*argv, "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "rankskew: error: x vs b: 10 overlapping dates, need 12\n"
    assert not out.exists()


def test_co_skewness_names_the_constant_leg(tmp_path, capsys):
    """The benchmark varies before the input starts and is constant on the 60 dates they share."""
    rng = np.random.default_rng(6)
    x = daily(rng.standard_normal(60) * 0.01, label="x", start="2001-03-01")
    b = daily(np.r_[rng.standard_normal(59) * 0.01, np.full(60, 0.002)], label="b")
    write_series(tmp_path / "x.csv", x)
    write_series(tmp_path / "b.csv", b)
    out = tmp_path / "out"
    argv = ["analyze", str(tmp_path / "x.csv"), "--benchmark", str(tmp_path / "b.csv"), "--seed", "1"]
    assert run_cli(*argv, "--bootstrap", "10", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "rankskew: error: co-skewness: b is constant on the 60 dates it shares with x\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("date,value\n", "return", "need at least 2 rows of returns, got 0"),
        ("date,value\r\n2001-01-01,0.1\r\n", "return", "need at least 2 rows of returns, got 1"),
        ("date,value\n2001-01-01,100\n", "price", "need at least 3 rows of prices, got 1"),
        ("date,value\n2001-01-01,100\n2001-01-02,101\n", "price", "need at least 3 rows of prices, got 2"),
    ],
    ids=["header-only", "one-return-crlf", "one-price", "two-prices"],
)
def test_too_short_series_names_the_file(tmp_path, capsys, text, kind, message):
    path = tmp_path / "h.csv"
    path.write_bytes(text.encode())
    with pytest.raises(TooShort, match=f"^{re.escape(str(path))}: {message}$"):
        read_series(str(path), kind=kind)
    out = tmp_path / "out"
    assert run_cli("rankplot", str(path), "--kind", kind, "--seed", "1", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"rankskew: error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "missing.csv", "--seed", "1"],
        ["deciles", "--returns", "missing.csv", "--signal", "missing.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_failure_before_first_write_creates_no_out_dir(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--out-dir", "new/out") == 1
    assert "missing.csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_report_provenance_ignores_path_spelling(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    (tmp_path / "in").mkdir()
    for i in range(3):
        write_series(tmp_path / "in" / f"s{i}.csv", daily(rng.standard_normal(80) * 0.01, label=f"s{i}"))
    monkeypatch.chdir(tmp_path)
    docs = []
    for out, prefix in (("rel", "in"), ("abs", str(tmp_path / "in"))):
        argv = ["report", "--seed", "3", "--bootstrap", "20", "--out-dir", out]
        for i in range(3):
            argv += ["--series", os.path.join(prefix, f"s{i}.csv")]
        assert run_cli(*argv) == 0
        docs.append((tmp_path / out / "report.json").read_bytes())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["provenance"]["series"] == ["s0.csv", "s1.csv", "s2.csv"]


def test_cli_report_rejects_repeated_stems(tmp_path):
    rng = np.random.default_rng(6)
    paths = []
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
        p = tmp_path / sub / "x.csv"
        write_series(p, daily(rng.standard_normal(60) * 0.01, label="x"))
        paths.append(str(p))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["report", "--seed", "3", "--bootstrap", "20", "--out-dir", str(out)]
    for p in paths:
        argv += ["--series", p]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert list(out.iterdir()) == []


def test_every_flag_is_documented():
    """Every flag of every command, and of every `synth` family, has help."""
    parsers = [item for action in build_parser()._subparsers._group_actions for item in action.choices.items()]
    while parsers:
        name, sub = parsers.pop()
        for act in sub._actions:
            assert act.help, f"undocumented flag {act.option_strings or act.dest} in {name}"
            if isinstance(act, argparse._SubParsersAction):
                parsers += [(f"{name} {family}", p) for family, p in act.choices.items()]


def test_cli_import_loads_no_scipy():
    """`import rankskew.cli` loads numpy alone: no scipy module at all."""
    import rankskew

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rankskew.__file__))
    script = "import sys, rankskew.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    r = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_panel_commands_load_no_numpy_ma(tmp_path):
    """`carry`, `deciles` and `pca` never import numpy.ma, whose import costs ~15 ms and ~1 MiB per process."""
    import rankskew

    rng = np.random.default_rng(21)
    dates = np.datetime64("2001-01-01", "D") + np.arange(80)
    ccy = ["AAA", "BBB", "CCC", "DDD"]
    spot = np.exp(np.cumsum(rng.standard_normal((80, 4)) * 0.005, axis=0))
    write_panel(tmp_path / "spot.csv", Panel(dates=dates, assets=ccy, values=spot))
    write_panel(tmp_path / "rates.csv", Panel(dates=dates, assets=ccy, values=rng.normal(0.03, 0.01, (80, 4))))
    strategies = rng.standard_normal((80, 3)) * 0.01
    strategies[rng.random(strategies.shape) < 0.05] = np.nan
    write_panel(tmp_path / "strategies.csv", Panel(dates=dates, assets=["s0", "s1", "s2"], values=strategies))
    steps = [
        ["carry", "--spot", "spot.csv", "--rates", "rates.csv"],
        ["deciles", "--returns", "carry_returns.csv", "--signal", "carry_signal.csv", "--buckets", "2", "--rebalance", "daily"],
        ["pca", "strategies.csv", "--window", "40", "--step", "10"],
    ]
    script = (
        "import sys\nfrom rankskew.cli import main\n"
        f"for argv in {steps!r}:\n    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rankskew.__file__))
    r = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
    assert (tmp_path / "pca.json").exists() and (tmp_path / "deciles.csv").exists()


def test_cli_byte_determinism(tmp_path):
    """Identical flags, files and seed give byte-identical outputs at 1 and 4 BLAS threads."""
    rng = np.random.default_rng(13)
    inputs = tmp_path / "in"
    inputs.mkdir()
    for k in range(3):
        write_series(inputs / f"r{k}.csv", daily(rng.standard_t(4, 300) * 0.01, label=f"r{k}"))
    dates = np.datetime64("2001-01-01", "D") + np.arange(300)
    ccys = ["AAA", "BBB", "CCC", "DDD"]
    spot = np.exp(np.cumsum(rng.standard_normal((300, 4)) * 0.005, axis=0))
    rates = np.array([0.05, 0.03, 0.01, 0.02]) + rng.standard_normal((300, 4)) * 0.002
    write_panel(inputs / "spot.csv", Panel(dates=dates, assets=ccys, values=spot))
    write_panel(inputs / "rates.csv", Panel(dates=dates, assets=ccys, values=rates))
    commands = [
        ["synth", "ast", "--nu-plus", "5", "--nu-minus", "3.5", "--n", "20000", "--seed", "11",
         "--out", "{d}/samples.csv"],
        ["analyze", "{d}/samples.csv", "--seed", "7", "--bootstrap", "50", "--out-dir", "{d}"],
        ["carry", "--spot", f"{inputs}/spot.csv", "--rates", f"{inputs}/rates.csv", "--out-dir", "{d}"],
        ["deciles", "--returns", "{d}/carry_returns.csv", "--signal", "{d}/carry_signal.csv",
         "--buckets", "3", "--rebalance", "daily", "--out-dir", "{d}"],
        ["pca", "{d}/carry_returns.csv", "--window", "120", "--step", "30", "--out-dir", "{d}"],
        ["report", "--seed", "3", "--bootstrap", "30", "--out-dir", "{d}"]
        + [arg for k in range(3) for arg in ("--series", f"{inputs}/r{k}.csv")],
        ["fig10", "--nu-plus-grid", "3.5,5", "--out", "{d}/fig10.csv"],
        ["synth", "edgeworth", "--zeta3", "0.1", "--n", "5000", "--seed", "2", "--out", "{d}/edgeworth.csv"],
    ]
    # one interpreter per thread count: the BLAS pool size is fixed at import;
    # the last line of its output lists the scipy modules the commands loaded
    script = (
        "import json, sys; from rankskew.cli import main; "
        "failed = any(main(a) for a in json.loads(sys.argv[1])); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(failed)"
    )
    env = dict(os.environ)
    outputs = []
    for run, threads in (("one", "1"), ("two", "4")):
        d = tmp_path / run
        d.mkdir()
        env["OPENBLAS_NUM_THREADS"] = threads
        env["OMP_NUM_THREADS"] = threads
        argvs = [[arg.replace("{d}", str(d)) for arg in cmd] for cmd in commands]
        r = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "[]"
        outputs.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
    assert sorted(outputs[0]) == sorted(
        ["samples.csv", "samples_skew_report.json", "samples_ranked_pnl.csv", "carry_returns.csv",
         "carry_signal.csv", "deciles.csv", "pca.json", "report.json", "scatter.csv", "fig10.csv", "edgeworth.csv"]
        + [f"r{k}_ranked_pnl.csv" for k in range(3)]
    )
    assert outputs[0] == outputs[1]
