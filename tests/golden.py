"""Golden artifacts: fixed-seed CLI runs and the committed files they must reproduce.

Each case writes its inputs from a fixed numpy seed, runs one CLI command
with its outputs in a given directory and returns the artifacts it wrote.
`tests/test_golden.py` compares them with the files under
`tests/golden/<case>/`; `scripts/regen_golden.py` rewrites those files.
Text and integers must match exactly and floats to `REL_TOL` relative,
since numpy's SIMD math may differ in the last ulp across CPUs.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable

import numpy as np

from rankskew import Panel, ReturnSeries, write_panel, write_series
from rankskew.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = 1e-12


def _series(path: str, values: np.ndarray, start: str = "2003-01-06") -> str:
    dates = np.datetime64(start, "D") + np.arange(values.size)
    write_series(path, ReturnSeries(label="x", period="daily", dates=dates, values=values))
    return path


def _panel(path: str, values: np.ndarray, start: str, assets: list[str] | None = None, step: int = 1) -> str:
    dates = np.datetime64(start, "D") + step * np.arange(values.shape[0])
    assets = assets or [f"a{k:02d}" for k in range(values.shape[1])]
    write_panel(path, Panel(dates=dates, assets=assets, values=values))
    return path


def _analyze(work: str, out: str) -> list[str]:
    rng = np.random.default_rng(20110)
    x = _series(os.path.join(work, "ana.csv"), rng.standard_t(3, 64) * 0.01 + 0.0005)
    bench = _series(os.path.join(work, "bench.csv"), rng.standard_normal(70) * 0.008, start="2003-01-02")
    return ["analyze", x, "--benchmark", bench, "--bootstrap", "40", "--seed", "5", "--out-dir", out]


def _rankplot(work: str, out: str) -> list[str]:
    rng = np.random.default_rng(20113)
    # tick-rounded: amplitude ties keep chronological order in the curve
    x = _series(os.path.join(work, "rank.csv"), np.round(rng.standard_t(3, 80) * 0.01, 3))
    return ["rankplot", x, "--seed", "6", "--out-dir", out]


def _synth_ast(work: str, out: str) -> list[str]:
    return ["synth", "ast", "--nu-plus", "5", "--nu-minus", "3.5", "--n", "200", "--seed", "7", "--out", os.path.join(out, "ast.csv")]


def _synth_edgeworth(work: str, out: str) -> list[str]:
    return ["synth", "edgeworth", "--zeta3", "0.2", "--kurt", "1", "--n", "200", "--seed", "8", "--out", os.path.join(out, "edgeworth.csv")]


def _synth_gaussian(work: str, out: str) -> list[str]:
    return ["synth", "gaussian", "--n", "200", "--seed", "9", "--out", os.path.join(out, "gaussian.csv")]


def _fig10(work: str, out: str) -> list[str]:
    return ["fig10", "--nu-minus", "3.5", "--nu-plus-grid", "3.2,5,10", "--out", os.path.join(out, "sweep.csv")]


def _report(work: str, out: str) -> list[str]:
    rng = np.random.default_rng(20111)
    paths = [
        _series(os.path.join(work, "a.csv"), rng.standard_t(3, 48) * 0.01 + 0.001),
        # tick-rounded: amplitude ties within and across the mean take the mid-rank path
        _series(os.path.join(work, "b.csv"), np.round(rng.standard_t(4, 48) * 0.01, 3)),
        _series(os.path.join(work, "c.csv"), -np.abs(rng.standard_normal(36)) * 0.01 + 0.004),
        _series(os.path.join(work, "d.csv"), rng.standard_t(5, 60) * 0.02 - 0.001),
    ]
    return ["report", *(arg for p in paths for arg in ("--series", p)), "--bootstrap", "30", "--seed", "9", "--out-dir", out]


def _pca(work: str, out: str) -> list[str]:
    rng = np.random.default_rng(20112)
    x = rng.standard_normal((240, 5)) @ rng.standard_normal((5, 5)) * 0.01
    x[rng.random(x.shape) < 0.05] = np.nan
    x[90:150, 4] = np.nan  # windows over these rows keep 4 strategies
    path = _panel(os.path.join(work, "panel.csv"), x, "2005-03-01", [f"s{k}" for k in range(5)])
    return ["pca", path, "--window", "60", "--step", "30", "--out-dir", out]


def _deciles(work: str, out: str) -> list[str]:
    rng = np.random.default_rng(20114)
    r = rng.standard_t(4, (150, 12)) * 0.01
    r[rng.random(r.shape) < 0.05] = np.nan
    s = rng.standard_normal((150, 12))
    s[rng.random(s.shape) < 0.1] = np.nan
    returns = _panel(os.path.join(work, "returns.csv"), r, "2006-01-02")
    # the signal starts later: rebalance dates before its first row hold no members
    signal = _panel(os.path.join(work, "signal.csv"), s[20:], "2006-01-22")
    return ["deciles", "--returns", returns, "--signal", signal, "--buckets", "4", "--out-dir", out]


def _carry(work: str, out: str) -> list[str]:
    rng = np.random.default_rng(20115)
    spot = np.exp(np.cumsum(rng.standard_normal((30, 4)) * 0.006, axis=0)) * np.array([1.0, 1.3, 110.0, 0.7])
    rates = rng.uniform(0.0, 0.05, (10, 4))
    rates[3, 1] = np.nan  # a missing fixing carries the previous one forward
    ccys = ["AUD", "EUR", "JPY", "USD"]
    spot_path = _panel(os.path.join(work, "spot.csv"), spot, "2007-05-01", ccys)
    # fixings every third day from the third spot date: earlier dates have no rate yet
    rates_path = _panel(os.path.join(work, "rates.csv"), rates, "2007-05-03", ccys, step=3)
    return ["carry", "--spot", spot_path, "--rates", rates_path, "--out-dir", out]


def _regress(work: str, out: str) -> list[str]:
    # distinct Sharpes and vols; "alpha" sits far above the line and is held out of the fit
    path = os.path.join(work, "xsec.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,sharpe,vol,zeta_star,err_sharpe,err_zeta_star,fit\n")
        fh.write("fx,0.62,0.09,-1.1,0.2,0.3,1\n")
        fh.write("hml,0.41,0.11,-0.4,0.21,0.25,1\n")
        fh.write("smb,0.18,0.1,0.3,0.19,0.28,1\n")
        fh.write("umd,0.7,0.15,-1.6,0.22,0.35,1\n")
        fh.write("trend,0.05,0.13,1.2,0.2,0.31,1\n")
        fh.write("alpha,1.9,0.07,0.5,0.25,0.2,0\n")
    return ["regress", path, "--out-dir", out]


#: case name -> function of (input directory, output directory) giving the CLI arguments
CASES: dict[str, Callable[[str, str], list[str]]] = {
    "analyze": _analyze,
    "rankplot": _rankplot,
    "synth_ast": _synth_ast,
    "synth_edgeworth": _synth_edgeworth,
    "synth_gaussian": _synth_gaussian,
    "fig10": _fig10,
    "report": _report,
    "pca": _pca,
    "deciles": _deciles,
    "carry": _carry,
    "regress": _regress,
}


def run_case(name: str, work: str) -> dict[str, bytes]:
    """Run case `name` in the empty directory `work`; its artifacts by file name."""
    inputs = os.path.join(work, "in")
    out = os.path.join(work, "out")
    os.makedirs(inputs)
    os.makedirs(out)
    argv = CASES[name](inputs, out)
    if main(argv) != 0:
        raise RuntimeError(f"golden case {name} failed: rankskew {' '.join(argv)}")
    artifacts = {}
    for f in sorted(os.listdir(out)):
        with open(os.path.join(out, f), "rb") as fh:
            artifacts[f] = fh.read()
    return artifacts


def _same_number(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _same_field(want: str, got: str) -> bool:
    if want == got:
        return True
    try:
        a, b = float(want), float(got)
    except ValueError:
        return False
    # an integer field must match exactly
    return not any(t.lstrip("-").isdigit() for t in (want, got)) and _same_number(a, b)


def _same_json(want, got) -> bool:
    if type(want) is not type(got):
        return False
    if isinstance(want, dict):
        return list(want) == list(got) and all(_same_json(want[k], got[k]) for k in want)
    if isinstance(want, list):
        return len(want) == len(got) and all(map(_same_json, want, got))
    if isinstance(want, float):
        return _same_number(want, got)
    return want == got


def same_artifact(name: str, want: bytes, got: bytes) -> bool:
    """Whether `got` matches the golden `want`: text and integers exactly, floats to REL_TOL relative."""
    if want == got:
        return True
    if name.endswith(".json"):
        return _same_json(json.loads(want), json.loads(got))
    rows_want, rows_got = want.decode().split("\n"), got.decode().split("\n")
    if len(rows_want) != len(rows_got):
        return False
    for rw, rg in zip(rows_want, rows_got):
        fw, fg = rw.split(","), rg.split(",")
        if len(fw) != len(fg) or not all(map(_same_field, fw, fg)):
            return False
    return True
