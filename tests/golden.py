"""Golden artifacts: fixed-seed CLI runs and the committed files they must reproduce.

Each case writes its inputs from a fixed numpy seed, runs one CLI command
and returns the artifacts it wrote. `tests/test_golden.py` compares them
with the files under `tests/golden/<case>/`; `scripts/regen_golden.py`
rewrites those files. Text and integers must match exactly and floats to
`REL_TOL` relative, since numpy's SIMD math may differ in the last ulp
across CPUs.
"""

from __future__ import annotations

import json
import math
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


def _analyze(work: str) -> list[str]:
    rng = np.random.default_rng(20110)
    x = _series(os.path.join(work, "ana.csv"), rng.standard_t(3, 64) * 0.01 + 0.0005)
    bench = _series(os.path.join(work, "bench.csv"), rng.standard_normal(70) * 0.008, start="2003-01-02")
    return ["analyze", x, "--benchmark", bench, "--bootstrap", "40", "--seed", "5"]


def _report(work: str) -> list[str]:
    rng = np.random.default_rng(20111)
    paths = [
        _series(os.path.join(work, "a.csv"), rng.standard_t(3, 48) * 0.01 + 0.001),
        # tick-rounded: amplitude ties within and across the mean take the mid-rank path
        _series(os.path.join(work, "b.csv"), np.round(rng.standard_t(4, 48) * 0.01, 3)),
        _series(os.path.join(work, "c.csv"), -np.abs(rng.standard_normal(36)) * 0.01 + 0.004),
        _series(os.path.join(work, "d.csv"), rng.standard_t(5, 60) * 0.02 - 0.001),
    ]
    return ["report", *(arg for p in paths for arg in ("--series", p)), "--bootstrap", "30", "--seed", "9"]


def _pca(work: str) -> list[str]:
    rng = np.random.default_rng(20112)
    x = rng.standard_normal((240, 5)) @ rng.standard_normal((5, 5)) * 0.01
    x[rng.random(x.shape) < 0.05] = np.nan
    x[90:150, 4] = np.nan  # windows over these rows keep 4 strategies
    dates = np.datetime64("2005-03-01", "D") + np.arange(240)
    path = os.path.join(work, "panel.csv")
    write_panel(path, Panel(dates=dates, assets=[f"s{k}" for k in range(5)], values=x))
    return ["pca", path, "--window", "60", "--step", "30"]


CASES: dict[str, Callable[[str], list[str]]] = {"analyze": _analyze, "report": _report, "pca": _pca}


def run_case(name: str, work: str) -> dict[str, bytes]:
    """Run case `name` in the empty directory `work`; its artifacts by file name."""
    inputs = os.path.join(work, "in")
    out = os.path.join(work, "out")
    os.makedirs(inputs)
    argv = CASES[name](inputs)
    if main([*argv, "--out-dir", out]) != 0:
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
        return (math.isnan(want) and math.isnan(got)) or _same_number(want, got)
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
