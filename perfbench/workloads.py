"""The three benchmark workloads: inputs, CLI steps and output checks.

Inputs are generated with numpy alone from the benchmark seed, never
with rankskew.synth or rankskew.io, so a change to the sampler or the
CSV writer cannot change the inputs it is measured on. Only `oracle`
runs synth, on purpose. Checks compare outputs with independent numpy
recomputations or with invariants, never with bytes of one commit, so
they survive a change of zeta*'s tie convention (the inputs are
continuous, hence tie-free).

Sizes are scaled so that one pass takes about 3 s on a 2-core host: a
run makes about ten passes in three processes (see run.py), in about
40 s, and the whole benchmark must fit the time its caller allows.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

EPOCH = np.datetime64("2000-01-03", "D")

XS_SERIES, XS_ROWS, XS_BOOTSTRAP = 24, 3000, 300
OR_NU_PLUS, OR_NU_MINUS, OR_N, OR_BOOTSTRAP, OR_GRID = 5.0, 3.5, 150_000, 32, "3.5,5"
PN_CCY, PN_DAYS, PN_STRATEGIES, PN_MISSING = 12, 750, 40, 0.05


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _dates(n: int) -> list[str]:
    return (EPOCH + np.arange(n)).astype(str).tolist()


def _write_series_csv(path: str, values: np.ndarray) -> None:
    # repr() is the shortest round-trip decimal, so the CLI reads back these exact floats
    body = "".join(f"{d},{v!r}\n" for d, v in zip(_dates(values.size), values.tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write("date,value\n" + body)


def _write_panel_csv(path: str, assets: list[str], values: np.ndarray) -> None:
    dates = _dates(values.shape[0])
    rows = values.tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write("date,asset,value\n")
        for d, row in zip(dates, rows):
            fh.write("".join(f"{d},{a},{v!r}\n" for a, v in zip(assets, row) if math.isfinite(v)))


def _check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return name, bool(ok), detail


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _csv_column(path: str, column: str) -> list[float]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        j = header.index(column)
        return [float(line.split(",")[j]) for line in fh if line.strip()]


def naive_zeta_star(x: np.ndarray) -> float:
    """zeta* = -100 * mean_k F0(k/N), straight from the definition."""
    n = x.size
    z = (x - x.mean()) / math.sqrt(np.mean((x - x.mean()) ** 2))
    f0 = [0.0] * n
    acc = 0.0
    for k, i in enumerate(sorted(range(n), key=lambda i: abs(z[i]))):
        acc += z[i]
        f0[k] = acc / n
    return -100.0 * math.fsum(f0) / n


# ---------------------------------------------------------------------------
# xsection: one cross-section of strategies, each with bootstrap error bars
# ---------------------------------------------------------------------------


def xsection_inputs(seed: int, in_dir: str) -> dict:
    rng = _rng(seed, "xsection")
    series = {}
    for i in range(XS_SERIES):
        df = rng.uniform(2.5, 8.0)
        t = rng.standard_t(df, XS_ROWS)
        tilt = rng.uniform(-0.3, 0.3)  # skews the tails: larger moves on one side
        vol = rng.uniform(0.004, 0.02)
        x = vol * (t * (1.0 + tilt * np.sign(t)) + rng.uniform(-0.03, 0.08))
        name = f"strat{i:02d}"
        _write_series_csv(os.path.join(in_dir, f"{name}.csv"), x)
        series[name] = x
    return series


def xsection_steps(seed: int) -> list[list[str]]:
    argv = ["report"]
    for i in range(XS_SERIES):
        argv += ["--series", f"in/strat{i:02d}.csv"]
    return [argv + ["--bootstrap", str(XS_BOOTSTRAP), "--seed", str(seed), "--out-dir", "out"]]


def xsection_check(series: dict, out_dir: str, oracle=None) -> list:
    doc = _load_json(os.path.join(out_dir, "report.json"))
    reports = {r["label"]: r for r in doc.get("skew_reports", [])}
    checks = [
        _check("report_sections", len(reports) == XS_SERIES and set(reports) == set(series) and "regression" in doc,
               f"{len(reports)} skew_reports, regression={'regression' in doc}")
    ]
    for name, x in series.items():
        got = reports.get(name, {}).get("zeta_star", math.nan)
        want = naive_zeta_star(x)
        checks.append(_check(f"zeta_star_naive[{name}]", abs(got - want) <= 1e-9, f"{got!r} vs {want!r}"))
        last_f = _csv_column(os.path.join(out_dir, f"{name}_ranked_pnl.csv"), "F")[-1]
        total = math.fsum(x.tolist())
        tol = x.size * np.finfo(float).eps * float(np.abs(x).sum())  # recursive-summation bound
        checks.append(_check(f"curve_end_is_sum[{name}]", abs(last_f - total) <= tol, f"{last_f!r} vs {total!r}"))
    return checks


# ---------------------------------------------------------------------------
# oracle: sample, estimate and compare with quadrature
# ---------------------------------------------------------------------------


def oracle_inputs(seed: int, in_dir: str) -> dict:
    return {}


def oracle_steps(seed: int) -> list[list[str]]:
    return [
        ["synth", "ast", "--nu-plus", str(OR_NU_PLUS), "--nu-minus", str(OR_NU_MINUS),
         "--n", str(OR_N), "--seed", str(seed), "--out", "out/ast.csv"],
        ["analyze", "out/ast.csv", "--bootstrap", str(OR_BOOTSTRAP), "--seed", str(seed), "--out-dir", "out"],
        ["fig10", "--nu-minus", str(OR_NU_MINUS), "--nu-plus-grid", OR_GRID, "--out", "out/fig10.csv"],
    ]


def oracle_check(_inputs: dict, out_dir: str, oracle) -> list:
    """`oracle` is ast_zeta_star_exact(nu+, nu-), computed outside the timed passes."""
    rep = _load_json(os.path.join(out_dir, "ast_skew_report.json"))
    exact = oracle(OR_NU_PLUS, OR_NU_MINUS)
    pull = (rep["zeta_star"] - exact) / rep["err_zeta_star"]
    fig = _csv_column(os.path.join(out_dir, "fig10.csv"), "zeta_star")
    return [
        # the gate of acceptance criterion 1: within 3 bootstrap errors
        _check("zeta_star_vs_quadrature", abs(pull) < 3.0, f"zeta*={rep['zeta_star']!r} exact={exact!r} pull={pull:.3f}"),
        _check("fig10_decreasing", len(fig) >= 2 and all(a > b for a, b in zip(fig, fig[1:])), repr(fig)),
    ]


# ---------------------------------------------------------------------------
# panel: FX carry, daily deciles on its output, rolling PCA
# ---------------------------------------------------------------------------


def panel_inputs(seed: int, in_dir: str) -> dict:
    rng = _rng(seed, "panel")
    ccy = [f"C{i:02d}" for i in range(PN_CCY)]
    spot = np.exp(np.cumsum(rng.standard_t(4.0, (PN_DAYS, PN_CCY)) * 0.006, axis=0))
    rates = rng.normal(0.03, 0.02, PN_CCY) + np.cumsum(rng.normal(0.0, 5e-4, (PN_DAYS, PN_CCY)), axis=0)
    _write_panel_csv(os.path.join(in_dir, "spot.csv"), ccy, spot)
    _write_panel_csv(os.path.join(in_dir, "rates.csv"), ccy, rates)
    factor = rng.normal(0.0, 0.004, (PN_DAYS, 1))
    strat = factor * rng.uniform(0.0, 1.5, PN_STRATEGIES) + rng.standard_t(4.0, (PN_DAYS, PN_STRATEGIES)) * 0.006
    strat[rng.random(strat.shape) < PN_MISSING] = np.nan
    _write_panel_csv(os.path.join(in_dir, "strategies.csv"), [f"S{i:02d}" for i in range(PN_STRATEGIES)], strat)
    return {}


def panel_steps(seed: int) -> list[list[str]]:
    return [
        ["carry", "--spot", "in/spot.csv", "--rates", "in/rates.csv", "--out-dir", "out"],
        ["deciles", "--returns", "out/carry_returns.csv", "--signal", "out/carry_signal.csv",
         "--buckets", "10", "--rebalance", "daily", "--out-dir", "out"],
        ["pca", "in/strategies.csv", "--window", "252", "--step", "21", "--out-dir", "out"],
    ]


def panel_check(_inputs: dict, out_dir: str, oracle=None) -> list:
    deciles = _csv_column(os.path.join(out_dir, "deciles.csv"), "bucket")
    checks = [_check("decile_rows", deciles == [float(k) for k in range(1, 11)], repr(deciles))]
    windows = _load_json(os.path.join(out_dir, "pca.json"))["windows"]
    checks.append(_check("pca_windows", len(windows) > 0, f"{len(windows)} windows"))
    for w in windows:
        k = len(w["assets"])
        total = math.fsum(w["eigenvalues"])
        # eigenvalues of a correlation matrix sum to its trace, the asset count
        checks.append(_check(f"pca_trace[{w['end_date']}]", abs(total - k) <= 1e-9 * k, f"{total!r} vs {k}"))
    return checks


WORKLOADS = {
    "xsection": (xsection_inputs, xsection_steps, xsection_check),
    "oracle": (oracle_inputs, oracle_steps, oracle_check),
    "panel": (panel_inputs, panel_steps, panel_check),
}
