"""Fast self-check of the benchmark harness at tiny sizes (about 30 s).

    python3 perfbench/selfcheck.py

Confirms that a layer's self time subtracts its child spans, that the
tracer patches every binding site, and that a failed output check
raises fail_frac. It is not part of the test suite.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402


def _span(name, start, end, parent, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "wall_s": end - start, "cpu_s": end - start, "counts": counts}


def check_self_time() -> None:
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("skew.skew_report", 1.0, 9.0, 0, {"skew.replicates": 4, "skew.resampled_values": 400}),
        _span("skew.classical_moments", 1.5, 2.0, 1),
        _span("skew.zeta_star", 2.0, 4.0, 1),
        _span("skew.amplitude_order", 2.5, 3.5, 3),  # no metric: charged to zeta_star
        _span("series.det_sum", 5.0, 6.0, 1),  # no metric: charged to skew_report
    ]
    m = layer_metrics(spans)
    expect = {"cli.glue_s": 2.0, "skew.bootstrap_s": 5.5, "skew.moments_s": 0.5, "skew.zeta_star_s": 2.0,
              "skew.replicates": 4, "skew.resamples_per_s": 400 / 5.5, "io.read_series_s": 0.0}
    for k, v in expect.items():
        assert abs(m[k] - v) < 1e-12, (k, m[k], v)
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)


def check_binding_sites() -> None:
    from rankskew import cli, portfolio, skew

    originals = (cli.ranked_pnl, portfolio.zeta_star, skew.standardize)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.ranked_pnl is skew.ranked_pnl and cli.ranked_pnl is not originals[0]
        assert portfolio.zeta_star is skew.zeta_star and portfolio.zeta_star is not originals[1]
        assert skew.standardize is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.ranked_pnl, portfolio.zeta_star, skew.standardize) == originals


def check_fail_frac() -> None:
    workloads.XS_SERIES, workloads.XS_ROWS, workloads.XS_BOOTSTRAP = 3, 300, 20
    clean = run.measure("xsection", seed=1, seconds=1, trace=True)
    assert clean["correct"] and clean["failed"] == 0, clean
    assert clean["metrics"]["fail_frac"]["value"] == 0.0
    assert set(clean["metrics"]) == set(PER_LAYER) | {"trace.overhead_s", "host.ref_s", "host.wall_raw_s", "fail_frac"}
    assert clean["metrics"]["skew.replicates"]["value"] == 3 * 20
    assert clean["metrics"]["skew.bootstrap_s"]["value"] > 0.0

    inputs, steps, check = workloads.WORKLOADS["xsection"]

    def corrupting_check(series, out_dir, oracle):
        path = os.path.join(out_dir, "report.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc["skew_reports"][0]["zeta_star"] += 1e-6
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return check(series, out_dir, oracle)

    workloads.WORKLOADS["xsection"] = (inputs, steps, corrupting_check)
    try:
        bad = run.measure("xsection", seed=1, seconds=1, trace=True)
    finally:
        workloads.WORKLOADS["xsection"] = (inputs, steps, check)
    assert not bad["correct"] and bad["failed"] == 1, bad
    assert bad["metrics"]["fail_frac"]["value"] == 1 / bad["attempted"]


if __name__ == "__main__":
    check_self_time()
    check_binding_sites()
    check_fail_frac()
    print("perfbench selfcheck: ok")
