"""rankskew benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload xsection|oracle|panel --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads (see workloads.py for sizes and checks):

  xsection  `report` on 24 heavy-tailed series with bootstrap error bars;
            the skew bootstrap does most of the work, io and series idle.
  oracle    `synth ast`, `analyze` on its output, `fig10`: large-N io,
            few bootstrap replicates, the sampler and the quadrature.
  panel     `carry`, daily `deciles` on its output, `pca` on a panel with
            missing cells: the only user of portfolio, analysis and the
            panel CSV path.

Load shape: closed loop, one client. A pass runs the workload's CLI steps
one after the other through rankskew.cli.main. Inputs are generated from
--seed with numpy alone, outside every timing.

A run generates the inputs, then starts three fresh interpreters one
after the other: one makes timed passes within --seconds, one a traced
pass and one a pass with one BLAS/OpenMP thread. It checks the outputs
of the first pass, and that every pass wrote the same artifact bytes
(sha256 digests are printed).

Times are adjusted for host speed. On a shared host the same pass takes
up to 1.7x longer for tens of seconds at a time, in wall and CPU time
alike, which no run length averages out. So each process times a fixed
numpy-only reference kernel (child.Reference) right after its import and
after each pass, and a time is scaled by REF_S over the reference time
taken around it: it reads as on a host where the kernel takes REF_S.
Raw times are printed for every pass and kept in result.json.

The last line of stdout is one JSON object; with --trace 0 its metrics are

  wall_s       adjusted wall time of one pass: REF_S times the summed wall
               time of the timed passes over the summed reference time
               around them. The first pass warms caches and is left out.
               Sums, not a median of per-pass ratios, because a reference
               taken between passes misses how the host ran during them;
               over a whole run those misses average out.
  cpu_s        the same for the process's user+sys CPU time
  peak_rss_mb  ru_maxrss of the timed process after its first pass, MiB
  setup_s      median over the three processes of the adjusted time from
               interpreter start to `rankskew.cli` imported

and with --trace 1 the per-layer metrics of the traced pass (tracer.py),
`trace.overhead_s` (adjusted traced wall minus the untraced median),
`host.ref_s` (median reference time around the timed passes: the host's
speed), `host.wall_raw_s` (median unadjusted wall time of the timed passes)
and `fail_frac`. `attempted` counts CLI steps run plus output checks made;
`failed` those that failed. Everything is written under .perfbench_work/
in the checkout, including result.json and the spans in trace.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

BUDGET_S = 165.0  # a run must end within 180 s
REF_S = 0.25  # the reference kernel's typical time on a 2-vCPU Xeon host
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10).stdout
        l3 = int(l3) if l3.strip().isdigit() else None
    except (OSError, subprocess.SubprocessError):
        l3 = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "l3_bytes": l3,
        "io_bytes": "computed: sizes of the files read and written, not measured I/O",
    }


class Children:
    """Starts the child processes of one run, each within the run's budget."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + BUDGET_S

    def _child(self, args: list[str], extra_env: dict | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(extra_env or {})
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a child could start")
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args], cwd=WORK, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[0]} overran the {BUDGET_S:.0f} s budget") from None
        if proc.returncode != 0:
            raise BenchError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)

    def run_passes(self, budget_seconds: float = 0.0, trace: bool = False, extra_env: dict | None = None) -> dict:
        """One process: its set-up time, peak RSS and passes (see child.py)."""
        result_path = os.path.join(WORK, "passes.json")
        t0 = time.monotonic()
        self._child(["passes", "steps.json", result_path, "trace.json" if trace else "-", str(budget_seconds)], extra_env)
        with open(result_path) as fh:
            r = json.load(fh)
        for p in r["passes"]:
            p["wall_adj_s"] = p["wall_s"] * REF_S / p["ref_s"]
            p["cpu_adj_s"] = p["cpu_s"] * REF_S / p["ref_s"]
        setup_s = r["import_done"] - t0
        return {"setup_s": setup_s, "setup_adj_s": setup_s * REF_S / r["import_ref_s"],
                "peak_rss_mb": r["maxrss_kib"] / 1024.0, "passes": r["passes"]}

    def exact(self, nu_plus: float, nu_minus: float) -> float:
        path = os.path.join(WORK, "exact.json")
        self._child(["exact", str(nu_plus), str(nu_minus), path])
        with open(path) as fh:
            return json.load(fh)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "rankskew", "__init__.py")):
        raise BenchError(f"no rankskew package under {SRC}; run from the root of a checkout")
    make_inputs, make_steps, check = WORKLOADS[workload]
    children = Children()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "in"))
    inputs = make_inputs(seed, os.path.join(WORK, "in"))
    steps = make_steps(seed)
    with open(os.path.join(WORK, "steps.json"), "w") as fh:
        json.dump(steps, fh)
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True))

    timed = children.run_passes(budget_seconds=seconds)
    os.rename(os.path.join(WORK, "out"), os.path.join(WORK, "checked"))
    traced = children.run_passes(trace=True)
    single = children.run_passes(extra_env=dict.fromkeys(THREAD_VARS, "1"))
    shutil.rmtree(os.path.join(WORK, "out"), ignore_errors=True)
    procs = [("timed", timed), ("traced", traced), ("single", single)]
    for label, proc in procs:
        print(f"process {label} setup_s={proc['setup_s']:.4f} adjusted={proc['setup_adj_s']:.4f} "
              f"peak_rss_mb={proc['peak_rss_mb']:.1f}")
        for p in proc["passes"]:
            print(f"  pass wall_s={p['wall_s']:.4f} cpu_s={p['cpu_s']:.4f} ref_s={p['ref_s']:.4f} "
                  f"adjusted wall_s={p['wall_adj_s']:.4f} cpu_s={p['cpu_adj_s']:.4f} "
                  f"codes={p['codes']} digest={p['digest']}")
    ref = timed["passes"][0]
    for name, sha in sorted(ref["files"].items()):
        print(f"artifact {workload} {name} {sha}")
    samples = timed["passes"][1:] or timed["passes"]

    try:
        checks = check(inputs, os.path.join(WORK, "checked"), children.exact)
    except (OSError, KeyError, TypeError, ValueError, IndexError, BenchError) as exc:
        checks = [("outputs_readable", False, repr(exc))]
    for label, proc in procs:
        digests = {p["digest"] for p in proc["passes"]}
        checks.append((f"same_bytes_{label}", digests == {ref["digest"]}, " ".join(sorted(digests))))
    codes = [c for _, proc in procs for p in proc["passes"] for c in p["codes"]]
    attempted = len(codes) + len(checks)
    failed = sum(c != 0 for c in codes) + sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED check {name}: {detail}")
    print(f"checks {len(checks) - sum(not ok for _, ok, _ in checks)}/{len(checks)} passed; "
          f"steps {sum(c == 0 for c in codes)}/{len(codes)} exited 0")

    if trace:
        with open(os.path.join(WORK, "trace.json")) as fh:
            metrics = {k: (v, unit_of(k)) for k, v in layer_metrics(json.load(fh)).items()}
        metrics["trace.overhead_s"] = (
            traced["passes"][0]["wall_adj_s"] - adjusted(samples, "wall_s"), "s")
        metrics["host.ref_s"] = (statistics.median(p["ref_s"] for p in samples), "s")
        metrics["host.wall_raw_s"] = (statistics.median(p["wall_s"] for p in samples), "s")
        metrics["fail_frac"] = (failed / attempted, "fraction")
    else:
        metrics = {
            "wall_s": (adjusted(samples, "wall_s"), "s"),
            "cpu_s": (adjusted(samples, "cpu_s"), "s"),
            "peak_rss_mb": (timed["peak_rss_mb"], "MiB"),
            "setup_s": (statistics.median(proc["setup_adj_s"] for _, proc in procs), "s"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(WORK, "result.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "host": host, "steps": steps,
                   "processes": dict(procs),
                   "checks": checks, "result": result}, fh, indent=1)
    return result


def adjusted(passes: list[dict], key: str) -> float:
    """REF_S times the passes' summed `key` time over their summed reference time."""
    return REF_S * sum(p[key] for p in passes) / sum(p["ref_s"] for p in passes)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
