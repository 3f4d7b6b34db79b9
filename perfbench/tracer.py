"""Span tracing of rankskew's layers, installed from outside the package.

`Tracer.install()` wraps every public function of the layer modules and
rebinds the wrapper at every binding site in the package: the defining
module, the package namespace and each module that imported the name
(`cli` imports `ranked_pnl`, `skew_report`, ...; `portfolio` imports
`zeta_star`, `perf_stats`, `risk_manage`; `skew` imports `standardize`
and `symmetrize`). Patching only the defining module would let those
calls bypass the wrapper.

Each call records a span [name, start, end, parent, cpu_start, cpu_end,
counts] in memory (perf_counter and process_time); `write()` saves them
when the run ends. `layer_metrics()` turns spans into the per-layer
metrics: a metric's time is the self time (span time minus child spans)
of the functions it names, plus the self time of wrapped functions that
no metric names, which is charged to the nearest named ancestor.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("io", "skew", "series", "synth", "portfolio", "analysis", "cli")

# Called once per quadrature node or per bootstrap replicate (1e4-1e5 times
# a pass); a span each would cost more than the work being traced.
UNWRAPPED = {"series.det_sum", "series.det_dot", "synth.ast_density", "synth.edgeworth_density"}

# Classes whose construction runs quadrature; their __post_init__ is wrapped.
WRAPPED_CLASSES = ("synth.AsymmetricStudentT", "synth.EdgeworthDensity")

TIME_METRICS = {
    "io.read_series_s": ("io.read_series",),
    "io.read_panel_s": ("io.read_panel",),
    "io.write_series_s": ("io.write_series",),
    "io.write_curve_csv_s": ("io.write_curve_csv",),
    "io.write_panel_s": ("io.write_panel",),
    "io.write_small_s": (
        "io.write_json", "io.write_decile_csv", "io.write_fig10_csv", "io.write_scatter_csv", "io.render_report",
    ),
    "skew.ranked_pnl_s": ("skew.ranked_pnl",),
    "skew.zeta_star_s": ("skew.zeta_star", "skew.zeta_star_of_values"),
    "skew.moments_s": ("skew.classical_moments", "skew.mean_minus_median"),
    "skew.bootstrap_s": ("skew.skew_report",),
    "series.standardize_s": ("series.standardize",),
    "series.symmetrize_s": ("series.symmetrize",),
    "series.perf_stats_s": ("series.perf_stats",),
    "synth.sample_s": ("synth.ast_sample", "synth.edgeworth_sample", "synth.gaussian_sample"),
    "synth.quadrature_s": (
        "synth.AsymmetricStudentT", "synth.EdgeworthDensity", "synth.ast_zeta3_exact", "synth.ast_zeta_star_exact",
        "synth.zeta_star_of_pdf", "synth.edgeworth_zeta_star_exact", "synth.fig10_sweep",
    ),
    "portfolio.carry_pairs_s": ("portfolio.carry_pairs",),
    "portfolio.rank_buckets_s": ("portfolio.rank_buckets",),
    "portfolio.decile_table_s": ("portfolio.decile_table",),
    "analysis.pca_spectrum_s": ("analysis.pca_spectrum",),
    "analysis.cross_section_stats_s": ("analysis.cross_section_stats",),
    "cli.glue_s": ("cli.main", "cli.build_parser"),
}
CPU_METRICS = {"analysis.pca_spectrum_cpu_s": "analysis.pca_spectrum_s"}
COUNT_METRICS = (
    "io.rows_in", "io.rows_out", "io.bytes_in", "io.bytes_out",
    "skew.replicates", "synth.draws", "portfolio.bucket_days", "analysis.pca_windows",
)
PER_LAYER = (
    tuple(TIME_METRICS) + tuple(CPU_METRICS) + COUNT_METRICS + ("skew.resamples_per_s",)
)


def _finite_cells(panel) -> int:
    return int(np.isfinite(panel.values).sum())


def _size(path) -> int:
    return os.path.getsize(path)


# Counters run after the span has closed: (bound arguments, result) -> counts.
# Byte counts are the sizes of the files read or written.
COUNTERS = {
    "io.read_series": lambda a, r: {"io.rows_in": len(r), "io.bytes_in": _size(a["path"])},
    "io.read_panel": lambda a, r: {"io.rows_in": _finite_cells(r), "io.bytes_in": _size(a["path"])},
    "io.write_series": lambda a, r: {"io.rows_out": len(a["s"]), "io.bytes_out": _size(a["path"])},
    "io.write_curve_csv": lambda a, r: {"io.rows_out": a["curve"].p.size, "io.bytes_out": _size(a["path"])},
    "io.write_panel": lambda a, r: {"io.rows_out": _finite_cells(a["panel"]), "io.bytes_out": _size(a["path"])},
    "io.write_decile_csv": lambda a, r: {"io.rows_out": len(a["table"].rows), "io.bytes_out": _size(a["path"])},
    "io.write_fig10_csv": lambda a, r: {"io.rows_out": len(a["rows"]), "io.bytes_out": _size(a["path"])},
    "io.write_scatter_csv": lambda a, r: {"io.rows_out": len(a["cs"].rows), "io.bytes_out": _size(a["path"])},
    "io.write_json": lambda a, r: {"io.bytes_out": _size(a["path"])},
    "skew.skew_report": lambda a, r: {
        "skew.replicates": a["bootstrap"],
        "skew.resampled_values": a["bootstrap"] * len(a["s"]),
    },
    "synth.ast_sample": lambda a, r: {"synth.draws": a["n"]},
    "synth.edgeworth_sample": lambda a, r: {"synth.draws": a["n"]},
    "synth.gaussian_sample": lambda a, r: {"synth.draws": a["n"]},
    "portfolio.rank_buckets": lambda a, r: {"portfolio.bucket_days": sum(len(b) for b in r)},
    "analysis.pca_spectrum": lambda a, r: {"analysis.pca_windows": len(r.windows)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, time.process_time(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = time.process_time()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = counter(bound.arguments, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap rankskew's public layer functions at every binding site."""
        mods = [m for k, m in sys.modules.items() if k == "rankskew" or k.startswith("rankskew.")]
        for layer in LAYERS:
            mod = sys.modules[f"rankskew.{layer}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrapper = self.wrap(name, obj, COUNTERS.get(name))
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is obj:
                            self._patch(m, k, wrapper)
        for name in WRAPPED_CLASSES:
            layer, cls_name = name.split(".")
            cls = getattr(sys.modules[f"rankskew.{layer}"], cls_name)
            self._patch(cls, "__post_init__", self.wrap(name, cls.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def write(self, path: str) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "wall_s": e - s, "cpu_s": ce - cs, "counts": c}
            for n, s, e, p, cs, ce, c in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, CPU self times and counts from recorded spans.

    Each span's self time (its wall time minus its children's) is charged
    to its own metric, or, when no metric names the function, to the
    nearest ancestor that has one. Layers not exercised read 0.
    """
    metric_of_fn = {fn: m for m, fns in TIME_METRICS.items() for fn in fns}
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_wall[s["parent"]] += s["wall_s"]
            child_cpu[s["parent"]] += s["cpu_s"]
    owner: list[str | None] = []
    wall = dict.fromkeys(TIME_METRICS, 0.0)
    cpu = dict.fromkeys(TIME_METRICS, 0.0)
    counts: dict[str, float] = {}
    for i, s in enumerate(spans):
        # spans are recorded in call order, so a parent precedes its children
        m = metric_of_fn.get(s["name"]) or (owner[s["parent"]] if s["parent"] >= 0 else None)
        owner.append(m)
        if m is not None:
            wall[m] += s["wall_s"] - child_wall[i]
            cpu[m] += s["cpu_s"] - child_cpu[i]
        for k, v in (s["counts"] or {}).items():
            counts[k] = counts.get(k, 0) + v
    out = dict(wall)
    for m, base in CPU_METRICS.items():
        out[m] = cpu[base]
    for k in COUNT_METRICS:
        out[k] = counts.get(k, 0)
    boot = wall["skew.bootstrap_s"]
    out["skew.resamples_per_s"] = counts.get("skew.resampled_values", 0) / boot if boot > 0 else 0.0
    return out
