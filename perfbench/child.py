"""Passes of a workload in a fresh interpreter.

    python3 child.py passes STEPS_JSON RESULT_JSON TRACE_JSON|- BUDGET_SECONDS
    python3 child.py exact NU_PLUS NU_MINUS RESULT_JSON

`passes` imports rankskew (the set-up), then makes passes for as long as
the next one is expected to end within BUDGET_SECONDS, at least one. A
pass empties `out/` and runs each argv list of STEPS_JSON through
rankskew.cli.main, one after the other, in the current directory. For each pass it records the return code of each step,
wall and user+sys CPU time, a digest of what the pass wrote, and the host
speed around it: the mean wall time of the reference kernel (see
`Reference`) timed right before and right after the pass. For the
process it records the monotonic time at which the import finished, the
reference time right after it and the peak RSS after the first pass
(which includes the reference kernel's inputs, a few MiB).
With a TRACE_JSON path it first installs the span tracer and writes the
spans there when the passes end.

`exact` writes ast_zeta_star_exact for the given tail exponents; the
benchmark calls it outside the timed passes.
"""

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback


class Reference:
    """A fixed numpy/Python kernel that times the host, not the program.

    The vCPUs of a shared host run the same code up to 1.7x slower for
    tens of seconds at a time, wall and CPU time alike, so a pass's time
    alone says as much about the neighbours as about rankskew. This
    kernel spends about equal time in five kinds of work the workloads
    do: bootstrap-like replicates (seeded generator, integers, bincount,
    cumsum on 3000 values), argsort and cumsum of such rows, float parsing
    and formatting as in CSV io, small symmetric eigenproblems as in PCA,
    and a plain interpreter loop. Slow spells of the host slowed the
    replicates and the argsorts about as much as the workloads, and the
    text work about half as much, which is why no single kind is used
    alone. It uses numpy alone and fixed inputs, so no change to rankskew
    can change it; its time, taken next to a pass, measures how fast the
    host ran then.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20140925)
        self.np = np
        self.sorted = np.sort(rng.standard_normal(3000))
        self.rows = rng.standard_normal((64, 3000))
        self.text = [repr(v) for v in rng.standard_normal(27000).tolist()]
        self.sym = [m @ m.T for m in rng.standard_normal((8, 64, 64))]

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for b in range(600):
            idx = np.random.default_rng(b).integers(0, self.sorted.size, size=self.sorted.size)
            np.cumsum(np.bincount(idx, minlength=self.sorted.size) * self.sorted)
        for _ in range(8):
            for row in self.rows:
                np.cumsum(row[np.argsort(np.abs(row))])
        "".join(f"{v!r}\n" for v in [float(t) for t in self.text])
        for _ in range(25):
            for m in self.sym:
                np.linalg.eigvalsh(m)
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        return time.perf_counter() - t0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def digest_dir(path: str) -> tuple[str, dict[str, str]]:
    """sha256 of each file under `path`, and one over all (name, sha) pairs."""
    files = {}
    for dirpath, _, names in os.walk(path):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    combined = hashlib.sha256("".join(f"{k}\t{v}\n" for k, v in sorted(files.items())).encode())
    return combined.hexdigest(), files


def _one_pass(cli, steps: list[list[str]]) -> dict:
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")
    codes = []
    cpu0, wall0 = _cpu(), time.perf_counter()
    for argv in steps:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # argparse usage errors
            codes.append(exc.code)
        except Exception:
            traceback.print_exc()
            codes.append(None)
    wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    digest, files = digest_dir("out")
    return {"wall_s": wall, "cpu_s": cpu, "codes": codes, "digest": digest, "files": files}


def passes(steps_path: str, result_path: str, trace_path: str, budget_seconds: str) -> None:
    from rankskew import cli

    import_done = time.monotonic()
    reference = Reference()
    reference()  # warm-up: first calls load lapack and fault in pages
    ref_before = reference()
    import_ref_s = ref_before
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(steps_path) as fh:
        steps = json.load(fh)
    start = time.perf_counter()
    done = []
    while True:
        p = _one_pass(cli, steps)
        ref_after = reference()
        p["ref_s"] = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        done.append(p)
        if len(done) == 1:
            maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # stop before a pass that would end past the budget, so runs end on time
        if (time.perf_counter() - start) * (len(done) + 1) / len(done) > float(budget_seconds):
            break
    if tracer is not None:
        tracer.write(trace_path)
    with open(result_path, "w") as fh:
        json.dump({"import_done": import_done, "import_ref_s": import_ref_s, "maxrss_kib": maxrss_kib,
                   "passes": done}, fh)


def exact(nu_plus: str, nu_minus: str, result_path: str) -> None:
    from rankskew.synth import AsymmetricStudentT, ast_zeta_star_exact

    value = ast_zeta_star_exact(AsymmetricStudentT(nu_plus=float(nu_plus), nu_minus=float(nu_minus)))
    with open(result_path, "w") as fh:
        json.dump(value, fh)


if __name__ == "__main__":
    if sys.argv[1] == "passes":
        passes(*sys.argv[2:6])
    elif sys.argv[1] == "exact":
        exact(*sys.argv[2:5])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
