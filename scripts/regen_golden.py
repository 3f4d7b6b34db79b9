#!/usr/bin/env python3
"""Rewrite the golden CLI artifacts under tests/golden/.

Runs every case of tests/golden.py in a temporary directory, writes its
artifacts to tests/golden/<case>/ and prints, per artifact, whether it
changed and the largest relative move of a float field. Run it from the
root of a checkout, with the package to record on the path:

    PYTHONPATH=src python scripts/regen_golden.py

A change that moves an artifact on purpose reruns it and records the
printed moves; the golden files are test data.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from tests.golden import CASES, GOLDEN_DIR, run_case  # noqa: E402

_FLOAT = re.compile(rb"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


def largest_move(old: bytes, new: bytes) -> float | None:
    """Largest relative difference between the float fields of two artifacts, in order; None if they do not align."""
    a, b = _FLOAT.findall(old), _FLOAT.findall(new)
    if len(a) != len(b) or _FLOAT.sub(b"#", old) != _FLOAT.sub(b"#", new):
        return None
    moves = [abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y))) for x, y in zip(a, b) if x != y]
    return max(moves, default=0.0)


def main() -> None:
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            artifacts = run_case(case, work)
        folder = os.path.join(GOLDEN_DIR, case)
        old = {}
        if os.path.isdir(folder):
            for name in os.listdir(folder):
                with open(os.path.join(folder, name), "rb") as fh:
                    old[name] = fh.read()
            shutil.rmtree(folder)
        os.makedirs(folder)
        for name, data in artifacts.items():
            with open(os.path.join(folder, name), "wb") as fh:
                fh.write(data)
            if name not in old:
                status = "new"
            elif old[name] == data:
                status = "unchanged"
            else:
                move = largest_move(old[name], data)
                status = "changed, text or layout" if move is None else f"changed, largest relative move {move:.3g}"
            print(f"{case}/{name}: {len(data)} bytes, {status}")
        for name in sorted(set(old) - set(artifacts)):
            print(f"{case}/{name}: removed")


if __name__ == "__main__":
    main()
