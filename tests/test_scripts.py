"""Every script under scripts/ runs against the current API, at small sizes.

regen_golden.py writes to a temporary directory in place of tests/golden/.
"""

from __future__ import annotations

import os
import runpy
import sys

import pytest

import tests.golden

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "script,argv,kwargs,expect",
    [
        ("oracle_equivalence_demo.py", ["--n", "20000", "--bootstrap", "8"], {}, "quadrature zeta* :"),
        ("small_p_noise_study.py", [], {"n": 20_000, "seeds": 2}, "sign changes inside [0.01, 0.2] per seed:"),
    ],
    ids=["oracle_equivalence_demo", "small_p_noise_study"],
)
def test_script_runs(capsys, monkeypatch, script, argv, kwargs, expect):
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(os.path.join(SCRIPTS, script))["main"](**kwargs)
    assert expect in capsys.readouterr().out


def test_regen_golden_writes_then_keeps_every_artifact(capsys, monkeypatch, tmp_path):
    """A first run into an empty directory reports each artifact new, a second run each unchanged."""
    golden = tests.golden.GOLDEN_DIR

    def stamps():
        return sorted((d, f, os.path.getmtime(os.path.join(d, f))) for d, _, files in os.walk(golden) for f in files)

    before = stamps()
    monkeypatch.setattr(tests.golden, "GOLDEN_DIR", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts the checkout on the path
    main = runpy.run_path(os.path.join(SCRIPTS, "regen_golden.py"))["main"]
    for status in ("new", "unchanged"):
        main()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(before) and all(line.endswith(f" bytes, {status}") for line in lines), lines
    assert sorted(os.listdir(tmp_path)) == sorted(tests.golden.CASES)
    assert stamps() == before
