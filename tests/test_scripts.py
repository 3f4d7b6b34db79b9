"""Every script under scripts/ runs against the current API, at small sizes.

regen_golden.py is left out: it writes under tests/golden/.
"""

from __future__ import annotations

import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "script,argv,kwargs,expect",
    [
        ("pin_edgeworth_constant.py", [], {}, "frozen library constant:                   5.305165"),
        ("oracle_equivalence_demo.py", ["--n", "20000", "--bootstrap", "8"], {}, "quadrature zeta* :"),
        ("small_p_noise_study.py", [], {"n": 20_000, "seeds": 2}, "sign changes inside [0.01, 0.2] per seed:"),
    ],
)
def test_script_runs(capsys, monkeypatch, script, argv, kwargs, expect):
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(os.path.join(SCRIPTS, script))["main"](**kwargs)
    assert expect in capsys.readouterr().out
