"""Every script under scripts/ runs against the current API, at small sizes.

regen_golden.py writes to a temporary directory in place of tests/golden/; mutants.py runs one
row of its table, beside two rows it must report.
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


def test_mutants_reports_rows_whose_tests_pass(capsys):
    """One row of the table is killed; the block-end fault named with the golden tests, whose files are
    all shorter than a block, survives; a row whose text is not in src/ is reported without a run. The
    output is the same where hypothesis is not installed, as in the runtime-only check of this file: the
    killed row also fails a golden case, and a test that cannot be collected counts as failed. The numpy-only
    run of tests/test_environments.py refuses the test-only packages in these pytest processes too."""
    mutants = runpy.run_path(os.path.join(SCRIPTS, "mutants.py"))
    rows = {m.name: m for m in mutants["MUTANTS"]}
    unseen = rows["block-end"]._replace(name="unseen", tests=("tests/test_golden.py::test_cli_artifacts_match_golden",))
    stale = unseen._replace(name="stale", old="no such text")
    assert mutants["main"]([], (rows["january-year"], unseen, stale)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "killed january-year",
        "SURVIVED unseen; tests/test_golden.py::test_cli_artifacts_match_golden passed",
        "SURVIVED stale; its text occurs 0 times in src/rankskew/io.py",
        "2 of 3 rows survived: unseen, stale",
    ]
