"""CLI artifacts against the committed golden files (see tests/golden.py)."""

from __future__ import annotations

import json
import os

import pytest

from tests.golden import CASES, GOLDEN_DIR, run_case, same_artifact


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_artifacts_match_golden(case, tmp_path):
    got = run_case(case, str(tmp_path))
    folder = os.path.join(GOLDEN_DIR, case)
    assert sorted(got) == sorted(os.listdir(folder))
    for name, data in got.items():
        with open(os.path.join(folder, name), "rb") as fh:
            assert same_artifact(name, fh.read(), data), f"{case}/{name} moved"


def test_golden_comparison_rejects_moves_beyond_tolerance():
    doc = {"n": 48, "label": "a", "zeta_star": -1.25, "windows": [{"eigenvalues": [2.5, 0.5]}]}
    want = json.dumps(doc).encode()

    def moved(**change):
        return json.dumps({**doc, **change}).encode()

    assert same_artifact("r.json", want, moved(zeta_star=-1.25 * (1 + 4e-13)))
    assert not same_artifact("r.json", want, moved(zeta_star=-1.25 * (1 + 4e-12)))
    assert not same_artifact("r.json", want, moved(n=49))
    assert not same_artifact("r.json", want, moved(n=48.0))
    assert not same_artifact("r.json", want, moved(label="b"))
    assert not same_artifact("r.json", want, moved(windows=[{"eigenvalues": [0.5, 2.5]}]))
    csv = b"bucket,mean\n1,0.25\n2,-0.5\n"
    assert same_artifact("d.csv", csv, b"bucket,mean\n1,0.25000000000000006\n2,-0.5\n")
    assert not same_artifact("d.csv", csv, b"bucket,mean\n2,0.25\n1,-0.5\n")
    assert not same_artifact("d.csv", csv, b"bucket,mean\n1,0.2500000001\n2,-0.5\n")
    assert not same_artifact("d.csv", csv, b"bucket,mean\n1,0.25\n2,-0.5\n3,0.0\n")
