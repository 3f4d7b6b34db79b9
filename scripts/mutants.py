#!/usr/bin/env python3
"""A table of known faults that the tests must see: each row breaks the library one way and names
the tests that must fail on it.

    python scripts/mutants.py              # every row
    python scripts/mutants.py NAME ...     # the named rows

A row names a file under src/, a piece of its text that occurs there exactly once, the text that
replaces it, and the test ids that must fail. Each row is applied to a fresh copy of src/ in a
temporary directory, beside copies of tests/, scripts/ and pyproject.toml, and each of its tests
runs there in its own pytest process. A named test fails when any test it selects fails or cannot
be collected. The script prints a line per row and exits 1 if any row's text is not found once, or
any of its tests passes or is not found.

The full table takes minutes, so the test suite runs one row of it; the CI unit job runs it whole.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the root of a checkout


MUTANTS = (
    Mutant(
        "pca-chain-skip",  # the stability chain broken at a skipped window
        "rankskew/analysis.py",
        "        if i:\n",
        "        if i and start - kept[i - 1][0] == step:\n",
        ("tests/test_analysis.py::test_pca_matches_per_window_oracle_across_skips_sizes_and_ties",),
    ),
    Mutant(
        "comma-total",  # a block's commas counted in total, not as each line's separators
        "rankskew/io.py",
        'raw.translate(None, _NOT_SEPARATOR) != separators * raw.count(b"\\n")',
        'raw.count(b",") != (ncol - 1) * raw.count(b"\\n")',
        (
            "tests/test_fast_paths.py::test_series_lines_that_trade_commas_reach_the_scanner",
            "tests/test_fast_paths.py::test_panel_lines_that_trade_commas_reach_the_scanner",
        ),
    ),
    Mutant(
        "argsort-default",  # numpy's default argsort also on tied amplitudes
        "rankskew/skew.py",
        'a.argsort(kind="stable" if tied else None)',
        "a.argsort()",
        ("tests/test_fast_paths.py::test_amplitude_order_is_the_stable_argsort_of_amplitudes",),
    ),
    Mutant(
        "tie-runs-skipped",  # amplitude ties ranked one by one in value order: the mid-rank rewrite never taken
        "rankskew/skew.py",
        "    if np.count_nonzero(tied):\n",
        "    if False:\n",
        (
            "tests/test_skew.py::test_bootstrap_replicates_are_mid_ranked",
            "tests/test_skew.py::test_zeta_star_ties_are_mid_ranked",
        ),
    ),
    Mutant(
        "sum-farthest-first",  # the replicate's terms summed in the reverse of amplitude order: the same value, other bytes
        "rankskew/skew.py",
        "-50.0 * det_sum(x)",
        "-50.0 * det_sum(x[::-1])",
        (
            "tests/test_skew.py::test_counts_kernel_matches_searchsorted_oracle_bit_for_bit",
            "tests/test_skew.py::test_counts_kernel_matches_allocating_oracle_bit_for_bit",
            "tests/test_skew.py::test_counts_kernel_ranks_drawn_entries_of_mixed_tie_groups",
            "tests/test_skew.py::test_counts_kernel_weight_total_at_scale",
            "tests/test_skew.py::test_bootstrap_matches_loop_over_oracle",
        ),
    ),
    Mutant(
        "draw-seed-unshifted",  # every replicate drawn from the generator seeded with seed: B copies of one resample
        "rankskew/skew.py",
        "np.random.default_rng(seed + b)",
        "np.random.default_rng(seed)",
        (
            "tests/test_skew.py::test_draw_is_the_bincount_of_the_generator_seeded_with_seed_plus_b",
            "tests/test_golden.py::test_cli_artifacts_match_golden[analyze]",
            "tests/test_golden.py::test_cli_artifacts_match_golden[report]",
        ),
    ),
    Mutant(
        "rank-fractions-from-zero",  # a curve's rank fractions k/N counted from k = 0
        "rankskew/skew.py",
        "np.arange(1, self.f.size + 1, dtype=np.float64)",
        "np.arange(self.f.size, dtype=np.float64)",
        ("tests/test_golden.py::test_cli_artifacts_match_golden[rankplot]",),
    ),
    Mutant(
        "draws-sorted",  # the draws left in the sorted uniforms' order
        "rankskew/synth.py",
        "u[order] = np.interp(u, cdf, knots)",
        "u[:] = np.interp(u, cdf, knots)",
        (
            "tests/test_fast_paths.py::test_ast_draw_is_interp_of_the_unsorted_uniforms",
            "tests/test_fast_paths.py::test_edgeworth_draw_is_interp_of_the_unsorted_uniforms",
        ),
    ),
    Mutant(
        "carry-dropped",  # a read without a '\n' replaces the text carried from the reads before it
        "rankskew/io.py",
        "            tail += chunk\n",
        "            tail = chunk\n",
        ("tests/test_io_blocks.py::test_canonical_files_take_the_column_path",),
    ),
    Mutant(
        "shorter-from-100",  # the one-digit-shorter candidate tried from s >= 100, as in Java
        "rankskew/floattext.py",
        "(s >= _U64(10)) & (upin != wpin)",
        "(s >= _U64(100)) & (upin != wpin)",
        ("tests/test_float_text.py::test_float_text_is_repr",),
    ),
    Mutant(
        "no-irregular",  # powers of two taken as evenly spaced
        "rankskew/floattext.py",
        "irregular = (t == 0) & (bq > 1)",
        "irregular = np.zeros_like(zero)",
        ("tests/test_float_text.py::test_float_text_is_repr",),
    ),
    Mutant(
        "ties-up",  # a value halfway between two candidates rounded up, not to the even one
        "rankskew/floattext.py",
        "(vb > mid) | ((vb == mid) & (s & _U64(1) == 1))",
        "vb >= mid",
        ("tests/test_float_text.py::test_float_text_is_repr",),
    ),
    Mutant(
        "pad-nul",  # a pad byte that UTF-8 text holds: labels lose their NULs
        "rankskew/floattext.py",
        "PAD = 0xFF",
        "PAD = 0x00",
        ("tests/test_float_text.py::test_block_writer_matches_the_repr_writer",),
    ),
    Mutant(
        "january-year",  # a January day given the year of the March before it
        "rankskew/io.py",
        "y = yoe + era * 400 + (mp >= 10)",
        "y = yoe + era * 400 + (mp > 10)",
        (
            "tests/test_golden.py::test_cli_artifacts_match_golden[synth_ast]",
            "tests/test_io_blocks.py::test_day_text_spells_every_day_the_writers_take",
        ),
    ),
    Mutant(
        "block-end",  # a block ends at the default block size, not at _WRITE_ROWS: blocks of 1 or 3 rows overlap
        "rankskew/io.py",
        "spell(i, min(i + _WRITE_ROWS, n))",
        "spell(i, min(i + 4096, n))",
        (
            "tests/test_float_text.py::test_block_writer_matches_the_repr_writer_in_small_blocks",
            "tests/test_io_blocks.py::test_writers_match_row_writers_in_small_blocks",
        ),
    ),
)

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) ", re.MULTILINE)  # pytest -rA's summary lines


def _outcome(test: str, where: str, src: str) -> str:
    """'failed', 'passed' or 'not run': one pytest run of `test` in `where` with `src` on the path. Each named
    test runs on its own, since pytest runs nothing when a named id lies in a file that cannot be collected."""
    # `src` goes before the inherited path, which is kept for whatever the caller put there (such as an import hook)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", test]
    try:
        out = subprocess.run(cmd, cwd=where, env=env, capture_output=True, text=True, timeout=1800).stdout
    except subprocess.TimeoutExpired:
        return "failed"  # a test that does not end fails
    seen = set(_OUTCOME.findall(out))  # a collection error is an ERROR naming the file
    return "failed" if seen & {"FAILED", "ERROR"} else "passed" if seen else "not run"


def run(mutant: Mutant, where: str) -> list[str]:
    """The problems of one row in the scratch checkout `where`: its text not found once, or a named test not failing."""
    src = os.path.join(where, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = os.path.join(src, mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return [f"its text occurs {text.count(mutant.old)} times in src/{mutant.file}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return [f"{test} {outcome}" for test in mutant.tests if (outcome := _outcome(test, where, src)) != "failed"]


def main(argv: list[str] | None = None, table: tuple[Mutant, ...] = MUTANTS) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in table}
    if unknown:
        print(f"unknown rows: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    rows = [m for m in table if not names or m.name in names]
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as where:
        for part in ("tests", "scripts"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(where, part), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), where)
        for mutant in rows:
            problems = run(mutant, where)
            print(f"{'SURVIVED' if problems else 'killed'} {mutant.name}" + "".join(f"; {p}" for p in problems), flush=True)
            if problems:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(rows)} rows survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(rows)} rows killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
