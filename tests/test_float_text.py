"""The CSV writer's text against Python's: floats against repr(), blocks against the writer it replaced.

`floattext.float_text` spells an array of float64 with numpy alone, and `io._write_csv`
lays each block of rows out as one buffer of bytes. The first property holds
the float text to repr() over arbitrary finite bit patterns and the values
where repr() changes form; the second holds whole files to
`write_csv_by_repr`, which joins one repr() per float with str, across the
block edges and every kind of column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rankskew import io as rio
from rankskew.floattext import PAD, float_text
from tests.oracles import write_csv_by_repr

_TINY = 5e-324
# every power of two, where the float below is half as far as the float above, and their neighbours
_POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
_NEIGHBOURS = np.concatenate([np.nextafter(_POWERS_OF_TWO, 0.0), np.nextafter(_POWERS_OF_TWO, np.inf)])


def _bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def _spelled(x: np.ndarray) -> list[str]:
    return [bytes(t[t != PAD]).decode() for t in float_text(x)]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
@example(_bits([0.0, -0.0]))
@example(_bits([_TINY, -_TINY, 2 * _TINY, 3 * _TINY, 10 * _TINY, 1e-310, 2.225073858507201e-308, 1e-323]))
@example(_bits([2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]))
@example(_bits(_POWERS_OF_TWO))
@example(_bits(-_NEIGHBOURS))
@example(_bits([1e-4, 1e-5, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 0.00012, -1e-5]))
@example(_bits([9999999999999998.0, 1e16, np.nextafter(1e16, np.inf), 1.5e16, 123456789012345680.0]))
@example(_bits([0.1, 0.2, 0.3, 1 / 3, 2 / 3, 5e-5, 1e22, 1e23, 9007199254740993.0, 4.35, 0.035]))
def test_float_text_is_repr(bits):
    """Every finite float64 is spelled as repr() spells it: its shortest round-trip digits, the nearer
    of two candidates, in fixed form from 1e-4 to below 1e16 and in exponent form outside."""
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    assert _spelled(x) == list(map(repr, x.tolist()))
    pad = float_text(x) == PAD
    assert (pad[:, 1:] >= pad[:, :-1]).all()  # each row's pads are one run at its end


# "ÿ" is C3 BF and "\U0010ffff" is F4 8F BF BF in UTF-8: high bytes that the writer must not take for PAD
_LABELS = ["a", "", "é", "x\x00y", "\x00", "日本語", "a\x00", "long-" * 9, "ÿ", "\U0010ffff", "𝜁*"]


def _columns(rng, n: int):
    """One column of each kind the writer takes, n rows: floats, days from -999 to 9999, labels with
    NUL and non-ASCII characters, integers, floats with None, and labels picked by an index."""
    floats = rng.standard_t(3, n) * 10.0 ** rng.integers(-30, 30, n)
    days = rng.integers(*rio._DAY_RANGE.astype(np.int64), n, endpoint=True).astype("datetime64[D]")
    days[: min(n, 2)] = rio._DAY_RANGE[: min(n, 2)]
    labels = [_LABELS[i] for i in rng.integers(0, len(_LABELS), n)]
    integers = rng.integers(-(10**12), 10**12, n)
    maybe = [None if k % 3 == 0 else float(v) for k, v in enumerate(rng.standard_normal(n))]
    index = rng.integers(0, len(_LABELS), n)
    return floats, days, labels, integers.tolist(), maybe, rio._Text(_LABELS, index), [_LABELS[i] for i in index]


def _matches_the_repr_writer(tmp_path, n: int) -> None:
    floats, days, labels, integers, maybe, picked, picked_labels = _columns(np.random.default_rng(n), n)
    header = "f,d,l,i,m,p"
    rio._write_csv(tmp_path / "new.csv", header, floats, days, labels, integers, maybe, picked)
    write_csv_by_repr(tmp_path / "old.csv", header, floats, days, labels, integers, maybe, picked_labels)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # each kind alone, and the one-column file
    for column, same in ((floats, floats), (days, days), (maybe, maybe), (picked, picked_labels)):
        rio._write_csv(tmp_path / "new.csv", "c", column)
        write_csv_by_repr(tmp_path / "old.csv", "c", same)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n", [1, rio._WRITE_ROWS - 1, rio._WRITE_ROWS, rio._WRITE_ROWS + 1])
def test_block_writer_matches_the_repr_writer(tmp_path, n):
    _matches_the_repr_writer(tmp_path, n)


@pytest.mark.parametrize("rows", [1, 3])
def test_block_writer_matches_the_repr_writer_in_small_blocks(tmp_path, monkeypatch, rows):
    """Blocks of 1 and 3 rows, so that every row, or every third, starts a block, and files end in a
    block of each length."""
    monkeypatch.setattr(rio, "_WRITE_ROWS", rows)
    for n in (1, 30, 31, 32, 200):
        _matches_the_repr_writer(tmp_path, n)
