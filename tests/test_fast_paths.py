"""The large-N fast paths against the general-purpose code they replace, bit for bit.

Each fast path takes a shortcut that the data make safe: the amplitude order
uses numpy's default argsort when no two amplitudes tie, the inverse-CDF draw
looks its uniforms up sorted, and the column parser checks a block's
separators at once. These properties hold the shortcuts to the general
path on the inputs where they could part: ties, signed zeros, tick-rounded
returns, every sampler grid, and blocks whose lines trade commas.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankskew import AsymmetricStudentT, EdgeworthDensity, read_panel, read_series
from rankskew import io as rio
from rankskew import synth
from rankskew.skew import amplitude_order
from tests.test_io_blocks import _compare, _panel_rows, _scanned_panel, _scanned_series, _series_rows

# ---------------------------------------------------------------------------
# amplitude_order: the stable argsort of |v|
# ---------------------------------------------------------------------------


def _amplitudes(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], n)
    if kind == "distinct":
        return rng.standard_t(4, n)
    if kind == "ticks":  # returns rounded to a tick, tied within and across signs
        return np.round(rng.standard_t(4, n) * 0.01, int(rng.integers(2, 5)))
    if kind == "few":  # a handful of amplitudes, each on both sides of zero
        return signs * rng.choice(rng.random(int(rng.integers(1, 6))), n)
    if kind == "zeros":  # +0.0 and -0.0 among distinct values
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.3] = 0.0
        return v * np.where(v == 0.0, signs, 1.0)
    if kind == "one tie":  # distinct but for one pair, which the tie check must see wherever it falls
        v = rng.standard_normal(n)
        i, j = rng.choice(n, 2, replace=False)
        v[j] = -v[i] if rng.random() < 0.5 else v[i]
        return v
    return signs * float(rng.standard_normal())  # "equal": all of one amplitude


@given(
    kind=st.sampled_from(["distinct", "ticks", "few", "zeros", "one tie", "equal"]),
    n=st.integers(2, 5000),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="zeros", n=2, seed=0)
@example(kind="equal", n=2, seed=1)
@settings(max_examples=300, deadline=None)
def test_amplitude_order_is_the_stable_argsort_of_amplitudes(kind, n, seed):
    v = _amplitudes(kind, n, seed)
    got = amplitude_order(v)
    assert got.dtype == np.intp and np.array_equal(got, np.argsort(np.abs(v), kind="stable"))


# ---------------------------------------------------------------------------
# synth._draw: np.interp on the unsorted uniforms
# ---------------------------------------------------------------------------

_EDGEWORTH = [(0.0, 0.0), (0.1, 0.0), (0.2, 1.0), (-0.3, 0.5), (0.3, 3.0)]


@given(
    nu_plus=st.floats(2.1, 30.0),
    nu_minus=st.floats(2.1, 30.0),
    n=st.integers(2, 20_000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ast_draw_is_interp_of_the_unsorted_uniforms(nu_plus, nu_minus, n, seed):
    knots, cdf = synth._ast_cdf_grid(AsymmetricStudentT(nu_plus, nu_minus))
    want = np.interp(np.random.default_rng(seed).random(n), cdf, knots)
    assert synth._draw(knots, cdf, n, seed).tobytes() == want.tobytes()


@given(shape=st.sampled_from(_EDGEWORTH), n=st.integers(2, 20_000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_edgeworth_draw_is_interp_of_the_unsorted_uniforms(shape, n, seed):
    dist = EdgeworthDensity(*shape)
    x = np.linspace(*dist.support, synth.GRID_SIZE)
    cdf = synth._cdf_knots(synth.edgeworth_density(x, dist), x)
    want = np.interp(np.random.default_rng(seed).random(n), cdf, x)
    assert synth._draw(x, cdf, n, seed).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The column parser's separator check: lines that trade commas
# ---------------------------------------------------------------------------


@st.composite
def comma_trades(draw, header: str, rows) -> str:
    """A text of canonical characters, with as many commas as its lines need in all, in which one line
    has none and another has twice its share: a blank line or a row with its commas taken out, and a
    row with extra fields."""
    ncol = header.count(",") + 1
    body = [",".join(row) for row in rows(draw, None)]
    if draw(st.booleans()):
        giver = draw(st.integers(0, len(body)))
        body.insert(giver, "")
    else:
        assume(len(body) > 1)
        giver = draw(st.integers(0, len(body) - 1))
        body[giver] = body[giver].replace(",", "")
    taker = draw(st.integers(0, len(body) - 1).filter(lambda k: k != giver))
    body[taker] += "".join("," + draw(st.sampled_from(["x", "1.5", "2001-01-01"])) for _ in range(ncol - 1))
    text = "\n".join([header, *body])
    return text if draw(st.booleans()) else text + "\n"


def _reaches_scanner(tmp_path_factory, text: str, header: str, block: int) -> None:
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rio, "_BLOCK_CHARS", block)
        assert list(rio._column_blocks(str(path), header))[-1] is None


@given(text=comma_trades("date,value", _series_rows), block=st.sampled_from([1, 24, 100, 1 << 16]))
# the trade a total comma count cannot see, which the scanner reads: it skips the blank line and the extra field
@example(text="date,value\n2001-01-01,0.5\n\n2001-01-02,0.25,x\n", block=1 << 16)
@example(text="date,value\n2001-01-010.5\n2001-01-02,0.25,x\n", block=1 << 16)
@example(text="date,value\n2001-01-01,0.5,x\n2001-01-020.25", block=1 << 16)
@settings(max_examples=200, deadline=None)
def test_series_lines_that_trade_commas_reach_the_scanner(tmp_path_factory, text, block):
    _reaches_scanner(tmp_path_factory, text, "date,value", block)
    _compare(tmp_path_factory, text, block, read_series, _scanned_series)
    _compare(tmp_path_factory, text, block, lambda p: rio._parse_series(p) or rio._scan_series(p), rio._scan_series)


@given(text=comma_trades("date,asset,value", _panel_rows), block=st.sampled_from([1, 30, 120, 1 << 16]))
@example(text="date,asset,value\n2001-01-01,a,0.5\n\n2001-01-02,a,0.25,x,x\n", block=1 << 16)
@settings(max_examples=200, deadline=None)
def test_panel_lines_that_trade_commas_reach_the_scanner(tmp_path_factory, text, block):
    _reaches_scanner(tmp_path_factory, text, "date,asset,value", block)
    _compare(tmp_path_factory, text, block, read_panel, _scanned_panel)

