"""repr()'s text of float64 values, for an array at once: numpy alone, no Python call per value.

float_text spells each value with the shortest decimal that round-trips to the same
float64, the nearer of two on a tie of lengths, exactly as repr() of a Python float
does: the digits from _decimal, then a template per sign, decimal point position and
digit count that lays them out in repr()'s fixed-point form (decimal point from -3 to
16) or exponent form. Each value's text is ASCII, padded to 24 bytes with PAD (0xFF), a
byte that valid UTF-8 never holds, so a CSV writer can lay floats beside UTF-8 labels
and drop every pad at once.

_decimal is Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), as Java's
DoubleToDecimal has it, over uint64 arrays. A double c * 2**q lies in a rounding interval; with
k = floor(log10(2**q)) the interval, scaled by 10**-k, holds one or two integers s, s + 1, and
at most one multiple of 10 in the scale above. The interval's ends and centre are scaled by
g ~ 10**-k * 2**-r, a 126-bit constant per k, with the round-to-odd product `rop`, which is
exact enough to compare them with those candidates. The one-digit-shorter candidate wins if it
lies inside; else the one of s, s + 1 inside, or on both the closer one, the even one on a tie.
That is the shortest round-trip decimal nearest x, which is repr()'s. Unlike Java, the shorter
candidate is tried from s >= 10 on (Java asks s >= 100: its text has at least two digits, and
repr's '5e-324' has one), and a subnormal is taken as c = t, q = -1074 without rescaling.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_K_MIN = -324  # the least k; the table of g runs to k = 292


def _flog10pow2(e):
    """floor(log10(2**e)) of integers |e| < 5456721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e)) of integers |e| < 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) of integers |e| < 6432162."""
    return (e * 913_124_641_741) >> 38


def _g_limbs() -> np.ndarray:
    """g = floor(10**-k * 2**-r) + 1, r = flog2pow10(-k) - 125, for k = _K_MIN..292: rows g1 = g >> 63
    and g0 = g mod 2**63 split into 32-bit limbs, and g1 whole (g1h, g1l, g1, g0h, g0l)."""
    ks = np.arange(_K_MIN, 293)
    rs = _flog2pow10(-ks) - 125
    g = [(10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
         for k, r in zip(ks.tolist(), rs.tolist())]
    g1 = np.array([v >> 63 for v in g], _U64)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], _U64)
    return np.stack([g1 >> _U64(32), g1 & _M32, g1, g0 >> _U64(32), g0 & _M32])


_G = _g_limbs()


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of the product of a = ah:al (below 2**63) and b = bh:bl (below 2**59), in 32-bit limbs."""
    t = (al * bl >> _U64(32)) + al * bh
    u = (t & _M32) + ah * bl
    return ah * bh + (t >> _U64(32)) + (u >> _U64(32))


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) of finite float64 x: d * 10**k is |x| spelled with repr()'s digits, (0, 0) for a zero."""
    bits = x.view(_U64)
    bq = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64)
    t = bits & _U64((1 << 52) - 1)
    c = np.where(bq != 0, t | _U64(1 << 52), t)
    zero = c == 0
    q = np.maximum(bq, 1) - 1075
    irregular = (t == 0) & (bq > 1)  # a power of two: the interval below is half as wide
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g1h, g1l, g1, g0h, g0l = _G.take(k - _K_MIN, axis=1)
    cb = c << _U64(2)
    cp = np.stack([cb - _U64(2) + irregular, cb, cb + _U64(2)]) << h  # the interval's ends and centre
    # rop: g * cp / 2**127 rounded to odd, from the halves g1 * 2**63 + g0
    cph, cpl = cp >> _U64(32), cp & _M32
    z = (g1 * cp >> _U64(1)) + _mulhi(g0h, g0l, cph, cpl)
    vbl, vb, vbr = _mulhi(g1h, g1l, cph, cpl) + (z >> _U64(63)) | (z << _U64(1) != 0)
    out = c & _U64(1)  # an odd c leaves the interval's ends out
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl + out <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10) << _U64(2)) + out <= vbr
    uin = vbl + out <= s << _U64(2)
    win = (s + _U64(1) << _U64(2)) + out <= vbr
    mid = (s << _U64(2)) + _U64(2)
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & _U64(1) == 1)))
    d = np.where((s >= _U64(10)) & (upin != wpin), sp10 + wpin * _U64(10), s + up)
    d[zero] = 0
    k[zero] = 0
    return d, k


PAD = 0xFF  # the byte past a field's text
# A value's alphabet, 32 bytes: '-', '.', '0', 'e', the exponent's sign and three digits, PAD, six
# unused bytes, then the significand's 17 digits d1..d17, trailing zeros included.
_MINUS, _DOT, _ZERO, _E, _EXP_SIGN, _EXP, _PAD, _DIGITS = 0, 1, 2, 3, 4, 5, 8, 15
_POW10 = _U64(10) ** np.arange(18, dtype=_U64)
# '0000'..'9999', four ASCII digits a uint32, from the pairs '00'..'99'
_PAIRS = (np.arange(100)[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8)
_FOUR_DIGITS = np.concatenate(np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None, :]), axis=2).view(np.uint32).ravel()


def _alphabet_heads() -> np.ndarray:
    """The first 8 bytes of the alphabet, as uint64, per decimal point position -323..309."""
    e = np.arange(-324, 309)  # the exponent, one less than the decimal point position
    a = np.abs(e)
    head = np.empty((e.size, 8), np.uint8)
    head[:, :4] = np.frombuffer(b"-.0e", np.uint8)
    head[:, 4] = np.where(e < 0, ord("-"), ord("+"))
    head[:, 5:] = a[:, None] // [100, 10, 1] % 10 + ord("0")
    return head.view(_U64).ravel()


_HEADS = _alphabet_heads()


def _templates() -> np.ndarray:
    """repr()'s layouts as alphabet indices, padded with _PAD, a row per key: sign * 374 + form * 17 + n - 1 for
    n significant digits, the forms 0..19 fixed-point with the decimal point at -3..16, and 20 and 21
    exponent form with two and three exponent digits."""
    form, n, j = np.ix_(np.arange(22), np.arange(1, 18), np.arange(23))
    p = form - 3  # the decimal point's position in a fixed-point form
    digit = _DIGITS + j
    short = np.select([j == 0, j == 1, j < 2 - p], [_ZERO, _DOT, _ZERO], digit - (2 - p))  # '0.00ddd'
    split = np.select([j < p, j == p], [digit, _DOT], digit - 1)  # 'dd.ddd'
    whole = np.select([j < n, j < p, j == p], [digit, _ZERO, _DOT], _ZERO)  # 'ddd00.0'
    e = np.where(n > 1, n + 1, 1)  # where 'e' goes: after 'd.ddd', or after a lone digit
    n_exp = np.where(form == 21, 3, 2)
    expo = np.select(  # 'd.ddde+dd'
        [(j == 1) & (n > 1), j < e, j == e, j == e + 1], [_DOT, digit - (j > 0), _E, _EXP_SIGN], _EXP + 1 + j - e - n_exp
    )
    fixed = form < 20
    code = np.where(fixed, np.where(p <= 0, short, np.where(p < n, split, whole)), expo)
    size = np.where(fixed, np.where(p <= 0, 2 - p + n, np.where(p < n, n + 1, p + 2)), e + 2 + n_exp)[..., 0]
    code, size = code.reshape(-1, 23).astype(np.int32), size.ravel()
    signed = np.hstack([np.full((size.size, 1), _MINUS, np.int32), code])
    code = np.vstack([np.hstack([code, code[:, :1]]), signed])
    size = np.concatenate([size, size + 1])
    return np.where(np.arange(24) < size[:, None], code, _PAD)


_TEMPLATES = _templates()


def float_text(x: np.ndarray) -> np.ndarray:
    """The text of finite float64 x, an (m, 24) uint8 array: row i is repr() of x[i], then PAD to its end."""
    d, k = _decimal(x)
    length = np.maximum(_POW10.searchsorted(d, side="right"), 1)
    f = d * _POW10[17 - length]  # the digits d1..d17
    d1 = f // _U64(10**16)
    f -= d1 * _U64(10**16)
    eights = np.empty((x.size, 2), _U64)
    eights[:, 0] = f // _U64(10**8)
    eights[:, 1] = f - eights[:, 0] * _U64(10**8)
    fours = np.empty((x.size, 2, 2), _U64)
    fours[:, :, 0] = eights // _U64(10_000)
    fours[:, :, 1] = eights - fours[:, :, 0] * _U64(10_000)
    tail = _FOUR_DIGITS.take(fours.reshape(x.size, 4)).view(_U64)  # d2..d17, 8 bytes a word
    point = k + length  # the decimal point's position: |x| = 0.d1d2... * 10**point
    code = np.empty((x.size, 4), _U64)
    code[:, 0] = _HEADS.take(point + 323)
    code[:, 1] = d1 + _U64(ord("0")) << _U64(56) | _U64(PAD)
    code[:, 2:] = tail
    # the significant digits end at the last byte of d2..d17 that is not '0'; frexp finds a word's top byte
    nbytes = (np.frexp((tail ^ _U64(0x3030_3030_3030_3030)).astype(np.float64))[1] + 7) // 8
    n = 1 + np.where(nbytes[:, 1] > 0, 8 + nbytes[:, 1], nbytes[:, 0])
    form = np.where((point >= -3) & (point <= 16), point + 3, 20 + ((point > 100) | (point < -98)))
    key = (x.view(_U64) >> _U64(63)).astype(np.intp) * 374 + form * 17 + n - 1
    at = _TEMPLATES.take(key, axis=0)
    at += np.arange(0, 32 * x.size, 32)[:, None]  # where each value's alphabet starts
    return code.view(np.uint8).ravel().take(at)
