"""Synthetic heavy-tailed generators and their quadrature oracles.

Two families back the verification suite: the asymmetric Student-t of
Jones & Faddy (tail exponents nu+ and nu- on the two sides) and the
Hermite-corrected Gaussian ("Edgeworth") family with prescribed third
and fourth cumulants. For both, every population quantity the tests
need — normalization, moments, zeta* — is computed by one fixed
composite Gauss-Legendre rule, independently of the samplers.

Heavy tails are tamed with the substitution r = sinh(u): an integrand
decaying like |r|^(-1-nu) becomes exp(-nu u), smooth on panels of equal
width, so 16 nodes on each of 100 panels reach ~1e-14 relative accuracy
even for nu near 1/2. Panel edges sit wherever a density may jump. A
moment r^k decays only like exp(-(nu - k) u), so the asymmetric
Student-t's normalization, mean and variance add the tails beyond the
rule's range in closed form. The nested zeta* integral doubles its panels
until two rules agree.
Samplers invert a 65537-knot CDF grid in the same coordinate, which
keeps them deterministic and portable (no rejection loops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, MomentDoesNotExist, NegativeDensity, NotConverged
from .series import ReturnSeries, _check_seed, _check_size, det_dot, det_sum

GRID_SIZE = 65537

EDGEWORTH_RANGE = 8.0
EDGEWORTH_SCAN_STEP = 1e-3
EDGEWORTH_MAX_CLIPPED_MASS = 1e-4

_SYNTH_EPOCH = np.datetime64("2000-01-01", "D")


def _check_draw(n: int, seed: int) -> None:
    """Refuse a sample size below the 2 points of any ReturnSeries or beyond memory, or a negative seed,
    before any quadrature or draw."""
    if n < 2:
        raise InvalidParams(f"need n >= 2, got {n}")
    _check_size(n, "draws")
    _check_seed(seed)


def _synthetic_series(label: str, values: np.ndarray) -> ReturnSeries:
    dates = _SYNTH_EPOCH + np.arange(values.size)
    return ReturnSeries(label=label, period="daily", dates=dates, values=values)


_PANELS = 100
_GL_T, _GL_W = np.polynomial.legendre.leggauss(16)

# The nested zeta* rule doubles its panels up to _MAX_PANELS per interval, until two rules
# agree to _ZETA_STAR_TOL: relative to zeta*, and absolute where |zeta*| < 1.
_MAX_PANELS = 3200
_ZETA_STAR_TOL = 1e-11


def _nodes(*edges: float, panels: int = _PANELS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite 16-node Gauss-Legendre rule, `panels` equal panels between each pair of edges.

    Returns the nodes and weights, each of shape (panels, 16), and the
    panels' left ends.
    """
    ends = np.concatenate([np.linspace(a, b, panels + 1)[:-1] for a, b in zip(edges, edges[1:])] + [[edges[-1]]])
    left, half = ends[:-1], 0.5 * np.diff(ends)[:, None]
    return left[:, None] + half * (_GL_T + 1.0), half * _GL_W, left


# ---------------------------------------------------------------------------
# Asymmetric Student-t (Jones-Faddy parameterization by tail exponents)
# ---------------------------------------------------------------------------


def _ast_log_unnorm(r: np.ndarray, nu_plus: float, nu_minus: float) -> np.ndarray:
    """log of the unnormalized density, stable in both far tails.

    With q = sqrt(c + r^2), c = (nu+ + nu-)/2 and s = r/q, the factors
    (1 -+ s) are evaluated as c/(q(q+|r|)) and (q+|r|)/q to avoid the
    catastrophic cancellation of 1 - |s| at large |r|.
    """
    r = np.asarray(r, dtype=np.float64)
    c = 0.5 * (nu_plus + nu_minus)
    a = np.abs(r)
    q = np.sqrt(c + r * r)
    log_far = np.log(c) - np.log(q) - np.log(q + a)  # log(1 - |s|)
    log_near = np.log(q + a) - np.log(q)             # log(1 + |s|)
    e_plus = 0.5 * (nu_plus + 1.0)
    e_minus = 0.5 * (nu_minus + 1.0)
    return np.where(
        r >= 0.0,
        e_minus * log_near + e_plus * log_far,
        e_minus * log_far + e_plus * log_near,
    )


@dataclass(frozen=True)
class AsymmetricStudentT:
    """Heavy-tailed density with P(r) ~ |r|^(-1-nu_plus/minus) as r -> +-inf.

    nu_plus > nu_minus skews the distribution negative (thin right tail,
    fat left tail). The normalization is obtained by quadrature and
    cross-checked against the Jones-Faddy closed form in the tests; the
    mean exists iff both exponents exceed 1, the variance iff they
    exceed 2.
    """

    nu_plus: float
    nu_minus: float
    norm_const: float = field(init=False)
    mean: float | None = field(init=False)
    var: float | None = field(init=False)

    def __post_init__(self) -> None:
        if not (0.5 < self.nu_plus < math.inf and 0.5 < self.nu_minus < math.inf):
            raise InvalidParams(
                f"tail exponents must be finite and exceed 1/2, got ({self.nu_plus}, {self.nu_minus})"
            )
        # exp of the unshifted log density overflows past nu ~ 2000; at 1000 the
        # quadrature still matches the scalar-quad oracle
        for name, nu in (("nu_plus", self.nu_plus), ("nu_minus", self.nu_minus)):
            if nu > 1000.0:
                raise InvalidParams(f"tail exponent {name} = {nu} exceeds 1000, the verified range of the quadrature")
        raw, m1, m2 = self._moments(0, 1, 2)
        object.__setattr__(self, "norm_const", 1.0 / (raw + self._tails(0)))
        mean = var = None
        if min(self.nu_plus, self.nu_minus) > 1.0:
            mean = self.norm_const * (m1 + self._tails(1))
            if min(self.nu_plus, self.nu_minus) > 2.0:
                var = self.norm_const * (m2 + self._tails(2)) - mean * mean
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    def _u_max(self) -> float:
        # exp(-nu u) tail of the transformed integrand: make it < 1e-13 relative
        return 30.0 + 45.0 / min(self.nu_plus, self.nu_minus)

    def _tails(self, k: int) -> float:
        """The raw moment k of the unnormalized density beyond +-R = sinh(u_max), the range of `_moments`.

        Out there each side is a constant times |r|^(-1-nu) to a relative
        1/R^2, so its tail is p(R) R^(k+1) / (nu - k): below an ulp of the
        moment unless nu is within ~1 of k (about 1e-2 of the variance at
        nu = 2.1). Needs both exponents above k; equal exponents give an odd
        k exactly 0, and swapping them exactly negates it.
        """
        r = math.sinh(self._u_max())
        p = math.exp(float(_ast_log_unnorm(r, self.nu_plus, self.nu_minus)))
        q = math.exp(float(_ast_log_unnorm(-r, self.nu_plus, self.nu_minus)))
        return r ** (k + 1) * (p / (self.nu_plus - k) + (-1) ** k * q / (self.nu_minus - k))

    def _moments(self, *ks: int) -> list[float]:
        """Raw moments of the unnormalized density, from one evaluation on the nodes.

        Both tails are folded onto u >= 0 and only |x|^k is raised to a
        power, so nu+ = nu- gives odd moments of exactly 0 and swapping
        the exponents exactly negates them.
        """
        u, w, _ = _nodes(0.0, self._u_max())
        x = np.sinh(u.ravel())
        wc = (w * np.cosh(u)).ravel()
        p = np.exp(_ast_log_unnorm(x, self.nu_plus, self.nu_minus))
        q = np.exp(_ast_log_unnorm(-x, self.nu_plus, self.nu_minus))
        return [det_dot(wc * x**k, p - q if k % 2 else p + q) for k in ks]


def ast_density(x, dist: AsymmetricStudentT) -> np.ndarray:
    """Density values of the asymmetric Student-t at x (vectorized)."""
    return dist.norm_const * np.exp(_ast_log_unnorm(np.asarray(x, dtype=np.float64), dist.nu_plus, dist.nu_minus))


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of y(x) at x[1:]; scipy's cumulative_simpson, operation for operation."""
    def firsts(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
        # the integral over the first interval of each knot triple, unequal widths
        x21, x32 = dx[:-1], dx[1:]
        r = x21 / (x21 + x32)
        rr = r * (x21 / x32)
        return x21 / 6 * ((3 - r) * y[:-2] + (3 + rr + r) * y[1:-1] - rr * y[2:])

    dx = np.diff(x)
    h1, h2 = firsts(y, dx), firsts(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(dx.size)
    pieces[:-1:2], pieces[1::2], pieces[-1] = h1[::2], h2[::2], h2[-1]
    return np.cumsum(pieces)


def _cdf_knots(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Monotone CDF at the knots x of a density sampled as g there, scaled to end at 1."""
    cdf = np.concatenate(([0.0], _cumulative_simpson(g, x)))
    cdf /= cdf[-1]
    return np.maximum.accumulate(cdf)


def _ast_cdf_grid(dist: AsymmetricStudentT) -> tuple[np.ndarray, np.ndarray]:
    """Monotone CDF knots on a uniform grid in u = asinh(r)."""
    um = dist._u_max()
    u = np.linspace(-um, um, GRID_SIZE)
    return u, _cdf_knots(ast_density(np.sinh(u), dist) * np.cosh(u), u)


def _draw(knots: np.ndarray, cdf: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n inverse-CDF draws: the seed's uniforms, interpolated from the CDF values back to their knots.

    `np.interp` looks up each uniform on its own, so it runs on them sorted, where successive lookups
    land near each other (2x faster at n = 150 000), and the draws are scattered back to the uniforms'
    places through the sort order: every draw keeps its bits. Three n-arrays are held at a time.
    """
    u = np.random.default_rng(seed).random(n)
    order = u.argsort()
    u.sort()
    u[order] = np.interp(u, cdf, knots)
    return u


def ast_sample(n: int, dist: AsymmetricStudentT, seed: int) -> ReturnSeries:
    """Inverse-CDF draws; identical output for identical (dist, n, seed)."""
    _check_draw(n, seed)
    u = _draw(*_ast_cdf_grid(dist), n, seed)
    return _synthetic_series(f"ast({dist.nu_plus:g},{dist.nu_minus:g})", np.sinh(u))


def ast_zeta3_exact(dist: AsymmetricStudentT) -> float:
    """Classical skewness by quadrature, each raw moment with its tail beyond the rule; requires both exponents > 3."""
    if min(dist.nu_plus, dist.nu_minus) <= 3.0:
        raise MomentDoesNotExist(
            f"zeta3 needs nu+- > 3, got ({dist.nu_plus}, {dist.nu_minus})"
        )
    m1 = dist.mean
    m2, m3 = (dist.norm_const * (m + dist._tails(k)) for k, m in zip((2, 3), dist._moments(2, 3)))
    mu2 = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    return mu3 / mu2**1.5


def _zeta_star_of_pdf(density, dist, *breaks: float) -> float:
    """zeta* of `dist` standardized, by the nested double integral.

    zeta* = -100 int_0^inf dx P_s(x) int_0^x dy y P_a(y), with P_s/P_a the
    symmetric/antisymmetric parts of sd * density(mu + sd * x, dist).
    Both integrals run in the sinh coordinate on the panels of
    `_nodes(*breaks)`: 0 first, the outer limit last, and every point where
    the density may jump in between. The inner integral at an outer node is
    the sum of the panels to its left plus a 16-node rule on the rest of
    its own panel.

    The rule runs on _PANELS // 2 panels per interval and on twice as many,
    doubling until two successive values agree to _ZETA_STAR_TOL, and returns
    the finer one. A smooth density stops at _PANELS panels; a steep one, such
    as a thin tail next to a left tail near nu = 2 whose large variance
    squeezes the bulk near 0, takes more. One not resolved by _MAX_PANELS
    is refused with NotConverged.
    """
    mu, sd = dist.mean, math.sqrt(dist.var)

    def pdf(x):
        return sd * density(mu + sd * x, dist)

    def inner(v: np.ndarray) -> np.ndarray:
        y = np.sinh(v)
        return y * (pdf(y) - pdf(-y)) * np.cosh(v)

    def rule(panels: int) -> float:
        u, w, left = _nodes(*breaks, panels=panels)
        half = 0.5 * (u - left[:, None])
        v = left[:, None, None] + half[..., None] * (_GL_T + 1.0)  # 16 nodes between each u and its panel's left end
        rest = np.add.reduce(half[..., None] * _GL_W * inner(v), axis=-1)
        done = np.cumsum(np.add.reduce(w * inner(u), axis=-1))
        below = np.concatenate(([0.0], done[:-1]))
        x = np.sinh(u)
        return -100.0 * det_dot((w * (pdf(x) + pdf(-x)) * np.cosh(u)).ravel(), (below[:, None] + rest).ravel())

    coarse, panels = rule(_PANELS // 2), _PANELS
    while abs((fine := rule(panels)) - coarse) > _ZETA_STAR_TOL * max(abs(fine), 1.0):
        if panels >= _MAX_PANELS:
            raise NotConverged(
                f"zeta* moved by {abs(fine - coarse):.2g} between {panels // 2} and {panels} panels, "
                f"more than the {_ZETA_STAR_TOL:g} the quadrature is verified to"
            )
        coarse, panels = fine, 2 * panels
    return fine


def ast_zeta_star_exact(dist: AsymmetricStudentT) -> float:
    """zeta* of the standardized density by quadrature.

    This is the value the sample estimator converges to; it needs a
    finite variance, hence nu+- > 2.
    """
    if dist.var is None:
        raise MomentDoesNotExist(f"standardized zeta* needs nu+- > 2, got ({dist.nu_plus}, {dist.nu_minus})")
    sd = math.sqrt(dist.var)
    return _zeta_star_of_pdf(ast_density, dist, 0.0, math.asinh(math.sinh(dist._u_max()) / sd + 1.0))


@dataclass(frozen=True)
class Fig10Row:
    nu_plus: float
    zeta3: float | None
    zeta_star: float


def fig10_sweep(nu_minus: float = 3.5, nu_plus_grid=(3.2, 3.5, 4.0, 5.0, 7.0, 10.0)) -> list[Fig10Row]:
    """Quadrature-exact (nu+, zeta3, zeta*) table at fixed nu-.

    zeta3 is reported only where it exists (nu+ > 3 and nu- > 3);
    elsewhere the column is empty.
    """
    rows = []
    for nup in nu_plus_grid:
        dist = AsymmetricStudentT(nu_plus=float(nup), nu_minus=float(nu_minus))
        z3 = None
        if min(dist.nu_plus, dist.nu_minus) > 3.0:
            z3 = ast_zeta3_exact(dist)
        rows.append(Fig10Row(nu_plus=float(nup), zeta3=z3, zeta_star=ast_zeta_star_exact(dist)))
    return rows


# ---------------------------------------------------------------------------
# Hermite-corrected Gaussian ("Edgeworth") family
# ---------------------------------------------------------------------------


def _edgeworth_raw(x: np.ndarray, zeta3: float, kurt: float) -> np.ndarray:
    """Gaussian times the Hermite correction for cumulants (zeta3, kurt)."""
    x = np.asarray(x, dtype=np.float64)
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    he3 = x**3 - 3.0 * x
    he4 = x**4 - 6.0 * x * x + 3.0
    return phi * (1.0 + zeta3 / 6.0 * he3 + kurt / 24.0 * he4)


@dataclass(frozen=True)
class EdgeworthDensity:
    """Truncated, renormalized Hermite-corrected Gaussian.

    The raw expansion dips negative in a far tail for most parameter
    choices; the support is cut back to the widest interval around zero
    on which it stays nonnegative (scanned at 1e-3 resolution on
    [-8, 8]). Construction refuses (NegativeDensity) when the clipped
    mass exceeds 1e-4 — refusing, never clipping visibly skewed mass.
    Moments of the renormalized density (the quadrature "truth" the
    samplers must match) are computed at construction.
    """

    zeta3: float
    kurt: float
    support: tuple[float, float] = field(init=False)
    norm: float = field(init=False)
    mean: float = field(init=False)
    var: float = field(init=False)
    zeta3_eff: float = field(init=False)
    kurt_eff: float = field(init=False)

    def __post_init__(self) -> None:
        if not (abs(self.zeta3) <= 0.3 and 0.0 <= self.kurt <= 3.0):
            raise InvalidParams(
                f"parameters outside |zeta3| <= 0.3, kurt in [0, 3]: ({self.zeta3}, {self.kurt})"
            )
        r = EDGEWORTH_RANGE
        xs = np.arange(-r, r + EDGEWORTH_SCAN_STEP / 2, EDGEWORTH_SCAN_STEP)
        d = _edgeworth_raw(xs, self.zeta3, self.kurt)
        neg = d < 0.0
        i0 = int(np.searchsorted(xs, 0.0))
        below, above = np.flatnonzero(neg[:i0]), np.flatnonzero(neg[i0 + 1 :])
        lo = int(below[-1]) + 1 if below.size else 0  # past the last negative point below 0
        hi = i0 + int(above[0]) if above.size else xs.size - 1  # before the first one above 0
        clipped = np.abs(d)
        clipped[lo : hi + 1] = 0.0
        clipped_mass = float(np.trapezoid(clipped, xs))
        if clipped_mass > EDGEWORTH_MAX_CLIPPED_MASS:
            raise NegativeDensity(
                f"expansion negative near x = {xs[neg][0]:.3f}; clipped mass "
                f"{clipped_mass:.2e} exceeds {EDGEWORTH_MAX_CLIPPED_MASS:g}"
            )
        lo_x, hi_x = float(xs[lo]), float(xs[hi])
        object.__setattr__(self, "support", (lo_x, hi_x))
        t, w, _ = _nodes(lo_x, hi_x)
        t = t.ravel()
        wd = w.ravel() * _edgeworth_raw(t, self.zeta3, self.kurt)
        z = det_sum(wd)
        object.__setattr__(self, "norm", z)
        m1 = det_dot(wd, t) / z
        d = t - m1
        d2 = d * d
        m2 = det_dot(wd, d2) / z
        m3 = det_dot(wd * d2, d) / z
        m4 = det_dot(wd * d2, d2) / z
        object.__setattr__(self, "mean", m1)
        object.__setattr__(self, "var", m2)
        object.__setattr__(self, "zeta3_eff", m3 / m2**1.5)
        object.__setattr__(self, "kurt_eff", m4 / (m2 * m2) - 3.0)


def edgeworth_density(x, dist: EdgeworthDensity) -> np.ndarray:
    """Renormalized density values; zero outside the accepted support."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = dist.support
    inside = (x >= lo) & (x <= hi)
    return np.where(inside, np.maximum(_edgeworth_raw(x, dist.zeta3, dist.kurt), 0.0) / dist.norm, 0.0)


def edgeworth_sample(n: int, zeta3: float, kurt: float, seed: int) -> ReturnSeries:
    """Inverse-CDF draws from the truncated, renormalized density."""
    _check_draw(n, seed)
    dist = EdgeworthDensity(zeta3=zeta3, kurt=kurt)
    x = np.linspace(*dist.support, GRID_SIZE)
    values = _draw(x, _cdf_knots(edgeworth_density(x, dist), x), n, seed)
    return _synthetic_series(f"edgeworth({zeta3:g},{kurt:g})", values)


def edgeworth_zeta_star_exact(dist: EdgeworthDensity) -> float:
    """zeta* of the standardized truncated density, by quadrature."""
    mu, sd = dist.mean, math.sqrt(dist.var)
    lo, hi = dist.support
    ends = sorted(math.asinh(e) for e in ((mu - lo) / sd, (hi - mu) / sd))
    u_max = math.asinh(max(abs(lo), abs(hi)) / sd + 1.0)
    return _zeta_star_of_pdf(edgeworth_density, dist, 0.0, *ends, u_max)


def gaussian_sample(n: int, seed: int) -> ReturnSeries:
    """Standard-normal draws, the symmetric null of every estimator."""
    _check_draw(n, seed)
    values = np.random.default_rng(seed).standard_normal(n)
    return _synthetic_series("gaussian", values)
