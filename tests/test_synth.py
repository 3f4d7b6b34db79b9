from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, quad
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn
from scipy.stats import t as student_t

from rankskew import (
    AsymmetricStudentT,
    EdgeworthDensity,
    InvalidParams,
    MomentDoesNotExist,
    NegativeDensity,
    NotConverged,
    ast_density,
    ast_sample,
    ast_zeta3_exact,
    ast_zeta_star_exact,
    edgeworth_density,
    edgeworth_sample,
    edgeworth_zeta_star_exact,
    fig10_sweep,
    gaussian_sample,
)
from rankskew.synth import (
    EDGEWORTH_RANGE,
    EDGEWORTH_SCAN_STEP,
    GRID_SIZE,
    _ast_cdf_grid,
    _cumulative_simpson,
    _edgeworth_raw,
)
from tests.oracles import (
    AsymmetricStudentTQuad,
    ast_zeta3_mpmath,
    ast_zeta_star_mpmath,
    ast_zeta_star_quad,
    edgeworth_moments_quad,
    edgeworth_zeta_star_closed_form,
    edgeworth_zeta_star_split_quad,
)
from tests.test_acceptance import AST_CASES, EDGEWORTH_CASES, SWEEP_GRID


def jones_faddy_norm(nu_plus: float, nu_minus: float) -> float:
    """Closed-form normalization, independent of the quadrature route."""
    a, b = nu_minus / 2.0, nu_plus / 2.0
    return 1.0 / (2.0 ** (a + b - 1.0) * beta_fn(a, b) * math.sqrt(a + b))


def jones_faddy_mean(nu_plus: float, nu_minus: float) -> float:
    a, b = nu_minus / 2.0, nu_plus / 2.0
    return (
        (a - b)
        * math.sqrt(a + b)
        * gamma_fn(a - 0.5)
        * gamma_fn(b - 0.5)
        / (2.0 * gamma_fn(a) * gamma_fn(b))
    )


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def test_rejects_small_exponents():
    with pytest.raises(InvalidParams):
        AsymmetricStudentT(0.5, 3.0)
    with pytest.raises(InvalidParams):
        AsymmetricStudentT(3.0, 0.4)


def test_symmetric_case_is_classical_student_t():
    for nu in (1.0, 4.0, 8.0):
        dist = AsymmetricStudentT(nu, nu)
        x = np.linspace(-30.0, 30.0, 1001)
        assert np.max(np.abs(ast_density(x, dist) - student_t.pdf(x, df=nu))) < 1e-10


def test_symmetry_in_parameters():
    d1 = AsymmetricStudentT(5.0, 3.5)
    d2 = AsymmetricStudentT(3.5, 5.0)
    x = np.linspace(-20.0, 20.0, 401)
    assert np.allclose(ast_density(x, d1), ast_density(-x, d2), atol=1e-14)


@pytest.mark.parametrize("nu_plus,nu_minus", [(5.0, 3.5), (4.0, 3.5), (0.6, 9.0), (3.5, 3.5)])
def test_norm_const_matches_closed_form(nu_plus, nu_minus):
    dist = AsymmetricStudentT(nu_plus, nu_minus)
    assert dist.norm_const == pytest.approx(jones_faddy_norm(nu_plus, nu_minus), rel=1e-9)


def test_density_integrates_to_one():
    dist = AsymmetricStudentT(5.0, 3.5)
    total = sum(
        quad(
            lambda u: float(ast_density(math.sinh(u), dist)) * math.cosh(u),
            lo, hi, limit=300,
        )[0]
        for lo, hi in [(-45.0, 0.0), (0.0, 45.0)]
    )
    assert abs(total - 1.0) < 1e-8


def test_mean_and_existence_conditions():
    dist = AsymmetricStudentT(5.0, 3.5)
    assert dist.mean == pytest.approx(jones_faddy_mean(5.0, 3.5), rel=1e-10)
    assert dist.var is not None and dist.var > 0
    no_mean = AsymmetricStudentT(0.9, 5.0)
    assert no_mean.mean is None and no_mean.var is None
    no_var = AsymmetricStudentT(1.5, 5.0)
    assert no_var.mean is not None and no_var.var is None


def test_tail_exponents():
    dist = AsymmetricStudentT(5.0, 3.5)
    r = np.geomspace(1e2, 1e4, 40)
    right = np.polyfit(np.log(r), np.log(ast_density(r, dist)), 1)[0]
    left = np.polyfit(np.log(r), np.log(ast_density(-r, dist)), 1)[0]
    assert right == pytest.approx(-6.0, abs=0.05)
    assert left == pytest.approx(-4.5, abs=0.05)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def test_sampler_deterministic():
    dist = AsymmetricStudentT(5.0, 3.5)
    a = ast_sample(1000, dist, seed=3)
    b = ast_sample(1000, dist, seed=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, ast_sample(1000, dist, seed=4).values)


@pytest.mark.parametrize("n", [0, 1])
def test_samplers_refuse_fewer_than_two_points_before_any_work(monkeypatch, n):
    """Every ReturnSeries has 2 points: the samplers say so before a CDF grid, density or draw."""
    dist = AsymmetricStudentT(5.0, 3.5)

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the length check")

    monkeypatch.setattr("rankskew.synth._ast_cdf_grid", refuse)
    monkeypatch.setattr("rankskew.synth.EdgeworthDensity", refuse)
    monkeypatch.setattr("rankskew.synth.np.random.default_rng", refuse)
    draws = (lambda: ast_sample(n, dist, 1), lambda: edgeworth_sample(n, 0.1, 0.0, 1), lambda: gaussian_sample(n, 1))
    for draw in draws:
        with pytest.raises(InvalidParams, match=f"need n >= 2, got {n}"):
            draw()


def test_sampler_kolmogorov_distance():
    dist = AsymmetricStudentT(5.0, 3.5)
    n = 100_000
    draws = np.sort(ast_sample(n, dist, seed=8).values)
    u_knots, cdf_knots = _ast_cdf_grid(dist)
    cdf = np.interp(np.arcsinh(draws), u_knots, cdf_knots)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert d < 2.0 / math.sqrt(n)


def test_cdf_grid_against_adaptive_quadrature():
    dist = AsymmetricStudentT(5.0, 3.5)
    u_knots, cdf_knots = _ast_cdf_grid(dist)
    for x in (-8.0, -1.0, 0.0, 0.7, 3.0, 25.0):
        direct = quad(
            lambda u: float(ast_density(math.sinh(u), dist)) * math.cosh(u),
            -45.0, math.asinh(x), limit=400,
        )[0]
        grid_val = float(np.interp(math.asinh(x), u_knots, cdf_knots))
        assert grid_val == pytest.approx(direct, abs=1e-7)


def test_cumulative_simpson_matches_scipy_bit_for_bit():
    """The samplers' CDF grids are scipy's cumulative_simpson to the last bit."""
    dist = AsymmetricStudentT(5.0, 3.5)
    um = dist._u_max()
    u = np.linspace(-um, um, GRID_SIZE)
    g = ast_density(np.sinh(u), dist) * np.cosh(u)
    assert np.array_equal(_cumulative_simpson(g, u), cumulative_simpson(g, x=u))
    for zeta3, kurt in sorted(EDGEWORTH_CASES):
        edge = EdgeworthDensity(zeta3, kurt)
        x = np.linspace(*edge.support, GRID_SIZE)
        g = edgeworth_density(x, edge)
        assert np.array_equal(_cumulative_simpson(g, x), cumulative_simpson(g, x=x))


def test_sample_moments_match_quadrature():
    dist = AsymmetricStudentT(8.0, 8.0)
    draws = ast_sample(10_000_000, dist, seed=5).values
    sigma = math.sqrt(dist.var)
    assert abs(draws.mean() - dist.mean) < 3.0 * sigma / math.sqrt(draws.size)
    assert abs(draws.var() / dist.var - 1.0) < 0.01


# ---------------------------------------------------------------------------
# Quadrature oracles
# ---------------------------------------------------------------------------


def test_zeta3_symmetric_zero_and_swap_antisymmetry():
    assert ast_zeta3_exact(AsymmetricStudentT(4.0, 4.0)) == pytest.approx(0.0, abs=1e-10)
    z_ab = ast_zeta3_exact(AsymmetricStudentT(5.0, 3.5))
    z_ba = ast_zeta3_exact(AsymmetricStudentT(3.5, 5.0))
    assert z_ab == pytest.approx(-z_ba, rel=1e-9)
    assert z_ab < 0  # thin right tail, fat left tail: negative skew


def test_equal_exponents_give_exact_zeros_and_swap_exactly_negates():
    assert ast_zeta3_exact(AsymmetricStudentT(4.0, 4.0)) == 0.0
    assert ast_zeta_star_exact(AsymmetricStudentT(3.5, 3.5)) == 0.0
    assert AsymmetricStudentT(4.0, 4.0).mean == 0.0
    assert ast_zeta3_exact(AsymmetricStudentT(5.0, 3.5)) == -ast_zeta3_exact(AsymmetricStudentT(3.5, 5.0))
    assert ast_zeta_star_exact(AsymmetricStudentT(5.0, 3.5)) == -ast_zeta_star_exact(AsymmetricStudentT(3.5, 5.0))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * abs(want)


STANDARDIZED_CASES = sorted(set(AST_CASES) | {(nup, 3.5) for nup in SWEEP_GRID} | {(2.5, 2.2)})


@pytest.mark.parametrize("nu_plus,nu_minus", STANDARDIZED_CASES)
def test_ast_rule_matches_scalar_quad_oracle(nu_plus, nu_minus):
    """Normalization, mean, variance and zeta* agree with nested scalar `quad`. zeta3 is held to the
    closed-form moments instead: the scalar rule stops at the same range and drops the same tail."""
    new = AsymmetricStudentT(nu_plus, nu_minus)
    old = AsymmetricStudentTQuad(nu_plus, nu_minus)
    for got, want in ((new.norm_const, old.norm_const), (new.mean, old.mean), (new.var, old.var)):
        assert _close(got, want), (got, want)
    assert _close(ast_zeta_star_exact(new), ast_zeta_star_quad(old))


@pytest.mark.parametrize("nu_plus,nu_minus", [(p, m) for p, m in STANDARDIZED_CASES if min(p, m) > 3.0 and p != m])
def test_ast_zeta3_matches_closed_form_moments(nu_plus, nu_minus):
    """zeta3 agrees with Jones and Faddy's moments to 1e-12, each raw moment with its tail beyond the
    rule's range: without the tails it was 3.2e-4 low at (3.2, 3.5) and 1.9e-9 off at (5, 3.5). Equal
    exponents give exactly 0 (test_equal_exponents_give_exact_zeros_and_swap_exactly_negates)."""
    pytest.importorskip("mpmath")
    got = ast_zeta3_exact(AsymmetricStudentT(nu_plus, nu_minus))
    assert _close(got, ast_zeta3_mpmath(nu_plus, nu_minus)), got


@pytest.mark.parametrize("nu_plus,nu_minus", [(1000.0, 3.5), (3.5, 1000.0)])
def test_ast_rule_matches_scalar_quad_oracle_at_the_exponent_bound(nu_plus, nu_minus):
    """The largest exponent the constructor takes; zeta* agrees to 1.5e-12 there, not 1e-12."""
    new = AsymmetricStudentT(nu_plus, nu_minus)
    old = AsymmetricStudentTQuad(nu_plus, nu_minus)
    for got, want in ((new.norm_const, old.norm_const), (new.mean, old.mean), (new.var, old.var)):
        assert _close(got, want), (got, want)
    got, want = ast_zeta_star_exact(new), ast_zeta_star_quad(old)
    assert abs(got - want) <= 2e-12 * abs(want), (got, want)


@pytest.mark.parametrize("nu_plus,nu_minus", [(10.0, 2.1), (100.0, 2.1)])
def test_ast_zeta_star_near_nu_minus_two_matches_mpmath(nu_plus, nu_minus):
    """A left tail near nu = 2. The variance needs its tail beyond the rule's range (4e-3 of zeta* at
    (10, 2.1) without it), and the thin right tail beside the bulk, which the large variance squeezes
    near 0, needs finer panels: 4.5e-4 of zeta* at (100, 2.1) on 100 panels, which stops at 800."""
    pytest.importorskip("mpmath")
    got = ast_zeta_star_exact(AsymmetricStudentT(nu_plus, nu_minus))
    want = ast_zeta_star_mpmath(nu_plus, nu_minus)
    assert abs(got - want) <= 1e-11 * abs(want), (got, want)
    assert ast_zeta_star_exact(AsymmetricStudentT(nu_minus, nu_plus)) == -got


def test_ast_zeta_star_refuses_what_the_rule_cannot_resolve():
    with pytest.raises(NotConverged, match="3200 panels"):
        ast_zeta_star_exact(AsymmetricStudentT(1000.0, 2.001))


@pytest.mark.parametrize("nu_plus,nu_minus", [(0.7, 0.9), (1.5, 4.0)])
def test_ast_rule_matches_scalar_quad_oracle_raw_density(nu_plus, nu_minus):
    new = AsymmetricStudentT(nu_plus, nu_minus)
    old = AsymmetricStudentTQuad(nu_plus, nu_minus)
    assert _close(new.norm_const, old.norm_const)


def test_zeta3_requires_third_moment():
    with pytest.raises(MomentDoesNotExist):
        ast_zeta3_exact(AsymmetricStudentT(3.0, 3.5))


def test_zeta_star_exact_symmetric_and_swap():
    assert ast_zeta_star_exact(AsymmetricStudentT(3.5, 3.5)) == pytest.approx(0.0, abs=1e-8)
    z_ab = ast_zeta_star_exact(AsymmetricStudentT(5.0, 3.5))
    z_ba = ast_zeta_star_exact(AsymmetricStudentT(3.5, 5.0))
    assert z_ab == pytest.approx(-z_ba, rel=1e-8)
    assert z_ab < 0


def test_zeta_star_standardized_needs_variance():
    heavy = AsymmetricStudentT(1.8, 1.8)
    with pytest.raises(MomentDoesNotExist):
        ast_zeta_star_exact(heavy)


def test_fig10_sweep_small_grid():
    rows = fig10_sweep(nu_minus=3.5, nu_plus_grid=(3.0, 3.5, 4.0))
    assert rows[0].zeta3 is None  # third moment does not exist at nu+ = 3
    assert rows[1].zeta_star == pytest.approx(0.0, abs=1e-8)
    stars = [r.zeta_star for r in rows]
    assert stars[0] > stars[1] > stars[2]


# ---------------------------------------------------------------------------
# Edgeworth family
# ---------------------------------------------------------------------------


def test_edgeworth_gaussian_limit():
    dist = EdgeworthDensity(0.0, 0.0)
    x = np.linspace(-7.9, 7.9, 801)
    phi = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(edgeworth_density(x, dist) - phi)) < 1e-9
    assert dist.mean == pytest.approx(0.0, abs=1e-12)
    assert dist.var == pytest.approx(1.0, abs=1e-10)


def test_edgeworth_rejects_strong_skew():
    with pytest.raises(NegativeDensity) as exc:
        # legal parameter box but visibly negative density
        EdgeworthDensity(0.3, 0.0)
    assert "x =" in str(exc.value)
    with pytest.raises(InvalidParams):
        EdgeworthDensity(1.5, 0.0)
    with pytest.raises(InvalidParams):
        EdgeworthDensity(0.1, 5.0)


def test_edgeworth_support_and_normalization():
    dist = EdgeworthDensity(0.1, 0.0)
    lo, hi = dist.support
    assert lo == pytest.approx(-4.169, abs=0.01)
    assert hi == pytest.approx(8.0, abs=1e-9)
    total = quad(lambda x: float(edgeworth_density(x, dist)), lo, hi, limit=300)[0]
    assert abs(total - 1.0) < 1e-8
    x = np.arange(lo, hi, 1e-3)
    assert np.all(edgeworth_density(x, dist) >= 0.0)


def test_edgeworth_sample_matches_quadrature_moments():
    dist = EdgeworthDensity(0.2, 1.0)
    draws = edgeworth_sample(1_000_000, 0.2, 1.0, seed=7).values
    z = (draws - draws.mean()) / draws.std()
    z3_hat = float(np.mean(z**3))
    kurt_hat = float(np.mean(z**4)) - 3.0
    # sampling error of the skewness estimator at n = 1e6 is ~0.004 here
    assert z3_hat == pytest.approx(dist.zeta3_eff, abs=0.02)
    assert kurt_hat == pytest.approx(dist.kurt_eff, abs=0.05)
    assert float(draws.std() ** 2) == pytest.approx(dist.var, abs=0.01)


def test_edgeworth_zeta_star_quadrature_values():
    # frozen from the double-integral oracle; (0.2, 1) is exactly
    # (50/3pi) * 0.2 * (1 - 1/8) because its support needs no truncation
    assert edgeworth_zeta_star_exact(EdgeworthDensity(0.2, 1.0)) == pytest.approx(
        50.0 / (3.0 * math.pi) * 0.2 * 0.875, rel=1e-6
    )
    assert edgeworth_zeta_star_exact(EdgeworthDensity(0.1, 0.0)) == pytest.approx(
        0.53024, abs=2e-4
    )


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.floats(-0.3, -1e-3), st.floats(1e-3, 0.3)), st.floats(0.0, 3.0))
def test_edgeworth_zeta_star_is_the_closed_form_where_uncut(zeta3, kurt):
    """On every accepted point whose support is not cut back from [-8, 8], the quadrature is
    (50/(3 pi)) zeta3 (1 - kurt/8): the relation is exact there, and only the cut moves it.
    The quadrature of a nearly symmetric density loses relative digits as zeta3 shrinks (4.5e-9 at
    zeta3 = 1e-7, kurt = 3), so |zeta3| is drawn from 1e-3 up."""
    try:
        dist = EdgeworthDensity(zeta3, kurt)
    except NegativeDensity:
        assume(False)
    assume(min(-dist.support[0], dist.support[1]) >= EDGEWORTH_RANGE)  # the scan's ends, up to rounding
    want = edgeworth_zeta_star_closed_form(zeta3, kurt)
    assert abs(edgeworth_zeta_star_exact(dist) - want) <= 1e-10 * abs(want)


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.3, 0.3), st.floats(0.0, 3.0))
def test_edgeworth_support_is_the_nonnegative_run_of_the_scan(zeta3, kurt):
    """The kept support is nonnegative at every scan point, and each end is an end of the scan
    or sits next to a scan point where the expansion is negative."""
    try:
        dist = EdgeworthDensity(zeta3, kurt)
    except NegativeDensity:
        assume(False)
    xs = np.arange(-EDGEWORTH_RANGE, EDGEWORTH_RANGE + EDGEWORTH_SCAN_STEP / 2, EDGEWORTH_SCAN_STEP)
    d = _edgeworth_raw(xs, zeta3, kurt)
    lo, hi = np.searchsorted(xs, dist.support)
    assert (xs[lo], xs[hi]) == dist.support
    assert (d[lo : hi + 1] >= 0.0).all()
    assert lo == 0 or d[lo - 1] < 0.0
    assert hi == xs.size - 1 or d[hi + 1] < 0.0


@pytest.mark.parametrize("zeta3,kurt", sorted(EDGEWORTH_CASES))
def test_edgeworth_rule_matches_split_quad_oracle(zeta3, kurt):
    """Moments and zeta* agree with scalar `quad` split at the support ends, where the density jumps."""
    dist = EdgeworthDensity(zeta3, kurt)
    got = (dist.norm, dist.mean, dist.var, dist.zeta3_eff, dist.kurt_eff)
    for g, w in zip(got, edgeworth_moments_quad(dist)):
        assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), (g, w)
    got, want = edgeworth_zeta_star_exact(dist), edgeworth_zeta_star_split_quad(dist)
    assert _close(got, want), (got, want)


def test_gaussian_sample_deterministic():
    a = gaussian_sample(100, 1)
    b = gaussian_sample(100, 1)
    assert np.array_equal(a.values, b.values)
    assert a.period == "daily" and len(a) == 100
