import dataclasses
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horospheres import analysis, cli, quadrature
from horospheres.analysis import (
    BoundReport,
    GrowthRegime,
    Regime,
    effective_width,
    integrals,
    kolmogorov_bound,
    log_area_coefficient,
    moments,
    moments_grid,
    rate_envelope,
    rate_envelopes,
    wasserstein_bound_integrals,
    wasserstein_bound_width,
    width_limit_integral,
    width_ratio_table,
)
from horospheres.geometry import _log1mexp, log_sinh, log_unit_ball_volume
from horospheres.quadrature import QuadratureError, quad_log_integral

from _finite_sums import log_i2_and_width, log_layer_integral, log_mean_integral
from _oracles import LOG_INTEGRANDS, variance_direct, width_scale, width_substituted

# Reference values computed two independent ways (30-digit adaptive
# integration and a fixed million-point extended-precision Simpson rule),
# agreeing to ~1e-15 relative.
_I1_D3_R2 = 2.007616781361448
_I2_D3_R2 = 8.840794938170673
_I4_D3_R2 = 22.726653942063212
_MEAN_D3_R3 = 614.8510174053323
_VAR_D3_R3 = 12182.138471702878
_WIDTH_D3_R8 = 6.50873295398432
_WBW_D3_R8 = 0.707967676765201
_WBI_D3_R5 = 0.998475014399683
_LIMIT_TABLE = {
    0.1: 0.884035779287147,
    0.5: 0.841568215070771,
    1.0: 0.762054692886955,
    2.0: 0.625460860054782,
    5.0: 0.410983756667257,
}


def test_area_coefficient_low_dimensions():
    # 2^((d-1)/2) kappa_{d-1}: d=2 -> 2 sqrt 2, d=3 -> 2 pi
    assert math.exp(log_area_coefficient(2)) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)
    assert math.exp(log_area_coefficient(3)) == pytest.approx(2.0 * math.pi, rel=1e-13)


def test_one_sided_integrals_reference():
    ints = integrals(2.0, 3)
    assert math.exp(ints.log_mean_integral) == pytest.approx(_I1_D3_R2, rel=1e-11)
    assert math.exp(ints.log_variance_integral) == pytest.approx(_I2_D3_R2, rel=1e-11)
    assert math.exp(ints.log_cum4_integral) == pytest.approx(_I4_D3_R2, rel=1e-11)


def test_moments_reference():
    m = moments(3.0, 3)
    assert m.mean == pytest.approx(_MEAN_D3_R3, rel=1e-11)
    assert m.variance == pytest.approx(_VAR_D3_R3, rel=1e-11)
    assert m.sd**2 == pytest.approx(m.variance, rel=1e-13)


def test_moment_linear_values_read_inf_past_double_range():
    # as Batch.totals: at d = 2 the mean and variance leave double range near R = 708, the sd
    # near R = 1413; inside it each is exp of its log, every bit
    for R in (3.0, 700.0):
        m = moments(R, 2)
        assert (m.mean, m.variance, m.sd) == (
            math.exp(m.log_mean), math.exp(m.log_variance), math.exp(0.5 * m.log_variance))
    m = moments(1000.0, 2)
    assert (m.mean, m.variance, m.sd) == (math.inf, math.inf, math.exp(0.5 * m.log_variance))
    assert 1e200 < m.sd < math.inf
    m = moments(2000.0, 2)
    assert (m.mean, m.variance, m.sd) == (math.inf, math.inf, math.inf)


def test_positive_part_mean_assembly():
    # the positive-part mean is coefficient times the one-sided integral
    m = moments(2.0, 3)
    want = 2.0 * math.pi * _I1_D3_R2
    assert math.exp(m.log_mean_positive_part) == pytest.approx(want, rel=1e-11)


def test_two_sided_mean_exceeds_positive_part():
    for R, d in ((1.0, 2), (3.0, 3), (2.0, 7)):
        m = moments(R, d)
        assert m.log_mean > m.log_mean_positive_part


def test_variance_two_routes_agree():
    # evenness of the integrand: two-sided integral equals twice the
    # one-sided one; the direct route must match the assembled route
    for R, d in ((2.0, 3), (5.0, 2), (1.0, 10)):
        assembled = moments(R, d).log_variance
        direct = variance_direct(R, d)
        assert direct == pytest.approx(assembled, abs=5e-10)


def test_variance_integral_factorization():
    # I2 = (cosh R - 1)^(d-1) * width, in logs
    for R, d in ((2.0, 3), (3.0, 4), (1.0, 8)):
        ints = integrals(R, d)
        want = (d - 1.0) * math.log(math.cosh(R) - 1.0) + math.log(ints.width)
        assert ints.log_variance_integral == pytest.approx(want, abs=5e-10)


def test_effective_width_degenerate_dimension():
    # exponent d-1 = 0 makes the integrand one, so the width equals R
    assert effective_width(5.0, 1) == pytest.approx(5.0, rel=1e-12)


def test_effective_width_reference():
    assert effective_width(8.0, 3) == pytest.approx(_WIDTH_D3_R8, rel=1e-10)


def test_effective_width_monotone_in_dimension():
    widths = [effective_width(3.0, d) for d in (2, 3, 5, 10, 50)]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert all(0.0 < w < 3.0 for w in widths)


def test_substitution_identity():
    for d in (2, 5, 10):
        for R in (0.5, 2.0, 5.0):
            j = effective_width(R, d)
            assert width_substituted(R, d) == pytest.approx(j, rel=1e-9)


def test_width_limit_integral_reference_table():
    for L, want in _LIMIT_TABLE.items():
        assert width_limit_integral(L) == pytest.approx(want, rel=1e-9)


def test_width_limit_integral_small_scale_limit():
    # L -> 0 leaves the plain Gaussian integral sqrt(pi)/2
    assert width_limit_integral(1e-4) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-6)


def _bessel_limit(L):
    """(1/(2L)) e^z K0(z), z = 1/(2L^2), from mpmath's besselk at enough digits to hold z."""
    with mp.workdps(40 + max(0, int(-2.0 * math.log10(L)))):
        L = mp.mpf(L)
        z = 1 / (2 * L * L)
        return mp.exp(z + mp.log(mp.besselk(0, z))) / (2 * L)


@pytest.mark.parametrize("L", [10.0**k for k in range(-150, 151, 10)]
                         + [1e-3, 1e-5, 1e-8, 1.0 / math.sqrt(2.0), math.sqrt(5.0), 0.1, 9e153])
def test_width_limit_integral_agrees_with_bessel_k0(L):
    # z = 1, 0.1 and 50 at L = 1/sqrt(2), sqrt(5) and 0.1.  The scaled integral has no
    # cancellation between z and log K0(z).  Over these points and every decade of L from
    # 1e-150 to 1e150 the measured worst relative error is 5.7e-16, at L = 1e20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = width_limit_integral(L)
    assert abs(got - _bessel_limit(L)) <= 2e-15 * _bessel_limit(L)


@pytest.mark.parametrize("L", [1e-155, 1e-160, 1e-200, 5e-324, 1e154, 1e200, math.inf])
def test_width_limit_integral_rejects_L_past_the_closed_form(L):
    # 1/(2 L^2) is past double range or 0, so the closed form has no double z
    with pytest.raises(ValueError, match="L = "):
        width_limit_integral(L)


def test_width_approaches_limit_integral_in_high_dimension():
    # with sinh(R/2) = L sqrt(d), width/(2L) tends to the limit integral
    L = 1.0
    d = 20000
    R = 2.0 * math.asinh(L * math.sqrt(d))
    got = effective_width(R, d) / (2.0 * L)
    assert got == pytest.approx(width_limit_integral(L), rel=1e-3)


def test_wasserstein_bound_width_reference():
    assert wasserstein_bound_width(8.0, 3) == pytest.approx(_WBW_D3_R8, rel=1e-10)


def test_wasserstein_bound_width_formula():
    w = 2.5
    want = math.sqrt(2.0) * (1.0 / (math.sqrt(3.0) * w) + 2.0 / (3.0 * math.sqrt(w)))
    assert wasserstein_bound_width(None, 4, width=w) == pytest.approx(want, rel=1e-14)


def test_wasserstein_bound_integrals_reference():
    assert wasserstein_bound_integrals(5.0, 3) == pytest.approx(_WBI_D3_R5, rel=1e-10)


def test_integral_bound_no_larger_than_width_bound():
    # the width form comes from bounding the integrals, so it dominates
    for R, d in ((2.0, 2), (5.0, 3), (3.0, 10), (8.0, 3)):
        assert wasserstein_bound_integrals(R, d) <= wasserstein_bound_width(R, d) * (1.0 + 1e-12)


def test_kolmogorov_bound_conversion():
    # sqrt((2/sqrt(pi)) w); at w = sqrt(pi)/2 the bound is exactly 1
    assert kolmogorov_bound(math.sqrt(math.pi) / 2.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        kolmogorov_bound(0.0)


def test_width_ratio_table_rejects_length_mismatch():
    for radii in ([4.0], [4.0, 4.0, 4.0]):
        with pytest.raises(ValueError, match="radii must match d_grid in length"):
            width_ratio_table("a", [3, 5], radii)
    rows = width_ratio_table("a", [3, 5], [4.0, 4.0])
    assert [(row.d, row.R) for row in rows] == [(3, 4.0), (5, 4.0)]


def test_width_ratio_table_fixed_dim_ratio():
    rows = width_ratio_table(GrowthRegime.FIXED_DIM, [3], [10.0])
    assert rows[0].ratio == pytest.approx(rows[0].width / 10.0, rel=1e-14)


def test_width_ratio_table_bounded_gap_ratio():
    rows = width_ratio_table("b1", [100], [math.log(100.0) - 1.0])
    want = rows[0].width * 10.0 * math.exp(-0.5 * rows[0].R)
    assert rows[0].ratio == pytest.approx(want, rel=1e-14)


def test_width_ratio_table_growing_gap_requires_room():
    with pytest.raises(ValueError):
        width_ratio_table("b2", [100], [math.log(100.0)])
    rows = width_ratio_table("b2", [100], [2.0 * math.log(100.0)])
    assert rows[0].ratio == pytest.approx(rows[0].width / math.log(100.0), rel=1e-14)


def test_width_ratio_table_rejects_unknown_regime():
    with pytest.raises(ValueError):
        width_ratio_table("c", [3], [1.0])


def test_rate_envelope_fixed_dimension():
    report = rate_envelope(5.0, 3)
    assert report.regime is Regime.FIXED_DIM
    assert report.rate_envelope == pytest.approx(5.0**-0.5, rel=1e-14)
    assert not report.boundary


def test_rate_envelope_bounded_gap():
    report = rate_envelope(2.3, 100)
    assert report.regime is Regime.HIGH_DIM_BOUNDED
    assert report.rate_envelope == pytest.approx(math.exp(-1.15), rel=1e-14)


def test_rate_envelope_growing_gap():
    d, R = 100, 10.0
    report = rate_envelope(R, d)
    gap = R - math.log(d)
    want = 1.0 / (math.sqrt(d) * gap) + 1.0 / (d * math.sqrt(gap))
    assert report.regime is Regime.HIGH_DIM_UNBOUNDED
    assert report.rate_envelope == pytest.approx(want, rel=1e-14)


def test_rate_envelope_boundary_flag():
    report = rate_envelope(math.log(100.0), 100)
    assert report.boundary


def test_rate_envelope_alpha_scaling():
    # R = alpha log d with alpha <= 1 lands in the bounded-gap regime and
    # the envelope collapses to d^(-alpha/2)
    d = 10000
    report = rate_envelope(0.5 * math.log(d), d)
    assert report.regime is Regime.HIGH_DIM_BOUNDED
    assert report.rate_envelope == pytest.approx(d**-0.25, rel=1e-12)


def test_rate_envelope_reports_both_bounds():
    report = rate_envelope(8.0, 3)
    assert report.wasserstein_bound_width == pytest.approx(_WBW_D3_R8, rel=1e-10)
    assert report.kolmogorov_bound == pytest.approx(
        math.sqrt(2.0 / math.sqrt(math.pi) * report.wasserstein_bound_width), rel=1e-13
    )


def test_rate_envelope_takes_radius_first():
    # the old (d, R) order hands a float dimension to the validator
    with pytest.raises(ValueError, match="dimension must be an integer"):
        rate_envelope(3, 5.0)


def test_rate_envelopes_yield_immutable_named_tuples():
    reports = rate_envelopes([2.0, math.log(100.0)], [3, 100])
    assert [type(r) for r in reports] == [BoundReport, BoundReport]
    # the bounds command's columns, and last the boundary flag, which defaults to False
    assert sorted(BoundReport._fields[:-1]) == sorted(cli._BOUND_HEADER)
    assert BoundReport._fields[-1] == "boundary" and BoundReport._field_defaults == {"boundary": False}
    assert [r.boundary for r in reports] == [False, True]
    assert BoundReport(*reports[1][:-1]).boundary is False
    assert reports[0]._asdict() == {name: getattr(reports[0], name) for name in BoundReport._fields}
    with pytest.raises(AttributeError):
        reports[0].width = 1.0


def test_width_past_its_precision_is_a_quadrature_failure():
    # at d = 10^18 the width's mass lies within R/10^9 of s = 0, and at R = 1e-300 the nodes
    # in t = R - s leave s only 7 digits there; the integrand is noise and the tree cannot converge
    with pytest.raises(QuadratureError, match="depth cap"):
        effective_width(1e-300, 10**18)
    with pytest.raises(QuadratureError, match="depth cap"):
        moments(1e-300, 10**18)


def _harmonic(n):
    return math.fsum(1.0 / k for k in range(1, n + 1))


_LARGEST_RADIUS = {d: sys.float_info.max / (4.0 * (d - 1)) for d in (2, 3, 10, 100)}


@pytest.mark.parametrize("d", [2, 3, 10, 100])
@pytest.mark.parametrize("R", [5e3, 1e4, 1e8, 1e18, 1e100, 1e300, "largest"])
def test_large_radius_meets_the_limits(R, d):
    # from R = 5e3 the R -> infinity limits hold to double precision: w = R - H_{d-1}, the mean
    # vol(B_R) = omega_d e^{(d-1)(R - log 2)}/(d-1), and both bounds sqrt(2) (1/(sqrt(d-1) w)
    # + 2/((d-1) sqrt(w))).  The width is the width tree's value plus the rest of (0, R), a
    # linear sum; the measured worst relative errors are 1.5e-16 for the width (at (1e8, 100)),
    # 0 for its bound and the log mean, and 2.2e-14 for the integral bound, formed from log w at
    # the largest accepted radius.  Taken as exp(log w), the width was 2.8e-14 off there
    R = _LARGEST_RADIUS[d] if R == "largest" else R
    width = R - _harmonic(d - 1)
    bound = math.sqrt(2.0) * (1.0 / (math.sqrt(d - 1.0) * width) + 2.0 / ((d - 1.0) * math.sqrt(width)))
    log_mean = math.log(d) + log_unit_ball_volume(d) + (d - 1) * (R - _LN2) - math.log(d - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, report = moments(R, d), rate_envelope(R, d)
    assert abs(m.width - width) <= 2.2e-16 * width and report.width == m.width == effective_width(R, d)
    assert abs(m.log_mean - log_mean) <= 4.4e-16 * abs(log_mean)
    assert abs(report.wasserstein_bound_width - bound) <= 4.4e-16 * bound
    assert abs(report.wasserstein_bound_integrals - bound) <= 1e-13 * bound


@pytest.mark.parametrize("d", [2, 3, 10, 1000, 10**6])
@pytest.mark.parametrize("R", [1e-300, 1e-100, 1e-10])
def test_tiny_radius_width_meets_its_limit(R, d):
    # as R -> 0, w/R tends to the integral over (0, 1) of (1 - u^2)^(d-1), sqrt(pi) Gamma(d) /
    # (2 Gamma(d + 1/2)), up to a relative O(R^2).  The measured worst relative error on these
    # points and d = 10^4, 10^5 is 1.3e-13, at (1e-300, 10^6)
    with mp.workdps(40):
        limit = float(mp.sqrt(mp.pi) * mp.exp(mp.loggamma(d) - mp.loggamma(d + mp.mpf(0.5))) / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        widths = [effective_width(R, d), moments(R, d).width, rate_envelope(R, d).width]
    assert widths[0] == widths[1] == widths[2]
    assert abs(widths[0] / R - limit) <= 5e-13 * limit


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        effective_width(0.0, 3)
    with pytest.raises(ValueError):
        moments(-1.0, 3)
    with pytest.raises(ValueError):
        integrals(2.0, 1)
    with pytest.raises(ValueError):
        width_limit_integral(0.0)


# ---------------------------------------------------------------------------
# the grid core: one batched quadrature for many (R, d) points

_LN2 = math.log(2.0)


def _L(x):
    """log(1 - e^-x)."""
    return np.log(-np.expm1(-x))


def _one_tree_logs(R, d):
    """log i1, i2, i4, width and mean, and the width, at (R, d), one one-tree
    quadrature each but i2, in the order a point-by-point loop runs them.  With
    k = (d-1)(R - log 2), log(cosh R - cosh s) = R - log 2 + L(R + s) + L(R - s):
    i1 runs in s over (0, min(R, 80/(d-1))) plus k/2, and i4 over (0, min(R,
    40/(d-1))) plus 2k.  The width runs in t = R - s over (0, c), c = min(R,
    log 4d + 40), plus R - c (to the width as a linear sum), and the mean over (0, min(R,
    40/(d-1))) plus k.  log i2 is log w + (d-1) log(cosh R - 1), with cosh R - 1 =
    e^{R - log 2 + 2L(R)}."""
    k = (d - 1) * (R - _LN2)

    def width(t):
        x = np.exp(2.0 * (_L(R - t) - _L(R)) - t)
        return (d - 1.0) * np.where(x < 0.5, np.log1p(-np.minimum(x, 0.5)), _L(t) + _L(2.0 * R - t) - 2.0 * _L(R))

    log_i1 = quad_log_integral(lambda s: 0.5 * (d - 1) * (_L(R + s) + _L(R - s) - s), 0.0, min(R, 80.0 / (d - 1.0)))
    log_i4 = quad_log_integral(lambda s: (d - 1) * (2.0 * (_L(R + s) + _L(R - s)) - s), 0.0, min(R, 40.0 / (d - 1.0)))
    c = min(R, np.log(4.0 * d) + 40.0)
    log_w = quad_log_integral(width, 0.0, c)
    w = math.exp(log_w)
    if R > c:
        w += R - c
        log_w += np.log1p((R - c) * np.exp(-log_w))
    log_v = quad_log_integral(lambda t: (d - 1) * (_L(2.0 * (R - t)) - t), 0.0, min(R, 40.0 / (d - 1.0)))
    log_mean = math.log(d) + log_unit_ball_volume(d) + (log_v + k)
    return log_i1 + 0.5 * k, log_w + (k + 2 * (d - 1) * float(_L(R))), log_i4 + 2.0 * k, log_w, log_mean, w


_POINTS = st.lists(st.tuples(st.floats(0.05, 40.0), st.integers(2, 5000)), min_size=1, max_size=4)


@settings(max_examples=12)
@given(_POINTS)
@example([(1e4, 3), (100.0, 10**6), (1e100, 2)])  # the width tree stops short of R
def test_grid_core_equals_one_tree_calls(points):
    radii, dims = [R for R, _ in points], [d for _, d in points]
    reports = rate_envelopes(radii, dims)
    assert reports == [rate_envelope(R, d) for R, d in points]
    for (R, d), report, row in zip(points, reports, width_ratio_table("a", dims, radii)):
        log_i1, log_i2, log_i4, log_w, log_mean, width = _one_tree_logs(R, d)
        ints = integrals(R, d)
        assert ints.log_mean_integral == log_i1
        assert ints.log_variance_integral == log_i2
        assert ints.log_cum4_integral == log_i4
        assert ints.width == report.width == row.width == effective_width(R, d) == width
        assert moments(R, d).log_mean == log_mean


@settings(max_examples=8)
@given(_POINTS)
def test_moments_grid_equals_one_point_moments(points):
    radii, dims = [R for R, _ in points], [d for _, d in points]
    summaries = moments_grid(radii, dims)
    assert summaries == [moments(R, d) for R, d in points]
    assert [m.width for m in summaries] == [effective_width(R, d) for R, d in points]


def _hex_fields(records):
    # a BoundReport is a NamedTuple, a MomentSummary a dataclass
    rows = (tuple(r) if isinstance(r, tuple) else dataclasses.astuple(r) for r in records)
    return [[v.hex() if isinstance(v, float) else v for v in row] for row in rows]


def test_grid_results_do_not_depend_on_the_panel_block(monkeypatch):
    # moments_grid runs all four kinds of tree, rate_envelopes the three one-sided
    # ones; a block of 1 gives every panel its own log_f call
    dims = [2, 3, 5, 11, 40, 120, 500, 1500, 4000, 10000]
    radii = [0.3, 8.0, 2.5, 4.0, 1.0, math.log(120) + 1.0, 12.0, 0.05, math.log(4000), 20.0]
    results = {}
    for block in (1, 7, 128, quadrature._PANEL_BLOCK):
        monkeypatch.setattr(quadrature, "_PANEL_BLOCK", block)
        results[block] = (_hex_fields(rate_envelopes(radii, dims)), _hex_fields(moments_grid(radii, dims)))
    assert all(got == results[1] for got in results.values())


def _oracle_logs(R, d):
    """log i1, i2, i4 and the width at (R, d) from mpmath at 30 digits."""
    with mp.workdps(30):
        R = mp.mpf(R)
        p = mp.mpf(d - 1) / 2
        nodes = mp.linspace(0, R, 9)

        def gap(s):
            return 2 * mp.sinh((R + s) / 2) * mp.sinh((R - s) / 2)

        i1 = mp.quad(lambda s: gap(s) ** p * mp.exp(-p * s), nodes)
        i2 = mp.quad(lambda s: gap(s) ** (2 * p), nodes)
        i4 = mp.quad(lambda s: gap(s) ** (4 * p) * mp.exp(-2 * p * s), nodes)
        width = mp.quad(lambda s: (gap(s) / (mp.cosh(R) - 1)) ** (d - 1), nodes)
        return float(mp.log(i1)), float(mp.log(i2)), float(mp.log(i4)), float(width)


# mpmath's own error stays below 2e-13 on this range; below R = 1 with d in
# the tens it needs far more subintervals
@settings(max_examples=6)
@given(st.floats(1.0, 12.0), st.integers(2, 30))
def test_integrals_agree_with_mpmath(R, d):
    log_i1, log_i2, log_i4, width = _oracle_logs(R, d)
    ints = integrals(R, d)
    # the one-sided reference tolerances above: 1e-11 relative, 1e-10 for the width
    assert ints.log_mean_integral == pytest.approx(log_i1, abs=1e-11)
    assert ints.log_variance_integral == pytest.approx(log_i2, abs=1e-11)
    assert ints.log_cum4_integral == pytest.approx(log_i4, abs=1e-11)
    assert ints.width == pytest.approx(width, rel=1e-10)


def test_finite_sum_oracle_matches_closed_forms():
    # d = 2: R cosh R - sinh R; d = 3: C^2 R - 2 C sinh R + (sinh R cosh R + R)/2
    for R in (0.01, 0.5, 2.0, 8.0, 40.0):
        with mp.workdps(60):
            x = mp.mpf(R)
            c, s = mp.cosh(x), mp.sinh(x)
            for d, exact in ((2, x * c - s), (3, c * c * x - 2 * c * s + (s * c + x) / 2)):
                log_i2, width = log_i2_and_width(R, d)
                assert abs(log_i2 - mp.log(exact)) <= mp.mpf(10) ** -35 * abs(mp.log(exact))
                assert abs(width - exact / (c - 1) ** (d - 1)) <= mp.mpf(10) ** -35 * width


# past d = 30, where test_integrals_agree_with_mpmath stops; small R only at small d, as the
# oracle's digit count grows as (d-1) log10(4/R^2) there
_FINITE_SUM_POINTS = (
    [(math.log(d) + 1.0, d) for d in (100, 200, 300, 500, 700, 1000)]
    + [(2.0, 1000), (30.0, 1000), (0.3, 100), (1.0, 50), (12.0, 30), (200.0, 20), (3.0, 11), (0.05, 10)]
    + [(5.0, 7), (50.0, 5), (0.1, 3), (8.0, 3), (20.0, 3), (0.01, 2), (2.0, 2), (4.0, 2), (8.0, 2)]
)


def test_variance_integral_and_width_agree_with_finite_sums():
    # log i2 is derived from the width tree.  Its error is per unit of |log|: the measured worst
    # is 2.3e-16 on these points and 2.1e-16 on the 100-point bounds grid (d to 10^4, R = log d
    # + 1).  The width's worst relative error is 1.04e-15 here, at (0.3, 100), and 6.8e-16 there
    for R, d in _FINITE_SUM_POINTS:
        log_i2, width = log_i2_and_width(R, d)
        check_log_i2, check_width = log_i2_and_width(R, d, extra=80)
        # the sums cancel about (d-1) log10(2 cosh R/(cosh R - 1)) digits; two precisions agree
        assert abs(log_i2 - check_log_i2) <= mp.mpf(10) ** -35 * abs(log_i2)
        assert abs(width - check_width) <= mp.mpf(10) ** -35 * width
        ints = integrals(R, d)
        assert abs(ints.log_variance_integral - float(log_i2)) <= 4.4e-16 * abs(float(log_i2))
        assert abs(ints.width - float(width)) <= 1e-14 * float(width)


def test_mean_integral_agrees_with_finite_sums():
    # the mean tree, log of the integral of sinh^(d-1) over (0, R), through the grid core in one
    # engine call beside the width tree, as verify-clt runs it.  Its error is per unit of |log| (measured worst 2.05e-16 on these points), plus
    # the relative error of the integral itself where the log is small: 2.7e-15 at (1, 50), whose
    # log is 3.7 while its log-integrand reaches 49 log sinh 1 = 7.7
    points = analysis._checked_points(*zip(*_FINITE_SUM_POINTS))
    for (R, d), (_, log_v, _, _) in zip(points, analysis._grid_logs(points, analysis._CLT)):
        want, check = log_mean_integral(R, d), log_mean_integral(R, d, extra=80)
        # the recurrence cancels about (d-1) log10(coth R) digits; two precisions agree
        assert abs(want - check) <= mp.mpf(10) ** -35 * abs(want)
        # the tree's log is taken before its scale k = (d-1)(R - log 2) is added
        got = log_v + (d - 1) * (R - _LN2)
        assert abs(got - float(want)) <= 4.4e-16 * abs(float(want)) + 4.4e-15


# i4 is a Laurent polynomial at every d and i1 at odd d; the oracle's cost grows as d^2, so d
# stops at 61.  At R above their cuts, 80/(d-1) and 40/(d-1), the trees stop short of R
_LAYER_SUM_POINTS = [(0.1, 3), (8.0, 3), (20.0, 3), (2.0, 2), (4.0, 2), (5.0, 7), (0.05, 9), (3.0, 11), (1.0, 21),
                     (200.0, 20), (12.0, 30), (0.5, 31), (1.0, 50), (30.0, 60), (math.log(61) + 1.0, 61)]


def test_cut_layer_integrals_agree_with_finite_sums():
    # the i1 and i4 trees over their cut intervals, through the grid core in one engine call
    # beside the width tree, as bounds runs them, against the integrals over all of (0, R).  The error is per unit of |log|: measured worst
    # 2.8e-16, at (2, 2), whose log i4 is 1.6.  Cuts of 30/15 in place of 80/40 err by up to
    # 1.5e-8 per unit at these points (5.1e-11 at (8, 3), the first it fails)
    points = analysis._checked_points(*zip(*_LAYER_SUM_POINTS))
    for (R, d), logs in zip(points, analysis._grid_logs(points, analysis._INTEGRALS)):
        # each tree's log is taken before its scale, k/2 or 2k with k = (d-1)(R - log 2), is added
        k = (d - 1) * (R - _LN2)
        for kind, got in zip(("i1", "i4"), (logs[0] + 0.5 * k, logs[1] + 2.0 * k)):
            if kind == "i1" and d % 2 == 0:
                continue
            want, check = log_layer_integral(R, d, kind), log_layer_integral(R, d, kind, extra=80)
            # the sums cancel about n log10(2 cosh R/(cosh R - 1)) digits at power n; two precisions agree
            assert abs(want - check) <= mp.mpf(10) ** -35 * abs(want)
            assert abs(got - float(want)) <= 4.4e-16 * abs(float(want)), (R, d, kind)


def test_each_point_runs_one_tree_per_kind(monkeypatch):
    # the variance integral has no tree: a bounds point runs i1, i4 and the width, a
    # moments point adds the mean, and a verify-clt radius runs the width and the mean
    sizes = []
    real = analysis.quad_log_integrals

    def engine(log_f, a, b, rel_tol):
        sizes.append(len(a))
        return real(log_f, a, b, rel_tol)

    monkeypatch.setattr(analysis, "quad_log_integrals", engine)
    radii, dims = [2.0, 3.0, 8.0], [3, 5, 2]
    rate_envelopes(radii, dims)
    moments_grid(radii, dims)
    analysis._clt_grid(radii, dims)
    assert sizes == [3 * 3, 4 * 3, 2 * 3]
    assert "i2" not in analysis._ENDS


# the grid core's in-place log-integrands against the plain per-kind forms, bit for bit: d from 2
# to 10^12, R from 1e-3 to 700 and log d + 1, and in every tree nodes from 1e-13 to 1 - 1e-12
# of its interval, so the width's near-edge branch runs at t within 1e-12 of 0
_BIT_POINTS = [(R, d) for d in (2, 3, 50, 10**4, 10**6, 10**12)
               for R in (1e-3, 0.1, 1.0, 5.0, 30.0, 200.0, 700.0, math.log(d) + 1.0)]
_BIT_FRACTIONS = np.array([np.geomspace(1e-13, 1e-3, 15), np.linspace(0.01, 0.99, 15),
                           1.0 - np.geomspace(1e-3, 1e-12, 15)])


@pytest.mark.parametrize("kinds", [analysis._INTEGRALS, analysis._MOMENTS, analysis._CLT, analysis._WIDTH])
def test_grid_integrands_match_the_plain_forms_bit_for_bit(kinds):
    radii = np.array([R for R, _ in _BIT_POINTS])
    dims = np.array([d for _, d in _BIT_POINTS], dtype=float)
    n = radii.size
    ends = np.array([np.minimum(radii, analysis._ENDS[name](dims)) for name in kinds]).ravel()
    trees = np.repeat(np.arange(ends.size), len(_BIT_FRACTIONS))
    nodes = ends[trees, None] * np.tile(_BIT_FRACTIONS, (ends.size, 1))
    log_f = analysis._grid_log_f(radii, dims, kinds)
    # every tree, every third tree left out, and the first kind's trees all left out
    for keep in (trees >= 0, trees % 3 != 1, trees >= n):
        s, tree = nodes[keep], trees[keep]
        want = np.empty_like(s)
        for index, name in enumerate(kinds):
            rows = tree // n == index
            point = tree[rows] - index * n
            want[rows] = LOG_INTEGRANDS[name](s[rows], dims[point, None], radii[point, None])
        got = log_f(s, tree)
        assert np.isfinite(got).all()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if "width" in kinds:
        # x = e^{2(L(R-t) - L(R)) - t} crosses 1/2 in the width trees: both branches run
        rows = trees // n == kinds.index("width")
        t, R = nodes[rows], radii[trees[rows] % n, None]
        x = np.exp(2.0 * (_log1mexp(R - t) - _log1mexp(R)) - t)
        assert (x >= 0.5).any() and (x < 0.5).any()


def _layer_oracle(R, d, kind):
    """log i1 or log i4 at (R, d) from mpmath at 40 digits, over all of (0, R).
    The log-integrand falls off at rate at least lam, (d-1)/2 for i1 and d-1 for
    i4, from its peak at s = 0, so the breakpoints sit at multiples of 1/lam."""
    with mp.workdps(40):
        R = mp.mpf(R)
        lam = mp.mpf(d - 1) / (2 if kind == "i1" else 1)

        def f(s):
            return mp.log(2 * mp.sinh((R + s) / 2) * mp.sinh((R - s) / 2))

        def g(s):
            return lam * (f(s) - s) if kind == "i1" else lam * (2 * f(s) - s)

        g0 = g(mp.mpf(0))
        marks = [k / lam for k in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128) if k / lam < R]
        return g0 + mp.log(mp.quad(lambda s: mp.exp(g(s) - g0), [mp.mpf(0), *marks, R]))


@pytest.mark.parametrize(
    "R, d",
    [(math.log(d) + 1.0, d) for d in (100, 1000, 5000, 10000)] + [(0.5, 10**5), (30.0, 10**4), (200.0, 10**4)],
)
def test_cut_layer_integrals_agree_with_mpmath(R, d):
    # i1 and i4 stop at the edge of their 1/(d-1) layer, which loses at most e^-40 of
    # either; the error is per unit of |log|, whose ulp is 2.2e-16 per unit or less
    ints = integrals(R, d)
    for kind, value in (("i1", ints.log_mean_integral), ("i4", ints.log_cum4_integral)):
        exact = _layer_oracle(R, d, kind)
        assert abs(value - exact) <= 4.4e-16 * abs(exact)


@settings(max_examples=10)
@given(st.floats(0.05, 40.0), st.integers(2, 5000))
def test_cut_layer_integrals_match_the_whole_interval(R, d):
    # one uncut tree over (0, R) each, at the engine's 1e-10 tolerance
    p = 0.5 * (d - 1)

    def gap(s):
        return _LN2 + log_sinh(0.5 * (R + s)) + log_sinh(0.5 * (R - s))

    ints = integrals(R, d)
    assert ints.log_mean_integral == pytest.approx(quad_log_integral(lambda s: p * (gap(s) - s), 0.0, R), abs=1e-10)
    assert ints.log_cum4_integral == pytest.approx(
        quad_log_integral(lambda s: 2.0 * p * (2.0 * gap(s) - s), 0.0, R), abs=1e-10
    )


def _oracle_log_volume(R, d):
    """log omega_d and log vol(B_R) at 50 digits: vol(B_R) is omega_d times the
    integral of sinh^{d-1} over (0, R), in closed form at d = 2 and 3 and
    through 2F1 elsewhere."""
    with mp.workdps(50):
        R, half = mp.mpf(R), mp.mpf(d) / 2
        log_omega = mp.log(2 * mp.pi**half / mp.gamma(half))
        if d == 2:
            return log_omega, mp.log(4 * mp.pi * mp.sinh(R / 2) ** 2)
        if d == 3:
            return log_omega, mp.log(mp.pi * (mp.sinh(2 * R) - 2 * R))
        x = mp.sinh(R)
        return log_omega, log_omega + mp.log(x**d / d * mp.hyp2f1(0.5, half, half + 1, -x * x))


def _check_mean_is_ball_volume(R, d):
    # log_mean sums log d, (d/2) log pi, -log Gamma(d/2 + 1) and the log of the
    # integral, each rounded at its own size, so the error is measured per unit
    # of the largest of them; 2,000 random points in this range reach 6.3e-16
    log_omega, log_volume = _oracle_log_volume(R, d)
    parts = (math.log(d), 0.5 * d * math.log(math.pi), math.lgamma(0.5 * d + 1.0), float(log_volume - log_omega))
    assert abs(moments(R, d).log_mean - float(log_volume)) <= 1e-15 * max(1.0, *map(abs, parts))


@pytest.mark.parametrize("R, d", [(0.001, 2), (0.5, 2), (3.0, 2), (50.0, 2), (0.5, 3), (3.0, 3), (30.0, 3),
                                  (0.01, 1000), (1.0, 7), (6.0, 100), (50.0, 1000), (math.log(500) + 1, 500)])
def test_mean_is_the_ball_volume(R, d):
    _check_mean_is_ball_volume(R, d)


@settings(max_examples=8)
@given(st.floats(1e-3, 50.0), st.integers(2, 1000))
def test_mean_is_the_ball_volume_anywhere(R, d):
    _check_mean_is_ball_volume(R, d)


def _failing_engine(monkeypatch, *trees, kinds=len(analysis._INTEGRALS)):
    """Make the engine report a failure of each (point, kind) tree, on top of
    its results.  The grid core numbers its trees kind by kind: for
    rate_envelopes i1 of every point, then i4 and the width."""
    real = analysis.quad_log_integrals

    def engine(log_f, a, b, rel_tol):
        values, _ = real(log_f, a, b, rel_tol)
        n = len(a) // kinds
        return values, {kind * n + point: QuadratureError(f"tree {point}/{kind}", last=0.0, previous=0.0)
                        for point, kind in trees}

    monkeypatch.setattr(analysis, "quad_log_integrals", engine)


@pytest.mark.parametrize(
    "point, kind, message",
    [
        (0, 2, "tree 0/2"),  # point 0's width tree
        (1, 0, "tree 1/0"),  # point 1's i1 tree
        (1, 2, "tree 1/2"),  # point 1's width tree, numbered after point 2's i1 tree
        (2, 0, "tree 2/0"),  # point 2's i1 tree alone
    ],
)
def test_grid_failures_come_in_point_by_point_order(monkeypatch, point, kind, message):
    # point 2's i1 tree fails too; each point runs i1, i4, width
    _failing_engine(monkeypatch, (point, kind), (2, 0))
    with pytest.raises(QuadratureError, match=message):
        rate_envelopes([2.0, 1e100, 3.0], [3, 3, 5])


def test_grid_validates_every_point_before_quadrature(monkeypatch):
    # point 0 alone fails in quadrature; point 1's radius or dimension is invalid
    _failing_engine(monkeypatch, (0, 0))
    with pytest.raises(QuadratureError, match="tree 0/0"):
        rate_envelopes([2.0, 1e100, 3.0], [3, 3, 5])
    with pytest.raises(ValueError, match="R must be finite and positive, got nan"):
        rate_envelopes([1e100, math.nan], [3, 3])
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        rate_envelopes([1e100, 2.0], [3, 1])
    monkeypatch.undo()
    _failing_engine(monkeypatch, (0, 0), kinds=1)
    with pytest.raises(QuadratureError, match="tree 0/0"):
        width_ratio_table("a", [3, 3], [1e100, 2.0])
    with pytest.raises(ValueError, match="R must be finite and positive, got nan"):
        width_ratio_table("a", [3, 3], [1e100, math.nan])
    # a longer list is not cut to the shorter one
    for radii, dims in (([1.0, 2.0], [3]), ([1.0], [2, 3])):
        with pytest.raises(ValueError, match="radii must match d_grid in length"):
            rate_envelopes(radii, dims)
        with pytest.raises(ValueError, match="radii must match d_grid in length"):
            moments_grid(radii, dims)
    assert rate_envelopes([], []) == moments_grid([], []) == []


def test_width_scale_past_double_range_is_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert width_scale(1500.0, 3) == math.inf
        # sinh(715) overflows, but divided by sqrt(10^6) it is finite again
        near = width_scale(1430.0, 10**6)
        with mp.workdps(30):
            assert near == pytest.approx(float(mp.sinh(715) / 1000), rel=1e-12)
        with pytest.raises(QuadratureError, match="width scale"):
            width_substituted(1500.0, 3)
