import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horospheres import analysis
from horospheres.analysis import (
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
    variance_direct,
    wasserstein_bound_integrals,
    wasserstein_bound_width,
    width_limit_integral,
    width_ratio_table,
    width_scale,
    width_substituted,
)
from horospheres.geometry import log_chord_area, log_sinh
from horospheres.quadrature import QuadratureError, quad_log_integral

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


def test_width_scale_companion_ratio():
    # sinh(R/2)/sqrt(d) against (1/2) e^{(R - log d)/2}: ratio 1 - e^{-R}
    ws = width_scale(40.0, 7)
    assert ws.value / ws.companion == pytest.approx(1.0, rel=1e-15)
    ws_small = width_scale(1.0, 3)
    assert ws_small.value / ws_small.companion == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)


def test_width_limit_integral_reference_table():
    for L, want in _LIMIT_TABLE.items():
        assert width_limit_integral(L) == pytest.approx(want, rel=1e-9)


def test_width_limit_integral_small_scale_limit():
    # L -> 0 leaves the plain Gaussian integral sqrt(pi)/2
    assert width_limit_integral(1e-4) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-6)


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


def test_width_past_its_precision_is_a_quadrature_failure():
    # the width is at most R; at R = 1e100 the sinh-product integrand has
    # lost every digit and its quadrature estimate overflows
    with pytest.raises(QuadratureError, match="exceeds 2R"):
        effective_width(1e100, 3)
    with pytest.raises(QuadratureError, match="exceeds 2R"):
        moments(1e100, 3)


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


def _one_tree_logs(R, d):
    """log i1, i2, i4, width and two-sided mean at (R, d), one one-tree
    quadrature each, in the order a point-by-point loop runs them."""
    p = 0.5 * (d - 1)

    def gap(s):
        return _LN2 + log_sinh(0.5 * (R + s)) + log_sinh(0.5 * (R - s))

    half = float(log_sinh(0.5 * R))
    return (
        quad_log_integral(lambda s: p * (gap(s) - s), 0.0, R),
        quad_log_integral(lambda s: 2.0 * p * gap(s), 0.0, R),
        quad_log_integral(lambda s: 2.0 * p * (2.0 * gap(s) - s), 0.0, R),
        quad_log_integral(
            lambda s: (d - 1.0) * (log_sinh(0.5 * (R + s)) + log_sinh(0.5 * (R - s)) - 2.0 * half), 0.0, R
        ),
        quad_log_integral(lambda s: log_chord_area(s, R, d) - (d - 1.0) * s, -R, R),
    )


_POINTS = st.lists(st.tuples(st.floats(0.05, 40.0), st.integers(2, 5000)), min_size=1, max_size=4)


@settings(max_examples=12)
@given(_POINTS)
def test_grid_core_equals_one_tree_calls(points):
    radii, dims = [R for R, _ in points], [d for _, d in points]
    reports = rate_envelopes(radii, dims)
    assert reports == [rate_envelope(R, d) for R, d in points]
    for (R, d), report, row in zip(points, reports, width_ratio_table("a", dims, radii)):
        log_i1, log_i2, log_i4, log_w, log_mean = _one_tree_logs(R, d)
        ints = integrals(R, d)
        assert ints.log_mean_integral == log_i1
        assert ints.log_variance_integral == log_i2
        assert ints.log_cum4_integral == log_i4
        assert ints.width == report.width == row.width == effective_width(R, d) == math.exp(log_w)
        assert moments(R, d).log_mean == log_mean


@settings(max_examples=8)
@given(_POINTS)
def test_moments_grid_equals_one_point_moments(points):
    radii, dims = [R for R, _ in points], [d for _, d in points]
    summaries = moments_grid(radii, dims)
    assert summaries == [moments(R, d) for R, d in points]
    assert [m.width for m in summaries] == [effective_width(R, d) for R, d in points]


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


def _failing_engine(monkeypatch, point, kind):
    """Make the engine report a failure of one tree, on top of its results.
    The grid core numbers its trees kind by kind: i1 of every point, then i2,
    i4 and the width."""
    real = analysis._lockstep

    def engine(log_f, a, b, rel_tol):
        values, _ = real(log_f, a, b, rel_tol)
        tree = kind * (len(a) // 4) + point
        return values, {tree: QuadratureError(f"tree {point}/{kind}", last=0.0, previous=0.0)}

    monkeypatch.setattr(analysis, "_lockstep", engine)


@pytest.mark.parametrize(
    "point, kind, message",
    [
        (0, 3, "tree 0/3"),  # point 0's width tree
        (1, 0, "tree 1/0"),  # point 1's i1 tree, before point 1's width check
        (1, 3, "tree 1/3"),  # point 1's width tree, before its own check
        (2, 0, "exceeds 2R"),  # point 2's i1 tree, after point 1's width check
    ],
)
def test_grid_failures_come_in_point_by_point_order(monkeypatch, point, kind, message):
    # point 1's width estimate passes 2R; each point runs i1, i2, i4, width
    _failing_engine(monkeypatch, point, kind)
    with pytest.raises(QuadratureError, match=message):
        rate_envelopes([2.0, 1e100, 3.0], [3, 3, 5])


def test_grid_validates_every_point_before_quadrature():
    # point 0 alone fails in quadrature; point 1's radius is invalid
    with pytest.raises(QuadratureError, match="exceeds 2R"):
        rate_envelopes([2.0, 1e100, 3.0], [3, 3, 5])
    with pytest.raises(ValueError, match="R must be finite and positive, got nan"):
        rate_envelopes([1e100, math.nan], [3, 3])
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        rate_envelopes([1e100, 2.0], [3, 1])
    with pytest.raises(ValueError, match="R must be finite and positive, got nan"):
        width_ratio_table("a", [3, 3], [1e100, math.nan])
    with pytest.raises(ValueError, match="radii must match d_grid in length"):
        rate_envelopes([1.0, 2.0], [3])
    assert rate_envelopes([], []) == []


def test_width_scale_past_double_range_is_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = width_scale(1500.0, 3)
        assert far.value == far.companion == math.inf
        # sinh(715) overflows, but divided by sqrt(10^6) it is finite again
        near = width_scale(1430.0, 10**6)
        with mp.workdps(30):
            want = mp.sinh(715) / 1000
            assert near.value == pytest.approx(float(want), rel=1e-12)
            assert near.companion == pytest.approx(float(mp.exp((1430 - mp.log(10**6)) / 2) / 2), rel=1e-12)
        with pytest.raises(QuadratureError, match="width scale"):
            width_substituted(1500.0, 3)
