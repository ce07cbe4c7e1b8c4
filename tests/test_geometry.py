import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horospheres.geometry import (
    LOG_ZERO,
    EuclideanCircle,
    HorosphereParam,
    check_dimension,
    check_radius,
    horocycle_disc_embedding,
    log_chord_area,
    log_sinh,
    log_unit_ball_volume,
)


def test_check_dimension_accepts_plain_ints():
    assert check_dimension(2) == 2
    assert check_dimension(np.int64(7)) == 7
    assert check_dimension(3, minimum=1) == 3


def test_check_dimension_rejects_bad_values():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            check_dimension(bad)
    for bad in (2.5, "3", True):
        with pytest.raises((TypeError, ValueError)):
            check_dimension(bad)


def test_check_radius_accepts_finite_positive_values():
    assert check_radius(2) == 2.0 and isinstance(check_radius(2), float)
    assert check_radius(np.float64(1e-300)) == 1e-300


def test_check_radius_admits_normal_doubles_up_to_a_dimension_limit():
    big = sys.float_info.max
    assert check_radius(sys.float_info.min) == sys.float_info.min
    assert check_radius(big / 4) == big / 4
    assert check_radius(big / 8, 3) == big / 8
    assert check_radius(big / 4, 1) == big / 4
    for R, d in ((5e-324, 2), (1e-320, 3), (big / 2, 2), (big / 4, 3), (1e300, 10**9)):
        with pytest.raises(ValueError, match="R must be a normal double no larger than"):
            check_radius(R, d)
    # log_chord_area checks R against its own dimension
    with pytest.raises(ValueError, match="no larger than"):
        log_chord_area(0.0, big / 4, 3)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_check_radius_rejects_bad_values(bad):
    with pytest.raises(ValueError, match="R must be finite and positive"):
        check_radius(bad)
    # every R-taking routine goes through the same check
    with pytest.raises(ValueError, match="R must be finite and positive"):
        log_chord_area(0.0, bad, 3)


def test_log_sinh_moderate():
    for x in (0.01, 0.5, 1.0, 4.0):
        assert log_sinh(x) == pytest.approx(math.log(math.sinh(x)), rel=1e-14)


def test_log_sinh_huge_argument():
    # sinh overflows long before x = 1000; the log form must not
    assert log_sinh(1000.0) == pytest.approx(1000.0 - math.log(2.0), rel=1e-15)


def test_log_sinh_tiny_argument():
    assert log_sinh(1e-300) == pytest.approx(math.log(1e-300), rel=1e-12)


def test_log_sinh_vectorized():
    xs = np.array([0.1, 1.0, 10.0])
    got = log_sinh(xs)
    want = np.log(np.sinh(xs))
    assert np.allclose(got, want, rtol=1e-14)


def test_log_unit_ball_volume_low_dimensions():
    assert log_unit_ball_volume(0) == pytest.approx(0.0, abs=1e-15)
    assert log_unit_ball_volume(1) == pytest.approx(math.log(2.0), rel=1e-14)
    assert log_unit_ball_volume(2) == pytest.approx(math.log(math.pi), rel=1e-14)
    assert log_unit_ball_volume(3) == pytest.approx(math.log(4.0 * math.pi / 3.0), rel=1e-14)


def test_horosphere_param_validates_direction():
    p = HorosphereParam(0.5, (0.6, 0.8))
    assert p.s == 0.5
    with pytest.raises(ValueError):
        HorosphereParam(0.0, (1.0, 1.0))


def test_euclidean_circle_must_touch_boundary():
    EuclideanCircle((0.5, 0.0), 0.5)
    with pytest.raises(ValueError):
        EuclideanCircle((0.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        EuclideanCircle((0.5, 0.0), -0.1)


def test_log_chord_area_reference_value():
    # reference: 30-digit evaluation of log(kappa_2 (2 e^s (cosh R - cosh s)))
    # at d=3, R=1, s=0.5, exponent (d-1)/2 = 1
    assert log_chord_area(0.5, 1.0, 3) == pytest.approx(1.459495297356758, abs=1e-12)


def test_log_chord_area_planar_closed_form():
    # d=2: chord length is 2 sqrt(2 e^s (cosh R - cosh s)); at s=0 this is
    # 4 sinh(R/2) since cosh R - 1 = 2 sinh^2(R/2)
    R = 3.0
    got = log_chord_area(0.0, R, 2)
    assert got == pytest.approx(math.log(4.0 * math.sinh(R / 2.0)), rel=1e-14)


def test_log_chord_area_outside_window():
    assert log_chord_area(1.0, 1.0, 3) == float("-inf")
    assert log_chord_area(-2.5, 2.0, 4) == float("-inf")
    assert log_chord_area(7.0, 2.0, 2) == float("-inf")


def test_log_chord_area_near_edge_stays_finite():
    # cancellation-free gap evaluation: s within 1e-12 of R must not produce
    # nan or a spurious -inf at either sign of s
    R = 10.0
    for s in (R - 1e-12, -R + 1e-12):
        v = log_chord_area(s, R, 5)
        assert math.isfinite(v)


def test_log_chord_area_vectorized_matches_scalar():
    R, d = 2.0, 4
    ss = np.linspace(-3.0, 3.0, 25)
    vec = log_chord_area(ss, R, d)
    for s, v in zip(ss, vec):
        assert v == log_chord_area(float(s), R, d) or (
            math.isinf(v) and math.isinf(log_chord_area(float(s), R, d))
        )


# The cap at s and the cap at -s differ only by the factor e^{(d-1)s}: log A(s)
# - log A(-s) = (d-1)s.  Each log area is a constant plus (d-1)/2 times a sum
# whose terms can cancel, so the identity holds to a few ulps of the sum of
# the magnitudes of both log areas, the constant and (d-1)|s|.  The worst
# measured over 256,000 draws (d in 2..1000, R in [1e-3, 50], s up to 1e-16 R
# from either edge) was 1.16 such ulps; the bound is 4.
@settings(max_examples=300)
@given(st.integers(2, 1000), st.floats(1e-3, 50.0), st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
@example(41, 0.0017120930018916598, -0.9999994606029348)
@example(1000, 50.0, 1.0 - 2.0**-52)
def test_log_chord_area_reflection_identity(d, R, q):
    s = q * R
    assume(abs(s) < R)
    plus, minus = log_chord_area(s, R, d), log_chord_area(-s, R, d)
    size = abs(plus) + abs(minus) + abs(log_unit_ball_volume(d - 1)) + (d - 1) * abs(s)
    assert abs((plus - minus) - (d - 1) * s) <= 4.0 * 2.0**-52 * size, (plus, minus)


@settings(max_examples=100)
@given(st.integers(2, 1000), st.floats(1e-3, 50.0), st.floats(1.0, 1e3))
@example(2, 1e-3, 1.0)
def test_log_chord_area_is_log_zero_outside_the_ball(d, R, k):
    s = k * R  # k >= 1, so |s| >= R
    assert log_chord_area(s, R, d) == LOG_ZERO
    assert log_chord_area(-s, R, d) == LOG_ZERO


def test_log_chord_area_large_radius_no_overflow():
    # at R = 500 the linear area is around e^{500 d/2}; log form must be finite
    v = log_chord_area(250.0, 500.0, 6)
    assert math.isfinite(v)
    assert v > 600.0


def test_embedding_tangency_invariant():
    for s, u in ((0.0, (1.0, 0.0)), (1.7, (0.0, -1.0)), (-2.2, (0.6, 0.8))):
        c = horocycle_disc_embedding(HorosphereParam(s, u))
        assert math.hypot(*c.center) + c.radius == pytest.approx(1.0, abs=1e-12)


def test_embedding_signed_distance_round_trip():
    # |1 - 2 rho| = tanh(|s|/2), so 2 artanh|1 - 2 rho| recovers |s|
    for s in (-6.0, -1.0, -1e-8, 0.0, 1e-8, 0.5, 3.0, 12.0):
        c = horocycle_disc_embedding(HorosphereParam(s, (0.0, 1.0)))
        recovered = 2.0 * math.atanh(abs(1.0 - 2.0 * c.radius))
        assert recovered == pytest.approx(abs(s), abs=1e-9)


def test_embedding_zero_distance_through_origin():
    c = horocycle_disc_embedding(HorosphereParam(0.0, (1.0, 0.0)))
    # distance from center to origin equals the radius exactly at s = 0
    assert math.hypot(*c.center) == pytest.approx(c.radius, abs=1e-12)
    assert c.radius == pytest.approx(0.5, abs=1e-12)


def test_embedding_origin_side():
    # positive s puts the origin strictly inside the horoball
    inside = horocycle_disc_embedding(HorosphereParam(2.0, (1.0, 0.0)))
    assert math.hypot(*inside.center) < inside.radius
    outside = horocycle_disc_embedding(HorosphereParam(-2.0, (1.0, 0.0)))
    assert math.hypot(*outside.center) > outside.radius


def test_embedding_tangency_point_direction():
    # the circle touches the boundary at -u
    u = (0.6, 0.8)
    c = horocycle_disc_embedding(HorosphereParam(1.0, u))
    norm = math.hypot(*c.center)
    touch = (c.center[0] / norm, c.center[1] / norm)
    assert touch[0] == pytest.approx(-u[0], abs=1e-12)
    assert touch[1] == pytest.approx(-u[1], abs=1e-12)


def test_embedding_extreme_s_stays_in_disc():
    # at s = 700 the logistic saturates to 1.0 in doubles; tangency must hold
    for s in (700.0, -700.0):
        c = horocycle_disc_embedding(HorosphereParam(s, (1.0, 0.0)))
        assert 0.0 < c.radius <= 1.0
        assert math.hypot(*c.center) + c.radius == pytest.approx(1.0, abs=1e-12)


def test_embedding_requires_planar_direction():
    with pytest.raises(ValueError):
        horocycle_disc_embedding(HorosphereParam(0.0, (1.0, 0.0, 0.0)))
