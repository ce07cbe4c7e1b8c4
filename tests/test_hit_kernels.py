"""The fused hit kernels of both models against 50-digit mpmath, and their
agreement with the distance maps and the public signed-distance area
functions."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horospheres import euclidean, sampling
from horospheres.geometry import log_chord_area, log_unit_ball_volume

_MODELS = {"hyperbolic": sampling.HYPERBOLIC, "euclidean": euclidean.FLAT}
_US = [2.0**-54, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]
_LAST_U = 1.0 - 2.0**-53


def _kernel(model, u, R, d):
    """The per-hit log areas: the kernel with one segment per hit."""
    u = np.array(u, dtype=float)
    return model.hits(R, d)(u, np.arange(u.size))


def _exact_t(model, u, R, d):
    """The far-edge distance t(u), to 50 digits (call inside ``mp.workdps(50)``)."""
    u, R, a = mp.mpf(u), mp.mpf(R), d - 1
    if model == "euclidean":
        return 2 * u * R
    return -mp.log1p(-u * -mp.expm1(-2 * a * R)) / a


def _exact_log_area(model, u, R, d):
    """log area at the exact far-edge distance t(u), to 50 digits."""
    with mp.workdps(50):
        t, R, a = _exact_t(model, u, R, d), mp.mpf(R), d - 1
        c = mp.mpf(a) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(a) / 2 + 1)
        if model == "euclidean":
            return c + mp.mpf(a) / 2 * (mp.log(t) + mp.log(2 * R - t))
        return c + mp.mpf(a) / 2 * (t + mp.log(-mp.expm1(-t)) + mp.log(-mp.expm1(t - 2 * R)))


def _check_against_mpmath(model, R, d):
    # 2e-15 per unit of |log area| (at least 1): an absolute 2e-15 for log
    # areas up to 1 in size; beyond, a double near 1000 is itself only good
    # to 1.1e-13
    got = _kernel(_MODELS[model], _US, R, d)
    for u, value in zip(_US, got.tolist()):
        exact = _exact_log_area(model, u, R, d)
        assert abs(value - exact) <= 2e-15 * max(1.0, abs(exact)), (u, value, exact)


@pytest.mark.parametrize("model", sorted(_MODELS))
@pytest.mark.parametrize("d", [2, 3, 11, 50])
@pytest.mark.parametrize("R", [0.5, 2.0, 8.0])
def test_hit_kernel_matches_mpmath_at_both_edges(model, d, R):
    _check_against_mpmath(model, R, d)


# each branch of the kernels: (d - 1) 2R below log 2, e^{2(d-1)R} past
# double range, e^{-2(d-1)R} below the smallest double, and the plane at both
# extremes of R
@pytest.mark.parametrize("model", sorted(_MODELS))
@pytest.mark.parametrize(("d", "R"), [(3, 0.1), (50, 0.005), (3, 180.0), (11, 50.0), (2, 1e-4), (2, 400.0)])
def test_hit_kernel_matches_mpmath_in_every_branch(model, d, R):
    _check_against_mpmath(model, R, d)


# The general kernel's M = inf branch, where e^{2(d-1)R} passes double range, at a mean count the
# sampler accepts: d = 10^200 and a mean of 60, so 2(d-1)R is about 930.  There the log area is
# c + (d-1)/2 (log t + log r) to within rounding, with c = log of the unit-ball volume in d - 1
# dimensions about -2.3e202 and the second term about twice that, so each rounding, of d - 1 as a
# double, of c, and of each product and sum, is worth an ulp or two of |c|.  Bound, fixed before
# the first run: 16 eps |c|
def test_general_kernel_matches_mpmath_past_double_range_at_a_feasible_mean():
    d = 10**200
    R = math.asinh(0.5 * (d - 1) * 60.0) / (d - 1)
    assert 2.0 * (d - 1) * R > math.log(sys.float_info.max)
    sampling.check_feasible(sampling.SimConfig(d=d, R=R, replications=1, seed=0))
    bound = 16.0 * sys.float_info.epsilon * abs(log_unit_ball_volume(d - 1))
    got = _kernel(sampling.HYPERBOLIC, _US, R, d)
    for u, value in zip(_US, got.tolist()):
        exact = _exact_log_area("hyperbolic", u, R, d)
        assert abs(value - exact) <= bound, (u, value, exact)


# sample_points replays hits through the map the kernels take t from, so it
# must hold the same accuracy out to both edges; a map through the rounded
# product u w is off by 1e-3 of t at u = 1 - 2^-53
@pytest.mark.parametrize("model", sorted(_MODELS))
@pytest.mark.parametrize("d", [2, 3, 11, 50])
@pytest.mark.parametrize("R", [0.005, 0.5, 8.0, 180.0])
def test_far_edge_map_matches_mpmath(model, d, R):
    got = _MODELS[model].edge_distance(np.array(_US), R, d)
    with mp.workdps(50):
        for u, value in zip(_US, got.tolist()):
            exact = _exact_t(model, u, R, d)
            assert abs(value - exact) <= 4e-15 * exact, (u, value, exact)


@settings(max_examples=300)
@given(st.sampled_from(sorted(_MODELS)), st.integers(2, 60), st.floats(1e-3, 50.0),
       st.floats(2.0**-54, 1.0, exclude_max=True), st.floats(2.0**-54, 1.0, exclude_max=True))
@example("hyperbolic", 2, 0.006767957368402139, 0.5, _LAST_U)
def test_far_edge_map_is_monotone_inside_the_window(model, d, R, u1, u2):
    lo, hi = sorted((u1, u2))
    t = _MODELS[model].edge_distance(np.array([2.0**-54, lo, hi, _LAST_U]), R, d)
    assert np.all(np.diff(t) >= 0.0)
    assert 0.0 < t[0] and t[-1] < 2.0 * R


# Where the signed distance s = t - R is exact (t in [R/2, 2R]) and the far-edge
# map is well conditioned (1 - u w >= 0.01, w = 1 - e^{-2(d-1)R}, which holds
# for t up to 3R/2 when (d - 1) R <= 3), the public area functions at s agree
# with the kernel at u to 1e-13 plus two ulps of the value (a flat log area
# reaches several hundred).  Elsewhere s or t carries the rounding of R or of
# u w.
def _agree(got, want):
    assert abs(got - want) <= 1e-13 + 4e-16 * abs(want), (got, want)


@settings(max_examples=200)
@given(st.integers(2, 12), st.floats(0.02, 1.0), st.floats(0.0, 1.0))
def test_hyperbolic_kernel_agrees_with_log_chord_area(d, scale, q):
    a = d - 1.0
    R = scale * 3.0 / a
    # the uniform whose far-edge distance is R/2 + q R
    u = -math.expm1(-a * (0.5 + q) * R) / -math.expm1(-2.0 * a * R)
    t = float(sampling.HYPERBOLIC.edge_distance(np.array([u]), R, d)[0])
    _agree(float(_kernel(sampling.HYPERBOLIC, [u], R, d)[0]), log_chord_area(t - R, R, d))


@settings(max_examples=200)
@given(st.integers(2, 60), st.floats(1e-3, 1e3), st.floats(0.25, 0.75))
def test_flat_kernel_agrees_with_log_section_area(d, R, u):
    t = float(euclidean.FLAT.edge_distance(np.array([u]), R, d)[0])
    _agree(float(_kernel(euclidean.FLAT, [u], R, d)[0]), euclidean.log_section_area(t - R, R, d))


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_hit_kernel_overwrites_its_input_with_finite_logs(model):
    # a zero draw is clamped, not turned into -inf
    logs = _kernel(_MODELS[model], [0.0, 0.25, _LAST_U], 2.0, 3)
    assert logs.shape == (3,)
    assert np.all(np.isfinite(logs))


# the plane's R range: from the smallest normal double to the count cap, 2 sinh R <= 10^8
_PLANE_R = [2.2250738585072014e-308, 1e-4, 0.5, 2.0, 8.0, math.asinh(5e7)]


def _clamped_plane(u, starts, R):
    """The plane's area e^K sqrt(u (1 - u))/((1 - u) w + E), summed per segment, with every
    draw clamped to [2^-54, 1) first, as the far-edge map clamps: the reference the clamp-free
    kernel must match on every nonzero draw and on a row [0]."""
    E, w = math.exp(-2.0 * R), -math.expm1(-2.0 * R)
    u = np.maximum(np.array(u, dtype=float), 2.0**-54)
    v = 1.0 - u
    area = np.sqrt(u * v) / (v * w + E)
    return np.log(np.add.reduceat(area, starts)) + (log_unit_ball_volume(1) + math.log(w))


def _plane(u, starts, R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return sampling.HYPERBOLIC.hits(R, 2)(np.array(u, dtype=float), np.array(starts))


@pytest.mark.parametrize("R", _PLANE_R)
def test_plane_rows_of_zero_draws_read_as_a_clamped_hit(R):
    # a draw of exactly 0 adds an exact 0 area, and a row sum is floored at the area of a hit
    # at 2^-54: a row [0] reads as it did under the clamp, and [0, x] as [x]
    # (a row [0, 0] reads as [0], where the clamp made it two hits at 2^-54)
    got = _plane([0.0, 2.0**-53, 0.5, _LAST_U, 0.0, 0.25, 0.0, 0.0], [0, 1, 2, 3, 4, 6], R)
    assert got[0] == got[5] == _clamped_plane([0.0], [0], R)[0]
    assert np.array_equal(got[1:5], _plane([2.0**-53, 0.5, _LAST_U, 0.25], [0, 1, 2, 3], R))
    assert np.array_equal(got[1:5], _clamped_plane([2.0**-53, 0.5, _LAST_U, 0.25], [0, 1, 2, 3], R))
    assert np.all(np.isfinite(got))


@settings(max_examples=300)
@given(st.floats(_PLANE_R[0], _PLANE_R[-1]),
       st.lists(st.lists(st.integers(1, 2**53 - 1), min_size=1, max_size=6), min_size=1, max_size=5))
@example(_PLANE_R[0], [[1], [2**53 - 1]])
@example(_PLANE_R[-1], [[1, 2**53 - 1], [2**52]])
def test_plane_kernel_equals_the_clamped_form_on_nonzero_draws(R, rows):
    # every draw numpy's random can give but 0, k 2^-53 for k from 1 to 2^53 - 1, and any R the
    # plane admits: each row is bit for bit the clamped form's
    u = [k * 2.0**-53 for row in rows for k in row]
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    assert np.array_equal(_plane(u, starts, R), _clamped_plane(u, starts, R))
