"""The fused hit kernels of both models against 50-digit mpmath, and their
agreement with the distance maps and the public signed-distance area
functions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horospheres import euclidean, sampling
from horospheres.geometry import log_chord_area

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
