import math

import numpy as np
import pytest

from horospheres import sampling
from horospheres.quadrature import quad_log_integral
from horospheres.euclidean import (
    FLAT,
    euclid_moments,
    fourth_cumulant_closed,
    fourth_cumulant_direct,
    log_mean,
    log_section_area,
    normalized_rate_constant,
    variance_closed,
    variance_direct,
    wasserstein_bound,
)
from horospheres.sampling import FeasibilityError, SimConfig, sample_points, simulate_batch


def test_section_area_line_model():
    # d = 1: a hyperplane section of an interval is a point of measure 2...
    # no: kappa_0 = 1 and the exponent vanishes, so the area is exactly 1
    assert log_section_area(0.3, 1.0, 1) == pytest.approx(0.0, abs=1e-15)


def test_section_area_disc_chord():
    # d = 2: chord length 2 sqrt(R^2 - s^2)
    R, s = 2.0, 1.0
    want = math.log(2.0 * math.sqrt(R * R - s * s))
    assert log_section_area(s, R, 2) == pytest.approx(want, rel=1e-14)


def test_section_area_outside_window():
    assert log_section_area(1.0, 1.0, 2) == float("-inf")
    assert log_section_area(-3.0, 2.0, 3) == float("-inf")


def test_section_area_vectorized():
    R, d = 1.5, 3
    ss = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    out = log_section_area(ss, R, d)
    assert out.shape == ss.shape
    assert math.isinf(out[0]) and math.isinf(out[-1])
    assert out[2] == pytest.approx(math.log(math.pi * R * R), rel=1e-14)


def test_variance_line_model_exact():
    # d = 1 collapses to 2R for any radius
    for R in (0.5, 1.0, 5.0, 20.0):
        assert math.exp(variance_closed(R, 1)) == pytest.approx(2.0 * R, rel=1e-13)


def test_fourth_cumulant_line_model_exact():
    for R in (0.5, 5.0):
        assert math.exp(fourth_cumulant_closed(R, 1)) == pytest.approx(2.0 * R, rel=1e-13)


def test_closed_forms_reference_plane():
    # d=2, R=1: variance 16/3, fourth cumulant 256/15
    assert math.exp(variance_closed(1.0, 2)) == pytest.approx(16.0 / 3.0, rel=1e-12)
    assert math.exp(fourth_cumulant_closed(1.0, 2)) == pytest.approx(256.0 / 15.0, rel=1e-12)


def test_closed_forms_match_quadrature():
    for d in (1, 2, 3, 7, 15):
        for R in (0.5, 1.0, 5.0):
            assert variance_direct(R, d) == pytest.approx(variance_closed(R, d), abs=1e-11)
            assert fourth_cumulant_direct(R, d) == pytest.approx(
                fourth_cumulant_closed(R, d), abs=1e-11
            )


def test_mean_low_dimensions():
    # d=1: kappa_0 * 2R; d=2 at R=1: integral of the chord length is pi R^2 * ...
    assert math.exp(log_mean(5.0, 1)) == pytest.approx(10.0, rel=1e-12)
    got = math.exp(log_mean(1.0, 2))
    want = 2.0 * (math.pi / 2.0)  # integral of 2 sqrt(1 - s^2) over (-1, 1)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 11, 50])
def test_mean_closed_form_matches_quadrature(d):
    # the ball volume kappa_d R^d against twice the integral of the section
    # area over (0, R): relative 1e-13 on the mean is 1e-13 on its log
    for R in (0.3, 1.0, 4.0):
        quad = math.log(2.0) + quad_log_integral(lambda s: log_section_area(s, R, d), 0.0, R, rel_tol=1e-12)
        assert log_mean(R, d) == pytest.approx(quad, rel=0.0, abs=1e-13)


def test_wasserstein_bound_line_model():
    # d = 1: sqrt(2) cum4^{1/2} / ... reduces to sqrt(2/R) * ... = sqrt(2)/sqrt(R)
    got = wasserstein_bound(4.0, 1)
    assert got.value == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)


def test_wasserstein_bound_scaling_in_R():
    # the bound scales exactly like R^{-1/2}
    b1 = wasserstein_bound(1.0, 5).value
    b9 = wasserstein_bound(9.0, 5).value
    assert b9 == pytest.approx(b1 / 3.0, rel=1e-13)


def test_normalized_bound_definition():
    b = wasserstein_bound(7.0, 12)
    assert b.normalized == pytest.approx(b.value * math.sqrt(7.0) / 12.0**0.25, rel=1e-14)


def test_normalized_rate_constant_converges():
    # gamma-ratio asymptotics give 2/(2 pi)^{1/4} in high dimension
    limit = 2.0 / (2.0 * math.pi) ** 0.25
    assert normalized_rate_constant(10**4) == pytest.approx(limit, rel=1e-4)
    a = normalized_rate_constant(10**3)
    b = normalized_rate_constant(10**4)
    assert abs(b - a) / a < 0.01


def test_euclid_moments_bundle():
    em = euclid_moments(2.0, 3)
    assert em.log_variance == pytest.approx(variance_closed(2.0, 3), rel=1e-14)
    assert em.log_cum4 == pytest.approx(fourth_cumulant_closed(2.0, 3), rel=1e-14)
    assert em.wass_bound == pytest.approx(wasserstein_bound(2.0, 3).value, rel=1e-14)


def test_simulate_deterministic_and_batch_invariant():
    cfg = SimConfig(d=5, R=3.0, replications=10, seed=17)
    batch = simulate_batch(cfg, FLAT)
    larger = simulate_batch(SimConfig(d=5, R=3.0, replications=16, seed=17), FLAT)
    again = np.concatenate([sampling._simulate(cfg, FLAT, range(i, i + 1)).totals for i in range(10)])
    assert np.array_equal(batch.totals, larger.totals[:10])
    assert np.array_equal(batch.totals, again)
    assert np.array_equal(batch.totals, simulate_batch(cfg, FLAT).totals)


def test_simulate_count_tracks_mass():
    # intensity mass is exactly 2R in every dimension
    cfg = SimConfig(d=50, R=10.0, replications=500, seed=3)
    counts = simulate_batch(cfg, FLAT).counts
    assert counts.mean() == pytest.approx(20.0, abs=4.0 * math.sqrt(20.0 / 500))


def test_simulate_mean_matches_quadrature():
    cfg = SimConfig(d=2, R=1.0, replications=4000, seed=11)
    totals = simulate_batch(cfg, FLAT).totals
    want = math.exp(log_mean(1.0, 2))
    sd = math.sqrt(math.exp(variance_closed(1.0, 2)))
    assert totals.mean() == pytest.approx(want, abs=4.0 * sd / math.sqrt(4000))


def test_sample_points_replay_counts_and_totals():
    # the replayed hyperplanes give back the batch's count and log total
    cfg = SimConfig(d=3, R=2.0, replications=6, seed=29)
    batch = simulate_batch(cfg, FLAT)
    for index in range(6):
        points = sample_points(cfg, index, FLAT)
        assert len(points) == batch.counts[index]
        logs = log_section_area(np.array([p.s for p in points]), cfg.R, cfg.d)
        want = float(np.logaddexp.reduce(logs)) if points else -math.inf
        assert want == pytest.approx(batch.log_totals[index], rel=0.0, abs=1e-13)


def test_simulate_feasibility_cap():
    cfg = SimConfig(d=2, R=6.0e7, replications=1, seed=0)
    with pytest.raises(FeasibilityError) as excinfo:
        simulate_batch(cfg, FLAT)
    assert excinfo.value.cap == 1e8


def test_high_dimension_simulation_is_cheap():
    # the d=50 hyperbolic model is infeasible, the flat one is routine
    cfg = SimConfig(d=50, R=10.0, replications=50, seed=1)
    totals = simulate_batch(cfg, FLAT).totals
    assert len(totals) == 50
    assert np.all(totals >= 0.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        variance_closed(0.0, 2)
    with pytest.raises(ValueError):
        variance_closed(1.0, 0)
    with pytest.raises(ValueError):
        log_section_area(0.0, -1.0, 2)
