import math

import numpy as np
import pytest

from horospheres import sampling
from horospheres.geometry import log_unit_ball_volume
from horospheres.quadrature import quad_log_integral
from horospheres.euclidean import (
    FLAT,
    fourth_cumulant_closed,
    log_mean,
    log_section_area,
    normalized_rate_constant,
    variance_closed,
    wasserstein_bound,
)
from horospheres.sampling import FeasibilityError, SimConfig, sample_points, simulate_batch

from _oracles import flat_fourth_cumulant_direct as fourth_cumulant_direct, flat_variance_direct as variance_direct


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


# d from 1 to 10^300, through the switch to the gamma-ratio series at 16 and 2d - 1 = 16
_BOUND_DIMS = sorted({*range(1, 21), 30, 100, 1000, 10**4, *(10**k for k in range(5, 301, 5)), 2**53 + 1})


def test_wasserstein_bound_agrees_with_mpmath_at_every_dimension():
    # the gamma ratios at 60 digits plus those the lgamma values of size d log d need; both
    # fields within 2e-14 relative (measured worst 5.5e-15, at d = 15)
    mp = pytest.importorskip("mpmath")
    half = mp.mpf(1) / 2
    for d in _BOUND_DIMS:
        with mp.workdps(60 + 2 * len(str(d))):
            ratio = mp.exp(mp.loggamma(d + half) - mp.loggamma(d)
                           + (mp.loggamma(2 * d - 1) - mp.loggamma(2 * d - half)) / 2)
            normalized = 2 / mp.pi ** (half / 2) * ratio / mp.root(d, 4)
            for R in (0.5, 2.0, 100.0):
                got = wasserstein_bound(R, d)
                value = 2 / mp.pi ** (half / 2) * ratio / mp.sqrt(R)
                assert abs(got.value - value) <= 2e-14 * value, (d, R)
                assert abs(got.normalized - normalized) <= 2e-14 * normalized, (d, R)


_EPS = math.ulp(1.0)


def test_gamma_closed_forms_agree_with_mpmath():
    # log_mean, variance_closed and fourth_cumulant_closed are the log of the k-th cumulant at
    # k = 1, 2, 4, pi^(m-1/2) Gamma(m) R^(2m-1) / (Gamma(m+1/2) Gamma((d+1)/2)^k), m = k(d-1)/2 + 1,
    # whose k = 1 sum is checked against the ball volume.  Each value is held to 3 eps max(1, S),
    # S = sum |term| over the five lgamma and log terms of the plain sum (two for
    # log_unit_ball_volume), about 3 d log d: each term is rounded to its own ulp.  A bound per unit
    # of the result alone cannot hold, since the sums cross 0.  From d = 16 up, the three form their
    # terms of size d log d as one log, d log(2 pi e R^2/d), whose argument carries a few roundings,
    # so they are also held to 6 eps (d + |log V|), the second part being the ulp of the result;
    # below d = 16 they are the plain sum and meet that bound too.  Measured worst: 0.72 of the
    # first bound (the variance at d = 82, R = 1e200) and 3.6 eps (d + |log V|) (the fourth
    # cumulant at d = 13, R = 1); from d = 16 up 2.7, and the mean 1.7.  At R = sqrt(d/(2 pi e)),
    # where the moments are O(1), the plain sum reaches 45 eps (d + |log V|) for the fourth
    # cumulant at d = 10^15, and the mean formed as log kappa_d + d log R reaches 7.6, 18 and 112
    # at d = 10^15, 10^18 and 10^100.  Checked at R in (0.5, 1, 3), at that R, and at 1e-300 and
    # 1e200, where R^2 is out of double range, with the working precision raised by the digits of d.
    mp = pytest.importorskip("mpmath")
    half = mp.mpf(1) / 2
    forms = {1: log_mean, 2: variance_closed, 4: fourth_cumulant_closed}
    for d in [*range(0, 200), 1000, 10**4, 10**6, 10**9, 10**12, 10**15, 10**18, 10**100]:
        with mp.workdps(60 + 2 * len(str(d))):
            volume = [d * half * mp.log(mp.pi), -mp.loggamma(half * d + 1)]
            assert abs(log_unit_ball_volume(d) - mp.fsum(volume)) <= 3 * _EPS * max(1, sum(map(abs, volume))), d
            for R in (0.5, 1.0, 3.0, math.sqrt(d / (2 * math.pi * math.e)), 1e-300, 1e200) if d else ():
                log_r = mp.log(R)
                for k, form in forms.items():
                    m = k * (d - 1) * half + 1
                    terms = [(m - half) * mp.log(mp.pi), mp.loggamma(m), (2 * m - 1) * log_r,
                             -k * mp.loggamma(half * (d + 1)), -mp.loggamma(m + half)]
                    got, want = form(R, d), mp.fsum(terms)
                    if k == 1:
                        assert abs(want - mp.fsum(volume) - d * log_r) <= mp.mpf(10) ** -50 * (1 + abs(want)), (d, R)
                    assert abs(got - want) <= 3 * _EPS * max(1, sum(map(abs, terms))), (d, R, k)
                    assert abs(got - want) <= 6 * _EPS * (d + abs(want)), (d, R, k)


def test_closed_forms_past_double_range_read_minus_inf():
    # at d = 10^307 all three logs lie below -max double; log kappa_d alone would overflow there,
    # in lgamma(d/2 + 1)
    for form in (log_mean, variance_closed, fourth_cumulant_closed):
        assert form(1.0, 10**307) == -math.inf


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
