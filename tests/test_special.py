import math

import numpy as np
import pytest

from horospheres.special import erf, erfc, log_bessel_k0, log_gamma


def test_log_gamma_small_integers():
    for n in range(1, 15):
        assert log_gamma(n) == pytest.approx(math.lgamma(n), rel=1e-13, abs=1e-13)


def test_log_gamma_half_integers():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
    assert log_gamma(1.5) == pytest.approx(math.log(math.sqrt(math.pi) / 2.0), rel=1e-13)
    assert log_gamma(10.5) == pytest.approx(math.lgamma(10.5), rel=1e-13)


def test_log_gamma_large_argument():
    for x in (50.0, 171.6, 1000.0, 1e6):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13)


def test_log_gamma_reflection_region():
    for x in (0.1, 0.25, 0.49):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12)


def test_log_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_erf_matches_stdlib():
    xs = np.linspace(-6.0, 6.0, 241)
    got = erf(xs)
    want = np.array([math.erf(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-13


def test_erfc_matches_stdlib():
    xs = np.linspace(-6.0, 6.0, 241)
    got = erfc(xs)
    want = np.array([math.erfc(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-13


def test_erfc_far_tail_relative():
    # the continued fraction keeps relative accuracy deep into the tail
    for x in (3.0, 5.0, 8.0, 15.0):
        assert erfc(x) == pytest.approx(math.erfc(x), rel=1e-12)


def test_erf_scalar_in_scalar_out():
    out = erf(0.3)
    assert isinstance(out, float)
    assert erfc(0.3) == pytest.approx(1.0 - out, abs=1e-15)


def test_erf_odd_symmetry():
    xs = np.linspace(0.0, 5.0, 101)
    assert np.max(np.abs(erf(xs) + erf(-xs))) < 1e-15


def test_log_bessel_k0_reference_values():
    # reference: 30-digit evaluation of the integral definition
    assert log_bessel_k0(1.0) == pytest.approx(-0.865064398906788, abs=1e-10)
    assert log_bessel_k0(0.1) == pytest.approx(0.886684366678742, abs=1e-10)


def test_log_bessel_k0_large_argument_asymptotics():
    # K0(z) ~ sqrt(pi/(2z)) e^(-z) (1 - 1/(8z) + ...) for large z
    z = 50.0
    approx = 0.5 * math.log(math.pi / (2.0 * z)) - z + math.log1p(-1.0 / (8.0 * z))
    assert log_bessel_k0(z) == pytest.approx(approx, abs=1e-4)


def test_log_bessel_k0_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_bessel_k0(0.0)


def test_error_functions_match_mpmath_oracle():
    # 40-digit mpmath on [-6, 26]; erfc(26) is near 1e-296, deep in the tail
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(-6.0, 26.0, 641), [-1e-8, 1e-300, 0.0, 2.5, 25.999]])
    got_erf, got_erfc = erf(xs), erfc(xs)
    with mpmath.workdps(40):
        for x, e, ec in zip(xs, got_erf, got_erfc):
            want_erfc = mpmath.erfc(mpmath.mpf(float(x)))
            assert abs(ec - want_erfc) <= 1e-14 * abs(want_erfc), x
            if x != 0.0:
                want_erf = mpmath.erf(mpmath.mpf(float(x)))
                assert abs(e - want_erf) <= 1e-14 * abs(want_erf), x


def test_log_gamma_matches_mpmath_oracle():
    # the reflection region x < 0.5, the minimum near 1.46 and x up to 1e4
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([[1e-300, 1e-8, 0.1, 0.25, 0.49], np.linspace(0.5, 3.0, 51), np.geomspace(3.0, 1e4, 60)])
    with mpmath.workdps(40):
        for x in xs:
            want = mpmath.loggamma(mpmath.mpf(float(x)))
            # absolute near the zeros at 1 and 2, relative elsewhere
            assert abs(log_gamma(x) - want) <= 1e-14 * max(1.0, abs(want)), x
