import math

import numpy as np
import pytest

from horospheres.special import erfc


def test_erfc_matches_stdlib():
    xs = np.linspace(-6.0, 6.0, 241)
    got = erfc(xs)
    want = np.array([math.erfc(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-13


def test_erfc_far_tail_relative():
    # relative accuracy deep into the tail
    for x in (3.0, 5.0, 8.0, 15.0):
        assert erfc(x) == pytest.approx(math.erfc(x), rel=1e-12)


def test_erfc_scalar_in_scalar_out():
    out = erfc(0.3)
    assert isinstance(out, float)
    assert out == pytest.approx(1.0 - math.erf(0.3), abs=1e-15)


def test_erfc_reflection():
    # erfc(x) + erfc(-x) = 2, the odd symmetry of erf
    xs = np.linspace(0.0, 5.0, 101)
    assert np.max(np.abs(erfc(xs) + erfc(-xs) - 2.0)) < 1e-15


def test_error_functions_match_mpmath_oracle():
    # 40-digit mpmath on [-6, 26]; erfc(26) is near 1e-296, deep in the tail
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(-6.0, 26.0, 641), [-1e-8, 1e-300, 0.0, 2.5, 25.999]])
    with mpmath.workdps(40):
        for x, ec in zip(xs, erfc(xs)):
            want_erfc = mpmath.erfc(mpmath.mpf(float(x)))
            assert abs(ec - want_erfc) <= 1e-14 * abs(want_erfc), x
