"""Special functions: log-gamma and the error functions from the standard
library, plus log K0 by quadrature.

The error functions apply ``math.erf``/``math.erfc`` elementwise because the
empirical-distance routines call them on full Monte Carlo samples.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import quad_log_integral

__all__ = ["log_gamma", "erf", "erfc", "log_bessel_k0"]


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(float(x))


_ERF = np.frompyfunc(math.erf, 1, 1)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _elementwise(ufunc, x):
    # a float for a scalar, else a float array of the input's shape
    arr = np.asarray(x, dtype=float)
    out = ufunc(arr)
    return float(out) if arr.ndim == 0 else out.astype(float)


def erf(x):
    """Error function, elementwise over numpy arrays."""
    return _elementwise(_ERF, x)


def erfc(x):
    """Complementary error function, elementwise; accurate in both tails."""
    return _elementwise(_ERFC, x)


def log_bessel_k0(z: float) -> float:
    """log K0(z) from the integral of e^{-z cosh t} over t > 0.

    The integrand is truncated where it has fallen 60 nats below its value at
    t = 0, which leaves a tail far smaller than the quadrature tolerance.
    """
    if not z > 0:
        raise ValueError(f"log_bessel_k0 requires z > 0, got {z!r}")
    z = float(z)
    upper = math.acosh(1.0 + 60.0 / z)
    return quad_log_integral(lambda t: -z * np.cosh(t), 0.0, upper, rel_tol=1e-11)
