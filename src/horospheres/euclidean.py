"""Stationary isotropic Poisson hyperplanes in Euclidean space.

The flat comparison model: closed-form variance, fourth cumulant, and
Wasserstein bound from gamma ratios.  Simulation is
``sampling.simulate_batch(cfg, FLAT)``: the shared sampler with the
:data:`FLAT` model, whose cost does not grow with the dimension.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import LOG_ZERO, check_dimension, check_radius, log_unit_ball_volume
from .quadrature import quad_log_integral
from .sampling import _MIN_U, Model, _segment_log_sums

__all__ = [
    "EuclidBound",
    "log_section_area",
    "variance_closed",
    "fourth_cumulant_closed",
    "variance_direct",
    "fourth_cumulant_direct",
    "log_mean",
    "wasserstein_bound",
    "normalized_rate_constant",
    "FLAT",
]

_LN2 = math.log(2.0)
_LOG_PI = math.log(math.pi)


class EuclidBound(NamedTuple):
    """Wasserstein bound value plus its normalization value*sqrt(R)/d^(1/4)."""

    value: float
    normalized: float


def log_section_area(s, R, d):
    """log area of the slab a hyperplane at signed distance s cuts out of the
    ball of radius R.  Array-compatible in ``s``; -inf outside (-R, R)."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    sv = np.asarray(s, dtype=float)
    lower, upper = R - sv, R + sv
    inside = (lower > 0.0) & (upper > 0.0)
    out = np.full(sv.shape, LOG_ZERO)
    out[inside] = log_unit_ball_volume(d - 1) + 0.5 * (d - 1) * (np.log(lower[inside]) + np.log(upper[inside]))
    return float(out) if out.ndim == 0 else out


def variance_closed(R, d) -> float:
    """log of the closed-form variance,
    pi^(d-1/2) Gamma(d) R^(2d-1) / (Gamma((d+1)/2)^2 Gamma(d+1/2))."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return (
        (d - 0.5) * _LOG_PI
        + math.lgamma(d)
        + (2 * d - 1) * math.log(R)
        - 2.0 * math.lgamma(0.5 * (d + 1))
        - math.lgamma(d + 0.5)
    )


def fourth_cumulant_closed(R, d) -> float:
    """log of the closed-form fourth cumulant,
    pi^(2d-3/2) Gamma(2d-1) R^(4d-3) / (Gamma((d+1)/2)^4 Gamma(2d-1/2))."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return (
        (2 * d - 1.5) * _LOG_PI
        + math.lgamma(2.0 * d - 1.0)
        + (4 * d - 3) * math.log(R)
        - 4.0 * math.lgamma(0.5 * (d + 1))
        - math.lgamma(2.0 * d - 0.5)
    )


def variance_direct(R, d) -> float:
    """log variance by direct quadrature of the squared section area."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return _LN2 + quad_log_integral(
        lambda s: 2.0 * log_section_area(s, R, d), 0.0, R, rel_tol=1e-12
    )


def fourth_cumulant_direct(R, d) -> float:
    """log fourth cumulant by direct quadrature of the fourth power."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return _LN2 + quad_log_integral(
        lambda s: 4.0 * log_section_area(s, R, d), 0.0, R, rel_tol=1e-12
    )


def log_mean(R, d) -> float:
    """log of the expected total section area: by Campbell's theorem, the
    volume of the ball, log kappa_d + d log R."""
    d = check_dimension(d, minimum=1)
    return log_unit_ball_volume(d) + d * math.log(check_radius(R))


def _log_gamma_ratio_excess(y: float) -> float:
    """log(Gamma(y + 1/2)/Gamma(y)) - 1/2 log y for y >= 1.  From y = 16 up it is summed from the
    asymptotic series, as the two lgamma values, of size y log y, would cancel."""
    if y < 16.0:
        return math.lgamma(y + 0.5) - math.lgamma(y) - 0.5 * math.log(y)
    r = 1.0 / (y * y)
    return (-1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * (17 / 14336 + r * (-31 / 18432 + r * 691 / 180224))))) / y


def wasserstein_bound(R, d) -> EuclidBound:
    """Exact gamma-ratio Wasserstein bound,
    (2/pi^{1/4}) (Gamma(d+1/2)/Gamma(d)) sqrt(Gamma(2d-1)/Gamma(2d-1/2)) R^{-1/2},
    together with the normalization value*sqrt(R)/d^{1/4}.

    Each ratio Gamma(y + 1/2)/Gamma(y) is sqrt(y) times a factor near 1, so the
    normalization is (2/pi^{1/4}) (2 - 1/d)^{-1/4} times those factors: no log of
    size log d is formed and exponentiated."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    excess = _log_gamma_ratio_excess(float(d)) - 0.5 * _log_gamma_ratio_excess(2.0 * d - 1.0)
    normalized = 2.0 / math.pi**0.25 * math.exp(excess) / (2.0 - 1.0 / d) ** 0.25
    return EuclidBound(value=normalized * d**0.25 / math.sqrt(R), normalized=normalized)


def normalized_rate_constant(d) -> float:
    """The dimension-normalized bound constant, independent of R."""
    return wasserstein_bound(1.0, d).normalized


def _flat_hits(R: float, d: int):
    """The fused hit kernel at a valid (R, d), reducing per segment: with t = 2uR, the log
    area c + (d-1)/2 (log t + log(2R - t)) is c + (d-1) log 2R + (d-1)/2 log(u (1 - u)), exact
    at both edges because 1 - u is."""
    k = log_unit_ball_volume(d - 1) + (d - 1.0) * math.log(2.0 * R)

    def hits(u, starts):
        v = np.subtract(1.0, np.maximum(u, _MIN_U, out=u))
        np.log(np.multiply(u, v, out=u), out=u)
        return _segment_log_sums(np.add(np.multiply(u, 0.5 * (d - 1), out=u), k, out=u), starts)

    return hits


FLAT = Model(
    # intensity mass exactly 2R under the normalized sphere measure, distance uniform on (-R, R)
    log_mass=lambda R, d: math.log(2.0 * R),
    edge_distance=lambda u, R, d: np.multiply(np.maximum(u, _MIN_U, out=u), 2.0 * R, out=u),
    hits=_flat_hits,
)
