"""Stationary isotropic Poisson hyperplanes in Euclidean space.

The flat comparison model: closed-form variance, fourth cumulant, and
Wasserstein bound from gamma ratios.  Simulation is
``sampling.simulate_batch(cfg, FLAT)``: the shared sampler with the
:data:`FLAT` model, whose cost does not grow with the dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import LOG_ZERO, check_dimension, check_radius, log_unit_ball_volume
from .quadrature import quad_log_integral
from .sampling import _MIN_U, Model, _segment_log_sums
from .special import log_gamma

__all__ = [
    "EuclidMoments",
    "EuclidBound",
    "log_section_area",
    "variance_closed",
    "fourth_cumulant_closed",
    "variance_direct",
    "fourth_cumulant_direct",
    "log_mean",
    "wasserstein_bound",
    "normalized_rate_constant",
    "euclid_moments",
    "FLAT",
]

_LN2 = math.log(2.0)
_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class EuclidMoments:
    """Closed-form moments and bound for the flat model at (R, d)."""

    R: float
    d: int
    log_variance: float
    log_cum4: float
    wass_bound: float
    normalized_bound: float


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
        + log_gamma(float(d))
        + (2 * d - 1) * math.log(R)
        - 2.0 * log_gamma(0.5 * (d + 1))
        - log_gamma(d + 0.5)
    )


def fourth_cumulant_closed(R, d) -> float:
    """log of the closed-form fourth cumulant,
    pi^(2d-3/2) Gamma(2d-1) R^(4d-3) / (Gamma((d+1)/2)^4 Gamma(2d-1/2))."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return (
        (2 * d - 1.5) * _LOG_PI
        + log_gamma(2.0 * d - 1.0)
        + (4 * d - 3) * math.log(R)
        - 4.0 * log_gamma(0.5 * (d + 1))
        - log_gamma(2.0 * d - 0.5)
    )


def variance_direct(R, d, rel_tol: float = 1e-12) -> float:
    """log variance by direct quadrature of the squared section area."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return _LN2 + quad_log_integral(
        lambda s: 2.0 * log_section_area(s, R, d), 0.0, R, rel_tol=rel_tol
    )


def fourth_cumulant_direct(R, d, rel_tol: float = 1e-12) -> float:
    """log fourth cumulant by direct quadrature of the fourth power."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return _LN2 + quad_log_integral(
        lambda s: 4.0 * log_section_area(s, R, d), 0.0, R, rel_tol=rel_tol
    )


def log_mean(R, d) -> float:
    """log of the expected total section area: by Campbell's theorem, the
    volume of the ball, log kappa_d + d log R."""
    d = check_dimension(d, minimum=1)
    return log_unit_ball_volume(d) + d * math.log(check_radius(R))


def wasserstein_bound(R, d) -> EuclidBound:
    """Exact gamma-ratio Wasserstein bound,
    (2/pi^{1/4}) (Gamma(d+1/2)/Gamma(d)) sqrt(Gamma(2d-1)/Gamma(2d-1/2)) R^{-1/2},
    together with the normalization value*sqrt(R)/d^{1/4}."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    log_bound = (
        _LN2
        - 0.25 * _LOG_PI
        + log_gamma(d + 0.5)
        - log_gamma(float(d))
        + 0.5 * (log_gamma(2.0 * d - 1.0) - log_gamma(2.0 * d - 0.5))
        - 0.5 * math.log(R)
    )
    value = math.exp(log_bound)
    return EuclidBound(value=value, normalized=value * math.sqrt(R) / d**0.25)


def normalized_rate_constant(d) -> float:
    """The dimension-normalized bound constant, independent of R."""
    return wasserstein_bound(1.0, d).normalized


def euclid_moments(R, d) -> EuclidMoments:
    """Closed-form moments and the Wasserstein bound in one record."""
    bound = wasserstein_bound(R, d)
    return EuclidMoments(
        R=float(R),
        d=check_dimension(d, minimum=1),
        log_variance=variance_closed(R, d),
        log_cum4=fourth_cumulant_closed(R, d),
        wass_bound=bound.value,
        normalized_bound=bound.normalized,
    )


def _flat_hits(R: float, d: int):
    """The fused hit kernel at a valid (R, d), reducing per segment: with t = 2uR, the log
    area c + (d-1)/2 (log t + log(2R - t)) is c + (d-1) log 2R + (d-1)/2 log(u (1 - u)), exact
    at both edges because 1 - u is."""
    k = log_unit_ball_volume(d - 1) + (d - 1.0) * math.log(2.0 * R)

    def hits(u, v, x, starts, lens):
        np.subtract(1.0, np.maximum(u, _MIN_U, out=u), out=v)
        np.log(np.multiply(u, v, out=u), out=u)
        return _segment_log_sums(np.add(np.multiply(u, 0.5 * (d - 1), out=u), k, out=u), starts, lens)

    return hits


FLAT = Model(
    # intensity mass exactly 2R under the normalized sphere measure, distance uniform on (-R, R)
    log_mass=lambda R, d: math.log(2.0 * R),
    edge_distance=lambda u, R, d: np.multiply(np.maximum(u, _MIN_U, out=u), 2.0 * R, out=u),
    hits=_flat_hits,
)
