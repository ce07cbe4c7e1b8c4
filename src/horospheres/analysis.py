"""Exact moments and normal-approximation bounds for the total cap area.

All moment integrals are evaluated in the log domain by the shared adaptive
engine; the effective width of the intersection window drives the distance
bounds and the growth-regime diagnostics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import check_dimension, check_radius, log_chord_area, log_sinh, log_unit_ball_volume
from .quadrature import QuadratureError, quad_log_integral
from .special import log_bessel_k0

__all__ = [
    "IntegralSet",
    "MomentSummary",
    "BoundReport",
    "Regime",
    "GrowthRegime",
    "WidthScale",
    "WidthRatioRow",
    "log_area_coefficient",
    "integrals",
    "moments",
    "variance_direct",
    "effective_width",
    "width_substituted",
    "width_scale",
    "width_limit_integral",
    "wasserstein_bound_width",
    "wasserstein_bound_integrals",
    "kolmogorov_bound",
    "width_ratio_table",
    "rate_envelope",
]

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class IntegralSet:
    """One-sided moment integrals at (R, d), all in log form, plus the
    effective width of the intersection window and the area coefficient."""

    R: float
    d: int
    log_mean_integral: float
    log_variance_integral: float
    log_cum4_integral: float
    width: float
    log_coefficient: float


@dataclass(frozen=True)
class MomentSummary:
    """Exact moments of the total cap area, in log form."""

    R: float
    d: int
    log_mean: float
    log_mean_positive_part: float
    log_variance: float
    log_cum4_negative_part: float

    @property
    def mean(self) -> float:
        return math.exp(self.log_mean)

    @property
    def variance(self) -> float:
        return math.exp(self.log_variance)

    @property
    def sd(self) -> float:
        return math.exp(0.5 * self.log_variance)


class Regime(str, enum.Enum):
    """Asymptotic regime a (d, R) point is heuristically assigned to."""

    FIXED_DIM = "fixed_d"
    HIGH_DIM_BOUNDED = "high_dim_bounded"
    HIGH_DIM_UNBOUNDED = "high_dim_unbounded"


@dataclass(frozen=True)
class BoundReport:
    """Computable distance bounds, the effective width behind them, and the
    regime rate envelope at (R, d)."""

    R: float
    d: int
    width: float
    wasserstein_bound_width: float
    wasserstein_bound_integrals: float
    kolmogorov_bound: float
    regime: Regime
    rate_envelope: float
    boundary: bool = False


def log_area_coefficient(d) -> float:
    """log of the constant multiplying the reduced cap-area integrand,
    ((d-1)/2) log 2 plus the log volume of the (d-1)-dimensional unit ball."""
    d = check_dimension(d)
    return 0.5 * (d - 1) * _LN2 + log_unit_ball_volume(d - 1)


def _log_cosh_gap(s, R):
    # log(cosh R - cosh s) for |s| < R, via the sinh product identity
    return _LN2 + log_sinh(0.5 * (R + s)) + log_sinh(0.5 * (R - s))


def effective_width(R, d, rel_tol: float = _DEFAULT_TOL) -> float:
    """Integral over (0, R) of (1 - (cosh s - 1)/(cosh R - 1))^(d-1).

    Equals R for the degenerate exponent d = 1 and shrinks as d grows; the
    integrand is computed from sinh products so it stays accurate near s = R.
    An estimate past 2R means the integrand lost its precision at this R
    and raises :class:`QuadratureError`.
    """
    d = check_dimension(d, minimum=1)
    R = check_radius(R, d)
    half_ls = float(log_sinh(0.5 * R))

    def log_f(s):
        return (d - 1.0) * (log_sinh(0.5 * (R + s)) + log_sinh(0.5 * (R - s)) - 2.0 * half_ls)

    log_w = quad_log_integral(log_f, 0.0, R, rel_tol=rel_tol)
    if log_w > math.log(R) + _LN2:
        raise QuadratureError(f"effective width estimate exceeds 2R at R = {R!r}", last=log_w, previous=log_w)
    return math.exp(log_w)


def integrals(R, d, rel_tol: float = _DEFAULT_TOL) -> IntegralSet:
    """The three one-sided moment integrals and the effective width at (R, d)."""
    d = check_dimension(d)
    R = check_radius(R, d)
    p = 0.5 * (d - 1)

    log_i1 = quad_log_integral(lambda s: p * (_log_cosh_gap(s, R) - s), 0.0, R, rel_tol=rel_tol)
    log_i2 = quad_log_integral(lambda s: 2.0 * p * _log_cosh_gap(s, R), 0.0, R, rel_tol=rel_tol)
    log_i4 = quad_log_integral(
        lambda s: 2.0 * p * (2.0 * _log_cosh_gap(s, R) - s), 0.0, R, rel_tol=rel_tol
    )
    return IntegralSet(
        R=R,
        d=d,
        log_mean_integral=log_i1,
        log_variance_integral=log_i2,
        log_cum4_integral=log_i4,
        width=effective_width(R, d, rel_tol=rel_tol),
        log_coefficient=log_area_coefficient(d),
    )


def moments(R, d, rel_tol: float = _DEFAULT_TOL) -> MomentSummary:
    """Exact mean, positive-part mean, variance, and negative-part fourth
    cumulant of the total cap area.

    The variance is assembled from the one-sided integral through the shared
    code path, so the evenness identity holds exactly as computed.
    """
    ints = integrals(R, d, rel_tol=rel_tol)
    c = ints.log_coefficient
    log_mean = quad_log_integral(
        lambda s: log_chord_area(s, ints.R, ints.d) - (ints.d - 1.0) * s,
        -ints.R,
        ints.R,
        rel_tol=rel_tol,
    )
    return MomentSummary(
        R=ints.R,
        d=ints.d,
        log_mean=log_mean,
        log_mean_positive_part=c + ints.log_mean_integral,
        log_variance=_LN2 + 2.0 * c + ints.log_variance_integral,
        log_cum4_negative_part=4.0 * c + ints.log_cum4_integral,
    )


def variance_direct(R, d, rel_tol: float = _DEFAULT_TOL) -> float:
    """log variance from the two-sided integral of the squared cap area
    against the intensity, independent of the one-sided route."""
    d = check_dimension(d)
    R = check_radius(R, d)
    return quad_log_integral(
        lambda s: 2.0 * log_chord_area(s, R, d) - (d - 1.0) * s, -R, R, rel_tol=rel_tol
    )


class WidthScale(NamedTuple):
    """sinh(R/2)/sqrt(d) together with its large-R companion (1/2)e^{(R-ln d)/2}."""

    value: float
    companion: float


def width_scale(R, d) -> WidthScale:
    """Scale parameter of the substituted width integral, with the companion
    exponential whose ratio to it tends to 1 as R grows."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return WidthScale(
        value=math.sinh(0.5 * R) / math.sqrt(d),
        companion=0.5 * math.exp(0.5 * (R - math.log(d))),
    )


def width_substituted(R, d, rel_tol: float = _DEFAULT_TOL) -> float:
    """Effective width through the sinh change of variables:
    2 rho times the integral over (0, sqrt(d)) of
    (1 - x^2/d)^(d-1) / sqrt(1 + rho^2 x^2), with rho = sinh(R/2)/sqrt(d).

    Must agree with :func:`effective_width` to quadrature accuracy.
    """
    d = check_dimension(d)
    rho = width_scale(R, d).value

    def log_f(x):
        x = np.asarray(x, dtype=float)
        return (d - 1.0) * np.log1p(-(x * x) / d) - np.log(np.hypot(1.0, rho * x))

    return 2.0 * rho * math.exp(quad_log_integral(log_f, 0.0, math.sqrt(d), rel_tol=rel_tol))


def width_limit_integral(L) -> float:
    """Large-dimension limit of width/(2 scale) at scale L, which equals the
    integral over (0, inf) of e^{-x^2}/sqrt(1 + L^2 x^2).

    Evaluated through the modified-Bessel closed form
    (1/(2L)) e^{1/(2L^2)} K0(1/(2L^2)), combined in log space so the
    exponential factor cannot overflow.
    """
    if not L > 0:
        raise ValueError(f"L must be positive, got {L!r}")
    L = float(L)
    z = 1.0 / (2.0 * L * L)
    return math.exp(-math.log(2.0 * L) + z + log_bessel_k0(z))


def wasserstein_bound_width(R, d, width=None, rel_tol: float = _DEFAULT_TOL) -> float:
    """Wasserstein bound in terms of the effective width:
    sqrt(2) (1/(sqrt(d-1) w) + 2/((d-1) sqrt(w)))."""
    d = check_dimension(d)
    if width is None:
        width = effective_width(R, d, rel_tol=rel_tol)
    if not width > 0:
        raise ValueError(f"width must be positive, got {width!r}")
    return _SQRT2 * (1.0 / (math.sqrt(d - 1.0) * width) + 2.0 / ((d - 1.0) * math.sqrt(width)))


def wasserstein_bound_integrals(R, d, integral_set: IntegralSet | None = None,
                                rel_tol: float = _DEFAULT_TOL) -> float:
    """Wasserstein bound straight from the moment integrals:
    sqrt(2) (sqrt(I4)/I2 + I1/sqrt(I2)) in the one-sided notation."""
    ints = integral_set if integral_set is not None else integrals(R, d, rel_tol=rel_tol)
    t1 = math.exp(0.5 * ints.log_cum4_integral - ints.log_variance_integral)
    t2 = math.exp(ints.log_mean_integral - 0.5 * ints.log_variance_integral)
    return _SQRT2 * (t1 + t2)


def kolmogorov_bound(wass) -> float:
    """Kolmogorov bound from a Wasserstein bound: sqrt((2/sqrt(pi)) wass)."""
    if not wass > 0:
        raise ValueError(f"wass must be positive, got {wass!r}")
    return math.sqrt(2.0 / math.sqrt(math.pi) * float(wass))


class GrowthRegime(str, enum.Enum):
    """Growth regimes for the width lower-bound diagnostics."""

    FIXED_DIM = "a"
    BOUNDED_GAP = "b1"
    GROWING_GAP = "b2"


@dataclass(frozen=True)
class WidthRatioRow:
    d: int
    R: float
    width: float
    ratio: float


def _regime_ratio(regime: GrowthRegime, d: int, R: float, width: float) -> float:
    if regime is GrowthRegime.FIXED_DIM:
        return width / R
    if regime is GrowthRegime.BOUNDED_GAP:
        return width * math.sqrt(d) * math.exp(-0.5 * R)
    gap = R - math.log(d)
    if gap <= 0:
        raise ValueError(
            f"growing-gap regime requires R > log d, got R = {R!r} at d = {d}"
        )
    return width / gap


def width_ratio_table(regime, d_grid, radii, rel_tol: float = _DEFAULT_TOL) -> list[WidthRatioRow]:
    """Width and regime ratio over a grid of (d, R) pairs, ``radii[k]`` at ``d_grid[k]``.

    Ratios: width/R for the fixed-dimension regime, width sqrt(d) e^{-R/2}
    when R tracks log d with bounded gap, and width/(R - log d) when the gap
    grows.
    """
    regime = GrowthRegime(regime)
    d_list = [check_dimension(d) for d in d_grid]
    if not d_list:
        raise ValueError("d_grid must not be empty")
    r_list = [float(r) for r in radii]
    if len(r_list) != len(d_list):
        raise ValueError("radii must match d_grid in length")
    rows = []
    for d, R in zip(d_list, r_list):
        w = effective_width(R, d, rel_tol=rel_tol)
        rows.append(WidthRatioRow(d=d, R=R, width=w, ratio=_regime_ratio(regime, d, R, w)))
    return rows


def rate_envelope(R, d, threshold: float = 0.0, dim_cutoff: int = 50,
                  rel_tol: float = _DEFAULT_TOL) -> BoundReport:
    """Classify (R, d) into a growth regime and report its rate envelope
    alongside both computable distance bounds.

    The classification compares R - log d against ``threshold``; a gap at or
    below it means the radius stays within a bounded window of log d, and a
    larger gap is read as the fixed-dimension regime for d up to
    ``dim_cutoff`` and as the growing-gap high-dimensional regime beyond.
    A point sitting exactly on the threshold is flagged as a boundary case.
    Sequences, not single points, own the true asymptotic dichotomy; this is
    a labeling heuristic for tables.
    """
    d = check_dimension(d)
    R = check_radius(R, d)
    gap = R - math.log(d)
    boundary = abs(gap - threshold) <= 1e-9
    if gap <= threshold:
        regime = Regime.HIGH_DIM_BOUNDED
        envelope = math.exp(-0.5 * R)
    elif d <= dim_cutoff:
        regime = Regime.FIXED_DIM
        envelope = 1.0 / math.sqrt(R)
    else:
        regime = Regime.HIGH_DIM_UNBOUNDED
        envelope = 1.0 / (math.sqrt(d) * gap) + 1.0 / (d * math.sqrt(gap))
    ints = integrals(R, d, rel_tol=rel_tol)
    wb_width = wasserstein_bound_width(R, d, width=ints.width)
    wb_ints = wasserstein_bound_integrals(R, d, integral_set=ints)
    return BoundReport(
        R=R,
        d=d,
        width=ints.width,
        wasserstein_bound_width=wb_width,
        wasserstein_bound_integrals=wb_ints,
        kolmogorov_bound=kolmogorov_bound(wb_width),
        regime=regime,
        rate_envelope=envelope,
        boundary=boundary,
    )
