"""Exact moments and normal-approximation bounds for the total cap area.

All moment integrals are evaluated in the log domain by the shared adaptive
engine; the effective width of the intersection window drives the distance
bounds and the growth-regime diagnostics.  A grid of (R, d) points is
integrated in one batched engine call: every tree of every point (the three
one-sided moment integrals, the width and, for the moments, the two-sided
mean) is refined in lockstep, and each point reports its first failure in the
order a point-by-point loop would meet it.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import check_dimension, check_radius, log_chord_area, log_sinh, log_unit_ball_volume
from .quadrature import QuadratureError, _lockstep, quad_log_integral
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
    "moments_grid",
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
    "rate_envelopes",
]

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_LOG_MAX = math.log(sys.float_info.max)
_DEFAULT_TOL = 1e-10

# trees of the grid core, per point, in the order their failures are reported
_WIDTH = ("width",)
_INTEGRALS = ("i1", "i2", "i4", "width")
_MOMENTS = _INTEGRALS + ("mean",)


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
    """Exact moments of the total cap area, in log form, and the effective
    width their integrals share a tree with."""

    R: float
    d: int
    log_mean: float
    log_mean_positive_part: float
    log_variance: float
    log_cum4_negative_part: float
    width: float

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


# The one-sided log-integrands over (0, R), from the nodes s, the dimension d,
# a = log sinh((R + s)/2), b = log sinh((R - s)/2) and h = log sinh(R/2).
# _LN2 + a + b is log(cosh R - cosh s), by the sinh product identity, which
# stays accurate out to s = R.
_ONE_SIDED = {
    "i1": lambda s, d, a, b, h: 0.5 * (d - 1) * (_LN2 + a + b - s),
    "i2": lambda s, d, a, b, h: 2.0 * (0.5 * (d - 1)) * (_LN2 + a + b),
    "i4": lambda s, d, a, b, h: 2.0 * (0.5 * (d - 1)) * (2.0 * (_LN2 + a + b) - s),
    "width": lambda s, d, a, b, h: (d - 1.0) * (a + b - 2.0 * h),
}


def _checked_points(radii, dims, minimum: int = 2) -> list[tuple[float, int]]:
    """Validated (R, d) pairs, in grid order."""
    points = []
    for R, d in zip(radii, dims):
        d = check_dimension(d, minimum=minimum)
        points.append((check_radius(R, d), d))
    return points


def _grid_logs(points, kinds, rel_tol):
    """Log integrals of the ``kinds`` trees at every validated (R, d) point,
    all from one lockstep engine call.

    Yields each point's logs, in ``kinds`` order.  A point's first failure,
    a failed tree or a width estimate past 2R right after its width tree, is
    raised when the iteration reaches that point.
    """
    n = len(points)
    radii = np.array([R for R, _ in points])
    dims = np.array([d for _, d in points], dtype=float)
    lower = np.array([-1.0 if name == "mean" else 0.0 for name in kinds])

    # trees are numbered kind by kind, tree = kind index * n + point, so the
    # rows of one kind are contiguous in every call
    def log_f(s, tree):
        out = np.empty_like(s)
        bounds = np.searchsorted(tree, np.arange(len(kinds) + 1) * n)
        for index, name in enumerate(kinds):
            rows = slice(bounds[index], bounds[index + 1])
            point = tree[rows] - index * n
            if name != "mean":
                R, d, x = radii[point, None], dims[point, None], s[rows]
                a, b, h = log_sinh(0.5 * (R + x)), log_sinh(0.5 * (R - x)), log_sinh(0.5 * R)
                out[rows] = _ONE_SIDED[name](x, d, a, b, h)
                continue
            for p in sorted(set(point.tolist())):
                own = np.flatnonzero(point == p) + bounds[index]
                R, d = points[p]
                out[own] = log_chord_area(s[own], R, d) - (d - 1.0) * s[own]
        return out

    logs, failures = _lockstep(log_f, np.outer(lower, radii).ravel(), np.tile(radii, len(kinds)), rel_tol)
    logs = logs.reshape(len(kinds), n).tolist()
    for p, (R, _) in enumerate(points):
        for index, name in enumerate(kinds):
            if index * n + p in failures:
                raise failures[index * n + p]
            log_w = logs[index][p]
            if name == "width" and log_w > math.log(R) + _LN2:
                raise QuadratureError(
                    f"effective width estimate exceeds 2R at R = {R!r}", last=log_w, previous=log_w
                )
        yield [logs[index][p] for index in range(len(kinds))]


def _exp(log_value: float) -> float:
    """exp, with ``inf`` past double range."""
    return math.exp(log_value) if log_value < _LOG_MAX else math.inf


def _integral_set(R, d, logs) -> IntegralSet:
    log_i1, log_i2, log_i4, log_w = logs[:4]
    return IntegralSet(
        R=R,
        d=d,
        log_mean_integral=log_i1,
        log_variance_integral=log_i2,
        log_cum4_integral=log_i4,
        width=math.exp(log_w),
        log_coefficient=log_area_coefficient(d),
    )


def effective_width(R, d, rel_tol: float = _DEFAULT_TOL) -> float:
    """Integral over (0, R) of (1 - (cosh s - 1)/(cosh R - 1))^(d-1).

    Equals R for the degenerate exponent d = 1 and shrinks as d grows; the
    integrand is computed from sinh products so it stays accurate near s = R.
    An estimate past 2R means the integrand lost its precision at this R
    and raises :class:`QuadratureError`.
    """
    [(log_w,)] = _grid_logs(_checked_points([R], [d], minimum=1), _WIDTH, rel_tol)
    return math.exp(log_w)


def integrals(R, d, rel_tol: float = _DEFAULT_TOL) -> IntegralSet:
    """The three one-sided moment integrals and the effective width at (R, d)."""
    points = _checked_points([R], [d])
    [logs] = _grid_logs(points, _INTEGRALS, rel_tol)
    return _integral_set(*points[0], logs)


def moments(R, d, rel_tol: float = _DEFAULT_TOL) -> MomentSummary:
    """Exact mean, positive-part mean, variance, and negative-part fourth
    cumulant of the total cap area.

    The variance is assembled from the one-sided integral through the shared
    code path, so the evenness identity holds exactly as computed.
    """
    return moments_grid([R], [d], rel_tol)[0]


def moments_grid(radii, d_grid, rel_tol: float = _DEFAULT_TOL) -> list[MomentSummary]:
    """:func:`moments` at every point (``radii[k]``, ``d_grid[k]``), each bit for bit
    the one-point result, from one batched engine call."""
    points = _checked_points(radii, d_grid)
    summaries = []
    for (R, d), (log_i1, log_i2, log_i4, log_w, log_mean) in zip(points, _grid_logs(points, _MOMENTS, rel_tol)):
        c = log_area_coefficient(d)
        summaries.append(MomentSummary(R, d, log_mean, c + log_i1, _LN2 + 2.0 * c + log_i2, 4.0 * c + log_i4,
                                       math.exp(log_w)))
    return summaries


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
    exponential whose ratio to it tends to 1 as R grows.

    A component past double range is ``inf``.  Past the range of sinh and
    exp, a component is exponentiated from its log; below it, the direct
    formula is kept, because exponentiating a log of size L loses about L
    ulps.
    """
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    if 0.5 * R < _LOG_MAX:
        value = math.sinh(0.5 * R) / math.sqrt(d)
    else:
        value = _exp(log_sinh(0.5 * R) - 0.5 * math.log(d))
    x = 0.5 * (R - math.log(d))
    companion = 0.5 * math.exp(x) if x < _LOG_MAX else _exp(x - _LN2)
    return WidthScale(value=value, companion=companion)


def width_substituted(R, d, rel_tol: float = _DEFAULT_TOL) -> float:
    """Effective width through the sinh change of variables:
    2 rho times the integral over (0, sqrt(d)) of
    (1 - x^2/d)^(d-1) / sqrt(1 + rho^2 x^2), with rho = sinh(R/2)/sqrt(d).

    Must agree with :func:`effective_width` to quadrature accuracy.  A rho
    past double range raises :class:`QuadratureError`.
    """
    d = check_dimension(d)
    rho = width_scale(R, d).value
    if not math.isfinite(rho):
        raise QuadratureError(
            f"width scale sinh(R/2)/sqrt(d) exceeds double range at R = {float(R)!r}",
            last=math.nan,
            previous=math.nan,
        )

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
    points = _checked_points(r_list, d_list)
    rows = []
    for (R, d), (log_w,) in zip(points, _grid_logs(points, _WIDTH, rel_tol)):
        w = math.exp(log_w)
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
    a labeling heuristic for tables.  This is :func:`rate_envelopes` at one
    point.
    """
    return rate_envelopes([R], [d], threshold, dim_cutoff, rel_tol)[0]


def rate_envelopes(radii, d_grid, threshold: float = 0.0, dim_cutoff: int = 50,
                   rel_tol: float = _DEFAULT_TOL) -> list[BoundReport]:
    """:func:`rate_envelope` at every point (``radii[k]``, ``d_grid[k]``).

    Every point is validated before any quadrature runs, and the integrals of
    all points come from one batched engine call.  A failing point raises the
    error the point-by-point loop would have met first.
    """
    radii, d_grid = list(radii), list(d_grid)
    if len(radii) != len(d_grid):
        raise ValueError("radii must match d_grid in length")
    points = _checked_points(radii, d_grid)
    grid = _grid_logs(points, _INTEGRALS, rel_tol)
    reports = []
    for R, d in points:
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
        ints = _integral_set(R, d, next(grid))
        wb_width = wasserstein_bound_width(R, d, width=ints.width)
        wb_ints = wasserstein_bound_integrals(R, d, integral_set=ints)
        reports.append(
            BoundReport(
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
        )
    return reports
