"""Exact moments and normal-approximation bounds for the total cap area.

All moment integrals are evaluated in the log domain by the shared adaptive
engine; the effective width w of the intersection window drives the distance
bounds and the growth-regime diagnostics, and the variance integral is
i2 = (cosh R - 1)^(d-1) w.  A grid of (R, d) points is integrated in one
batched engine call: the i1, i4, width and (for the moments) ball-volume trees
of every point are refined in lockstep, and each point reports its first
failure in the order a point-by-point loop would meet it.  Each tree integrates
an O(1) log-integrand across its boundary layer, and a closed-form scale, a
multiple of (d-1)(R - log 2), is added to its log afterwards.  The large-dimension
width limit, a scaled Bessel K0 integral, is one more quadrature of the same engine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import _exp_or_inf, _log1mexp, check_dimension, check_radius, log_unit_ball_volume
from .quadrature import quad_log_integral, quad_log_integrals

__all__ = [
    "IntegralSet",
    "MomentSummary",
    "BoundReport",
    "Regime",
    "GrowthRegime",
    "WidthRatioRow",
    "log_area_coefficient",
    "integrals",
    "moments",
    "moments_grid",
    "effective_width",
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
_DEFAULT_TOL = 1e-10
# rate_envelope's labels: a gap R - log d at or below _GAP_THRESHOLD is the bounded-gap
# regime, and a larger one is the fixed-dimension regime up to d = _DIM_CUTOFF
_GAP_THRESHOLD = 0.0
_DIM_CUTOFF = 50

# trees of the grid core, per point, in the order their failures are reported
_WIDTH = ("width",)
_INTEGRALS = ("i1", "i4", "width")
_MOMENTS = _INTEGRALS + ("mean",)
_CLT = ("width", "mean")


@dataclass(frozen=True)
class IntegralSet:
    """One-sided moment integrals at (R, d), all in log form, plus the
    effective width of the intersection window."""

    R: float
    d: int
    log_mean_integral: float
    log_variance_integral: float
    log_cum4_integral: float
    width: float


@dataclass(frozen=True)
class MomentSummary:
    """Exact moments of the total cap area, in log form, and the effective
    width their integrals share a tree with.  The linear ``mean``, ``variance``
    and ``sd`` read ``inf`` past double range."""

    R: float
    d: int
    log_mean: float
    log_mean_positive_part: float
    log_variance: float
    log_cum4_negative_part: float
    width: float

    @property
    def mean(self) -> float:
        return _exp_or_inf(self.log_mean)

    @property
    def variance(self) -> float:
        return _exp_or_inf(self.log_variance)

    @property
    def sd(self) -> float:
        return _exp_or_inf(0.5 * self.log_variance)


class Regime(str, enum.Enum):
    """Asymptotic regime a (d, R) point is heuristically assigned to."""

    FIXED_DIM = "fixed_d"
    HIGH_DIM_BOUNDED = "high_dim_bounded"
    HIGH_DIM_UNBOUNDED = "high_dim_unbounded"


class BoundReport(NamedTuple):
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


def _log1mexp_negated(x):
    """L(y) = log(1 - e^-y) from x = -y, written over x: _log1mexp's steps after its negation."""
    np.expm1(x, out=x)
    np.negative(x, out=x)
    return np.log(x, out=x)


# The log-integrands, from the nodes, the dimension d and R, with L = _log1mexp: i1 and i4
# in s, the width and the mean in t = R - s.  By log(cosh R - cosh s) = R - log 2 + L(R + s)
# + L(R - s), log i1, log i4 and the mean's log are these integrals' logs plus k/2, 2k and k,
# k = (d-1)(R - log 2):
#   i1     0.5 (d-1) (S - s) and
#   i4     (d-1) (2 S - s), with S = L(R + s) + L(R - s);
#   width  (d-1) log(1 - x) at x = sinh^2(s/2)/sinh^2(R/2) = e^{2(L(R-t) - L(R)) - t}: log1p(-x)
#          where x < 1/2, x clamped so that it does not warn, and nearer the edge, where it would
#          cancel, the sinh-product form L(t) + L(2R-t) - 2L(R), taken only at those nodes;
#   mean   (d-1) (L(2(R - t)) - t).
# The mean is vol(B_R) by Campbell's theorem, the area of the unit sphere S^{d-1} times the
# integral of sinh^{d-1} s = e^{(d-1)(s - log 2 + L(2s))}.  Each is formed in place over its
# rows of the output, in the operation order of the plain forms, so the bits are theirs; the
# i1 and i4 rows are adjacent, and S is formed once over both.  -(R + s) is taken as (-R) - s
# and -(R - s) as s - R, which negation leaves exact.
def _grid_log_f(radii, dims, kinds):
    """The log-integrand of the grid core's trees, numbered kind by kind, tree = kind
    index * n + point, so the rows of one kind are contiguous in every call."""
    n = radii.size
    # each tree's constants, gathered per row as (k, 1) columns by one take
    table = np.tile(np.stack([radii, -radii, dims - 1, 0.5 * (dims - 1), _log1mexp(radii), 2.0 * radii], axis=1),
                    (len(kinds), 1))

    def log_f(s, tree):
        out = np.empty_like(s)
        bounds = np.searchsorted(tree, np.arange(len(kinds) + 1) * n).tolist()
        span = {name: slice(bounds[index], bounds[index + 1]) for index, name in enumerate(kinds)}
        R, neg_R, dm1, half_dm1, log_edge, twice_R = np.take(table, tree, axis=0).T[:, :, None]
        if "i1" in span:
            i1, i4, both = span["i1"], span["i4"], slice(span["i1"].start, span["i4"].stop)
            S = _log1mexp_negated(np.subtract(neg_R[both], s[both], out=out[both]))
            S += _log1mexp_negated(np.subtract(s[both], R[both]))
            out[i1] -= s[i1]
            out[i1] *= half_dm1[i1]
            out[i4] *= 2.0
            out[i4] -= s[i4]
            out[i4] *= dm1[i4]
        if "width" in span:
            rows = span["width"]
            t = s[rows]
            x = _log1mexp_negated(np.subtract(t, R[rows], out=out[rows]))
            x -= log_edge[rows]
            x *= 2.0
            x -= t
            np.exp(x, out=x)
            near = x >= 0.5
            np.minimum(x, 0.5, out=x)
            np.negative(x, out=x)
            np.log1p(x, out=x)
            t_near, row = t[near], np.flatnonzero(near) // t.shape[1]
            x[near] = (_log1mexp(t_near) + _log1mexp(twice_R[rows][row, 0] - t_near)
                       - 2.0 * log_edge[rows][row, 0])
            x *= dm1[rows]
        if "mean" in span:
            rows = span["mean"]
            t = s[rows]
            out[rows] = dm1[rows] * (_log1mexp(2.0 * (R[rows] - t)) - t)
        return out

    return log_f


# Each tree runs over (0, min(R, end)).  f(s) = log(cosh R - cosh s) is concave and decreasing
# on (0, R) with f'(0) = 0, so the i1 and i4 log-integrands g are concave with slope at most
# -lam, lam = (d-1)/2 for i1 and d-1 for i4, and so is the mean's in t, (d-1) log sinh(R - t),
# with lam = d-1.  The cut c = 40/lam has g(0) - g(c) = D >= 40.  The tail past c is at most
# e^{g(c)}/lam and, by the chord bound, the head is at least c e^{g(0)} (1 - e^-D)/D, so
# tail/head <= e^-40 (4e-18), below 1/50 of an ulp.  Past t = log(4d) + 40, x < e^-t/(1 -
# e^-R)^2 and the width's integrand (1 - x)^(d-1) is 1 to within e^-41, so that part of (0, R)
# is added to the width as its length.
_ENDS = {
    "i1": lambda d: 80.0 / (d - 1.0),
    "i4": lambda d: 40.0 / (d - 1.0),
    "width": lambda d: np.log(4.0 * d) + 40.0,
    "mean": lambda d: 40.0 / (d - 1.0),
}


def _log_scale(R, d):
    """k = (d-1)(R - log 2), the scale of the grid trees in the log of cosh R - cosh s."""
    return (d - 1) * (R - _LN2)


def _checked_points(radii, dims, minimum: int = 2) -> list[tuple[float, int]]:
    """Validated (R, d) pairs, in grid order, from radii and dimensions of equal length."""
    radii, dims = list(radii), list(dims)
    if len(radii) != len(dims):
        raise ValueError("radii must match d_grid in length")
    points = []
    for R, d in zip(radii, dims):
        d = check_dimension(d, minimum=minimum)
        points.append((check_radius(R, d), d))
    return points


def _grid_logs(points, kinds):
    """Log integrals of the ``kinds`` trees at every validated (R, d) point, all
    from one lockstep engine call, each over its interval.

    Yields each point's logs in ``kinds`` order (the log width, and the other
    trees' logs before their scales are added), then L(R) = log(1 - e^-R) and
    the width itself; every kinds tuple holds the width.  A point's first failed
    tree is raised when the iteration reaches that point.
    """
    n = len(points)
    radii = np.array([R for R, _ in points])
    dims = np.array([d for _, d in points], dtype=float)
    ends = np.array([np.minimum(radii, _ENDS[name](dims)) for name in kinds])
    logs, failures = quad_log_integrals(_grid_log_f(radii, dims, kinds), np.zeros(ends.size), ends.ravel(),
                                        _DEFAULT_TOL)
    logs = logs.reshape(len(kinds), n)
    # the part of (0, R) past the width tree's end adds its length, to the log and, as a
    # linear sum, to the width, which exp(log w) would give only to about |log w| ulps
    row = kinds.index("width")
    far = radii > ends[row]
    tail = (radii - ends[row])[far]
    widths = np.array([math.exp(log_w) for log_w in logs[row].tolist()])
    widths[far] += tail
    logs[row, far] += np.log1p(tail * np.exp(-logs[row, far]))
    rows = np.vstack([logs, _log1mexp(radii), widths]).T.tolist()
    if not failures:
        yield from rows
        return
    for p in range(n):
        for index in range(len(kinds)):
            if index * n + p in failures:
                raise failures[index * n + p]
        yield rows[p]


def _log_variance_integral(R, d, log_w, log_edge):
    """log i2 from the log width and L(R): i2 = (cosh R - 1)^(d-1) w, with
    cosh R - 1 = e^{R - log 2 + 2L(R)}."""
    return log_w + (_log_scale(R, d) + 2 * (d - 1) * log_edge)


def effective_width(R, d) -> float:
    """Integral over (0, R) of (1 - (cosh s - 1)/(cosh R - 1))^(d-1).

    Equals R for the degenerate exponent d = 1 and shrinks as d grows.  The
    integrand is integrated in the distance t = R - s from the ball's edge,
    where it differs from 1, as log1p of the sinh ratio or, nearer the edge,
    from sinh products, so it stays accurate at every accepted R; the rest of
    (0, R) is added as its length.
    """
    [(_, _, width)] = _grid_logs(_checked_points([R], [d], minimum=1), _WIDTH)
    return width


def integrals(R, d) -> IntegralSet:
    """The three one-sided moment integrals and the effective width at (R, d)."""
    points = _checked_points([R], [d])
    [(R, d)], [(log_i1, log_i4, log_w, log_edge, width)] = points, _grid_logs(points, _INTEGRALS)
    k = _log_scale(R, d)
    return IntegralSet(R, d, log_i1 + 0.5 * k, _log_variance_integral(R, d, log_w, log_edge),
                       log_i4 + 2.0 * k, width)


def moments(R, d) -> MomentSummary:
    """Exact mean, positive-part mean, variance, and negative-part fourth
    cumulant of the total cap area.

    The variance is assembled from the one-sided integral through the shared
    code path, so the evenness identity holds exactly as computed.
    """
    return moments_grid([R], [d])[0]


def moments_grid(radii, d_grid) -> list[MomentSummary]:
    """:func:`moments` at every point (``radii[k]``, ``d_grid[k]``), each bit for bit
    the one-point result, from one batched engine call."""
    points = _checked_points(radii, d_grid)
    summaries = []
    for (R, d), (log_i1, log_i4, log_w, log_v, log_edge, width) in zip(points, _grid_logs(points, _MOMENTS)):
        c, k = log_area_coefficient(d), _log_scale(R, d)
        log_mean, log_variance = _log_mean_variance(R, d, log_w, log_v, log_edge)
        summaries.append(MomentSummary(R, d, log_mean, c + (log_i1 + 0.5 * k), log_variance,
                                       4.0 * c + (log_i4 + 2.0 * k), width))
    return summaries


def _log_mean_variance(R, d, log_w, log_v, log_edge):
    """log mean and log variance of the total cap area from the log width, the mean
    tree's log and L(R)."""
    return (math.log(d) + log_unit_ball_volume(d) + (log_v + _log_scale(R, d)),
            _LN2 + 2.0 * log_area_coefficient(d) + _log_variance_integral(R, d, log_w, log_edge))


def _clt_grid(radii, d_grid) -> list[tuple[float, float, float]]:
    """(log mean, log variance, width) at every point, bit for bit those of
    :func:`moments_grid`, from the width and mean trees alone."""
    points = _checked_points(radii, d_grid)
    return [(*_log_mean_variance(R, d, log_w, log_v, log_edge), width)
            for (R, d), (log_w, log_v, log_edge, width) in zip(points, _grid_logs(points, _CLT))]


def width_limit_integral(L) -> float:
    """Large-dimension limit of width/(2 scale) at scale L, which equals the
    integral over (0, inf) of e^{-x^2}/sqrt(1 + L^2 x^2).

    That is the modified-Bessel closed form (1/(2L)) e^z K0(z), z = 1/(2L^2).
    Since e^z K0(z) is the integral over t > 0 of e^{-2z sinh^2(t/2)} =
    e^{-(sinh(t/2)/L)^2}, cut at c = 2 asinh(sqrt(60) L), where the exponent is
    -60, the value is (c/(2L)) times the integral over (0, 1) of
    e^{-(sinh(c v/2)/L)^2}.  That forms neither z nor e^z, and its log is
    O(1), so it neither cancels nor overflows.  An L whose z is 0 or not
    finite is rejected.
    """
    if not L > 0:
        raise ValueError(f"L must be positive, got {L!r}")
    L = float(L)
    square = 2.0 * L * L
    if not 0.0 < square < math.inf or not math.isfinite(1.0 / square):
        raise ValueError(f"L must leave 1/(2 L^2) a finite positive double, got L = {L!r}")
    c = 2.0 * math.asinh(math.sqrt(60.0) * L)
    log_integral = quad_log_integral(lambda v: -np.square(np.sinh(0.5 * c * v) / L), 0.0, 1.0, rel_tol=1e-11)
    return 0.5 * c / L * math.exp(log_integral)


def wasserstein_bound_width(R, d, width=None) -> float:
    """Wasserstein bound in terms of the effective width:
    sqrt(2) (1/(sqrt(d-1) w) + 2/((d-1) sqrt(w)))."""
    d = check_dimension(d)
    return _width_bound(d, effective_width(R, d) if width is None else width)


def _width_bound(d: int, width) -> float:
    """:func:`wasserstein_bound_width` at a checked dimension ``d``."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width!r}")
    return _SQRT2 * (1.0 / (math.sqrt(d - 1.0) * width) + 2.0 / ((d - 1.0) * math.sqrt(width)))


def wasserstein_bound_integrals(R, d) -> float:
    """Wasserstein bound straight from the moment integrals:
    sqrt(2) (sqrt(I4)/I2 + I1/sqrt(I2)) in the one-sided notation.  This is
    :func:`rate_envelope`'s ``wasserstein_bound_integrals``."""
    return rate_envelope(R, d).wasserstein_bound_integrals


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


def width_ratio_table(regime, d_grid, radii) -> list[WidthRatioRow]:
    """Width and regime ratio over a grid of (d, R) pairs, ``radii[k]`` at ``d_grid[k]``.

    Ratios: width/R for the fixed-dimension regime, width sqrt(d) e^{-R/2}
    when R tracks log d with bounded gap, and width/(R - log d) when the gap
    grows.
    """
    regime = GrowthRegime(regime)
    points = _checked_points(radii, d_grid)
    rows = []
    for (R, d), (_, _, w) in zip(points, _grid_logs(points, _WIDTH)):
        rows.append(WidthRatioRow(d=d, R=R, width=w, ratio=_regime_ratio(regime, d, R, w)))
    return rows


def rate_envelope(R, d) -> BoundReport:
    """Classify (R, d) into a growth regime and report its rate envelope
    alongside both computable distance bounds.

    The classification compares the gap R - log d against 0; a gap at or
    below it means the radius stays within a bounded window of log d, and a
    larger gap is read as the fixed-dimension regime for d up to 50 and as
    the growing-gap high-dimensional regime beyond.  A point whose gap is 0
    to within 1e-9 is flagged as a boundary case.
    Sequences, not single points, own the true asymptotic dichotomy; this is
    a labeling heuristic for tables.  This is :func:`rate_envelopes` at one
    point.
    """
    return rate_envelopes([R], [d])[0]


def rate_envelopes(radii, d_grid) -> list[BoundReport]:
    """:func:`rate_envelope` at every point (``radii[k]``, ``d_grid[k]``).

    Every point is validated before any quadrature runs, and the integrals of
    all points come from one batched engine call.  A failing point raises the
    error the point-by-point loop would have met first.
    """
    points = _checked_points(radii, d_grid)
    reports = []
    for (R, d), (log_i1, log_i4, log_w, log_edge, width) in zip(points, _grid_logs(points, _INTEGRALS)):
        gap = R - math.log(d)
        boundary = abs(gap - _GAP_THRESHOLD) <= 1e-9
        if gap <= _GAP_THRESHOLD:
            regime = Regime.HIGH_DIM_BOUNDED
            envelope = math.exp(-0.5 * R)
        elif d <= _DIM_CUTOFF:
            regime = Regime.FIXED_DIM
            envelope = 1.0 / math.sqrt(R)
        else:
            regime = Regime.HIGH_DIM_UNBOUNDED
            envelope = 1.0 / (math.sqrt(d) * gap) + 1.0 / (d * math.sqrt(gap))
        # the ratios of the scaled logs: i2 = w e^{k + 2(d-1)L(R)}, so no term of size k is formed
        wb_width = _width_bound(d, width)
        wb_ints = _SQRT2 * (math.exp(0.5 * log_i4 - log_w - 2 * (d - 1) * log_edge)
                            + math.exp(log_i1 - 0.5 * log_w - (d - 1) * log_edge))
        reports.append(BoundReport(R, d, width, wb_width, wb_ints, kolmogorov_bound(wb_width), regime, envelope,
                                   boundary))
    return reports
