"""Hyperbolic geometry primitives.

Signed-distance parametrization of horospheres, unit-ball volumes, the log
area of a horosphere cap cut out by a centered ball, and the Poincare-disc
embedding of horocycles used for rendering.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import LOG_ZERO

__all__ = [
    "LOG_ZERO",
    "HorosphereParam",
    "EuclideanCircle",
    "check_dimension",
    "check_radius",
    "log_sinh",
    "log_unit_ball_volume",
    "log_chord_area",
    "horocycle_disc_embedding",
]

_LN2 = math.log(2.0)
_UNIT_TOL = 1e-12
# log of the largest double: math.exp overflows past it
_LOG_MAX = math.log(sys.float_info.max)


def _exp_or_inf(log_value: float) -> float:
    """exp, with ``inf`` past double range."""
    return math.exp(log_value) if log_value < _LOG_MAX else math.inf


def check_dimension(d, minimum: int = 2) -> int:
    """Validate an integer space dimension and return it as a plain int."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    d = int(d)
    if d < minimum:
        raise ValueError(f"dimension must be at least {minimum}, got {d}")
    if d > sys.float_info.max:
        raise ValueError(f"dimension must be at most {sys.float_info.max:.6g}, got an integer of {d.bit_length()} bits")
    return d


def check_radius(R, d: int = 2) -> float:
    """Validate a ball radius, finite and positive, and return it as a float.  It must also be
    a normal double (below, R - s rounds to 0 at quadrature nodes) and at most max double over
    4 max(d - 1, 1) (the log moments in dimension d reach about 2 (d - 1) R)."""
    R = float(R)
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be finite and positive, got {R!r}")
    limit = sys.float_info.max / (4.0 * max(d - 1, 1))
    if not sys.float_info.min <= R <= limit:
        raise ValueError(f"R must be a normal double no larger than {limit:.6g}, got {R!r}")
    return R


def _log1mexp(x):
    """log(1 - e^-x) for x > 0, array-compatible, from expm1, so 1 - e^-x does not cancel near 0."""
    return np.log(-np.expm1(-x))


def log_sinh(x):
    """log(sinh x) for x > 0, array-compatible, stable for tiny and huge x."""
    arr = np.asarray(x, dtype=float)
    out = arr + _log1mexp(2.0 * arr) - _LN2
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class HorosphereParam:
    """A horosphere coded by signed distance ``s`` and unit direction ``u``.

    Positive ``s`` places the origin on the convex side.
    """

    s: float
    u: tuple[float, ...]

    def __post_init__(self):
        u = tuple(float(c) for c in self.u)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "u", u)
        norm = float(np.linalg.norm(u))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"direction must be a unit vector, got |u| = {norm!r}")


@dataclass(frozen=True)
class EuclideanCircle:
    """A circle internally tangent to the unit circle, for disc rendering."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        center = (float(self.center[0]), float(self.center[1]))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        gap = abs(math.hypot(*center) + self.radius - 1.0)
        if gap > _UNIT_TOL:
            raise ValueError(f"circle is not internally tangent to the unit circle (gap {gap:.3e})")


def log_unit_ball_volume(ell) -> float:
    """log volume of the Euclidean unit ball in the given dimension (0 allowed)."""
    ell = check_dimension(ell, minimum=0)
    return 0.5 * ell * math.log(math.pi) - math.lgamma(0.5 * ell + 1.0)


def log_chord_area(s, R, d):
    """log area of the cap a horosphere at signed distance s cuts out of the
    ball of radius R, in hyperbolic dimension d.

    Array-compatible in ``s``; returns ``-inf`` outside the open interval
    (-R, R).  The cosh difference is evaluated as a product of sinh factors,
    2 sinh((R+s)/2) sinh((R-s)/2), which stays accurate out to |s| = R.  A point is
    inside when both halves are positive, which R + s > 0 alone misjudges when the
    sum is subnormal and its half rounds to 0.
    """
    d = check_dimension(d)
    R = check_radius(R, d)
    sv = np.asarray(s, dtype=float)
    half_plus, half_minus = 0.5 * (R + sv), 0.5 * (R - sv)
    inside = (half_plus > 0.0) & (half_minus > 0.0)
    out = np.full(sv.shape, LOG_ZERO)
    log_gap = _LN2 + log_sinh(half_plus[inside]) + log_sinh(half_minus[inside])
    out[inside] = log_unit_ball_volume(d - 1) + 0.5 * (d - 1) * (_LN2 + sv[inside] + log_gap)
    return float(out) if out.ndim == 0 else out


def horocycle_disc_embedding(h: HorosphereParam) -> EuclideanCircle:
    """Embed a plane (d = 2) horocycle as a circle in the Poincare disc.

    The circle is internally tangent to the unit circle at the ideal point
    -u and has Euclidean radius logistic(s), so the origin lies strictly
    inside exactly when s > 0 and on the circle when s = 0.
    """
    if len(h.u) != 2:
        raise ValueError(f"disc embedding needs a 2-dimensional direction, got {len(h.u)}")
    s = h.s
    if s >= 0:
        rho = 1.0 / (1.0 + math.exp(-s))
    else:
        e = math.exp(s)
        rho = e / (1.0 + e)
    ux, uy = h.u
    center = ((rho - 1.0) * ux, (rho - 1.0) * uy)
    return EuclideanCircle(center=center, radius=rho)
