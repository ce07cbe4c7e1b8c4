"""Direct quadratures the package's moments and widths are checked against.

Each function takes a route of its own to a quantity the package computes
another way: the two-sided variance integral, the width through the sinh
change of variables, and the flat model's variance and fourth cumulant by
quadrature of the section area's powers.  ``LOG_INTEGRANDS`` holds the grid
core's log-integrands in their plain per-kind forms, one ufunc result after
another, which its in-place evaluation must match bit for bit.  They use only the per-hit area
primitives, the argument checks and the one-interval quadrature; nothing
here calls the route it is compared with, and
``tests/test_api.py::test_oracles_stay_independent`` keeps it so.  The
leading underscore keeps pytest from collecting this file.
"""

import math

import numpy as np

from horospheres.euclidean import log_section_area
from horospheres.geometry import (
    _LOG_MAX,
    _exp_or_inf,
    _log1mexp,
    check_dimension,
    check_radius,
    log_chord_area,
    log_sinh,
)
from horospheres.quadrature import QuadratureError, quad_log_integral

_LN2 = math.log(2.0)


def log_width_integrand(t, d, R):
    """(d-1) log(1 - x) at t = R - s, x = e^{2(L(R-t) - L(R)) - t}, L = log(1 - e^-y): log1p(-x)
    where x < 1/2, and nearer the edge the sinh-product form L(t) + L(2R-t) - 2L(R)."""
    log_edge = _log1mexp(R)
    x = np.exp(2.0 * (_log1mexp(R - t) - log_edge) - t)
    out = np.log1p(-np.minimum(x, 0.5))
    near, column = np.nonzero(x >= 0.5)
    t_near = t[near, column]
    out[near, column] = _log1mexp(t_near) + _log1mexp(2.0 * R[near, 0] - t_near) - 2.0 * log_edge[near, 0]
    return (d - 1.0) * out


# each kind's log-integrand at a (k, 15) node array, with d and R as (k, 1) columns
LOG_INTEGRANDS = {
    "i1": lambda s, d, R: 0.5 * (d - 1) * (_log1mexp(R + s) + _log1mexp(R - s) - s),
    "i4": lambda s, d, R: (d - 1) * (2.0 * (_log1mexp(R + s) + _log1mexp(R - s)) - s),
    "width": log_width_integrand,
    "mean": lambda t, d, R: (d - 1) * (_log1mexp(2.0 * (R - t)) - t),
}


def variance_direct(R, d) -> float:
    """log variance from the two-sided integral of the squared cap area
    against the intensity, independent of the one-sided route of
    ``analysis.moments(R, d).log_variance``."""
    d = check_dimension(d)
    R = check_radius(R, d)
    return quad_log_integral(
        lambda s: 2.0 * log_chord_area(s, R, d) - (d - 1.0) * s, -R, R, rel_tol=1e-10
    )


def width_scale(R, d) -> float:
    """Scale parameter sinh(R/2)/sqrt(d) of the substituted width integral, ``inf`` past
    double range.

    Past the range of sinh, it is exponentiated from its log; below it, the
    direct formula is kept, because exponentiating a log of size L loses
    about L ulps.
    """
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    if 0.5 * R < _LOG_MAX:
        return math.sinh(0.5 * R) / math.sqrt(d)
    return _exp_or_inf(log_sinh(0.5 * R) - 0.5 * math.log(d))


def width_substituted(R, d) -> float:
    """Effective width through the sinh change of variables:
    2 rho times the integral over (0, sqrt(d)) of
    (1 - x^2/d)^(d-1) / sqrt(1 + rho^2 x^2), with rho = sinh(R/2)/sqrt(d).

    Must agree with ``analysis.effective_width`` to quadrature accuracy.  A rho
    past double range raises :class:`QuadratureError`.
    """
    d = check_dimension(d)
    rho = width_scale(R, d)
    if not math.isfinite(rho):
        raise QuadratureError(
            f"width scale sinh(R/2)/sqrt(d) exceeds double range at R = {float(R)!r}",
            last=math.nan,
            previous=math.nan,
        )

    def log_f(x):
        x = np.asarray(x, dtype=float)
        return (d - 1.0) * np.log1p(-(x * x) / d) - np.log(np.hypot(1.0, rho * x))

    return 2.0 * rho * math.exp(quad_log_integral(log_f, 0.0, math.sqrt(d), rel_tol=1e-10))


def flat_variance_direct(R, d) -> float:
    """log variance of the flat model by direct quadrature of the squared
    section area, compared with ``euclidean.variance_closed``."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return _LN2 + quad_log_integral(
        lambda s: 2.0 * log_section_area(s, R, d), 0.0, R, rel_tol=1e-12
    )


def flat_fourth_cumulant_direct(R, d) -> float:
    """log fourth cumulant of the flat model by direct quadrature of the
    fourth power, compared with ``euclidean.fourth_cumulant_closed``."""
    d = check_dimension(d, minimum=1)
    R = check_radius(R)
    return _LN2 + quad_log_integral(
        lambda s: 4.0 * log_section_area(s, R, d), 0.0, R, rel_tol=1e-12
    )
