"""Empirical distribution distances and cumulant diagnostics.

The Kolmogorov statistic is the exact sup distance between the sample step
function and a centered Gaussian target; the Wasserstein-1 statistic is the
exact integral of |F_n - G|, with each step of F_n split where G crosses it,
at the Gaussian quantile of its level, and the tails integrated in closed
form.  Cumulants use the unbiased k-statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import erfc

__all__ = [
    "EmpiricalSummary",
    "gaussian_cdf",
    "gaussian_pdf",
    "standardize",
    "empirical_kolmogorov",
    "empirical_wasserstein1",
    "k_statistics",
    "summarize",
]


def _check_variance(variance) -> None:
    # past 1e300 an x whose square overflows could still have a density above 0
    if not 0 < variance <= 1e300:
        raise ValueError(f"variance must be positive and at most 1e300, got {variance!r}")


def gaussian_cdf(x, variance: float = 1.0):
    """Distribution function of a centered Gaussian with the given variance.

    Vectorized; evaluated through the complementary error function so both
    tails keep full absolute accuracy.
    """
    _check_variance(variance)
    # x / sqrt(2 variance) past double range is +-inf, where erfc is exactly 0 or 2
    with np.errstate(over="ignore"):
        t = np.asarray(x, dtype=float) / math.sqrt(2.0 * variance)
    return 0.5 * erfc(-t)


def gaussian_pdf(x, variance: float = 1.0):
    """Density of a centered Gaussian with the given variance."""
    _check_variance(variance)
    arr = np.asarray(x, dtype=float)
    # an exponent past double range is -inf, and its density an exact 0, as it rounds to: at a
    # variance up to 1e300 an x whose square overflows is more than 10^4 standard deviations out
    with np.errstate(over="ignore"):
        return np.exp(-arr * arr / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)


def standardize(samples, center, scale) -> np.ndarray:
    """Shift and scale a sample by the analytic ``center`` and ``scale`` of the
    limit statements."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot standardize an empty sample")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    with np.errstate(over="ignore"):
        z = (_check_finite(x) - float(center)) / float(scale)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ValueError(f"sample {bad[0]} standardizes to {float(z[bad[0]])!r}: "
                         f"({float(x[bad[0]])!r} - {center!r}) / {scale!r}")
    return z


def _check_finite(x: np.ndarray) -> np.ndarray:
    """x itself, or a ValueError naming its first inf or nan, which would make a distance nan."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"sample {bad[0]} is not finite: {float(x[bad[0]])!r}")
    return x


def _check_sorted(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if np.any(_check_finite(x)[1:] < x[:-1]):
        raise ValueError("samples must be sorted ascending")
    return x


def empirical_kolmogorov(sorted_samples, target_variance: float = 1.0) -> float:
    """Exact sup distance between the empirical step function and the
    centered Gaussian target."""
    x = _check_sorted(sorted_samples)
    n = x.size
    g = gaussian_cdf(x, target_variance)
    i = np.arange(1, n + 1, dtype=float)
    return float(np.max(np.maximum(i / n - g, g - (i - 1.0) / n)))


def empirical_wasserstein1(sorted_samples, target_variance: float = 1.0) -> float:
    """Exact integral of |F_n - G| against Lebesgue measure.

    Between consecutive order statistics a and b the empirical function is the
    constant c, so each piece integrates in closed form through the
    antiderivative A(t) = t G(t) + variance g(t), split at the point t where G
    crosses c: t = a where G(a) >= c, t = b where G(b) <= c, and otherwise the
    Gaussian quantile of c.  The two tails integrate G and 1 - G exactly.
    """
    x = _check_sorted(sorted_samples)
    n = x.size
    var = float(target_variance)
    G = gaussian_cdf(x, var)
    A = x * G + var * gaussian_pdf(x, var)
    total = float(A[0])            # lower tail, integral of G up to the minimum
    total += float(A[-1] - x[-1])  # upper tail, integral of 1 - G beyond the maximum
    if n == 1:
        return total
    c = np.arange(1, n, dtype=float) / n
    a, b = x[:-1], x[1:]
    Aa, Ab = A[:-1], A[1:]
    above = G[:-1] >= c  # G stays above the step level on the piece, and wins a tie
    t, At = np.where(above, a, b), np.where(above, Aa, Ab)
    cross = np.flatnonzero(~above & (G[1:] > c))
    if cross.size:
        # imported here, not with the module: the import costs about 3 ms, which every command's
        # start-up would pay, and only verify-clt reaches this point
        from statistics import NormalDist

        quantile = NormalDist(0.0, math.sqrt(var)).inv_cdf
        tc = np.clip([quantile(p) for p in c[cross].tolist()], a[cross], b[cross])
        t[cross] = tc
        At[cross] = tc * gaussian_cdf(tc, var) + var * gaussian_pdf(tc, var)
    # (c - G) integrated over [a, t] and (G - c) over [t, b]; one of the two is an exact 0 on a
    # piece where G does not cross c
    seg = (c * (t - a) - (At - Aa)) + ((Ab - At) - c * (b - t))
    return total + float(np.sum(seg))


def k_statistics(samples) -> tuple[float, float, float, float]:
    """Unbiased cumulant estimators (k1, k2, k3, k4) from power sums.

    A sample whose largest finite magnitude passes 2^200 is scaled by a power of two 2^-e first, so
    that its fourth powers stay in range, and each k_j scaled back by 2^(j e): an estimator past
    double range is then an inf of its sign.  Both scalings are exact for every value above 2^-1022
    times the largest."""
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise ValueError("k-statistics need at least four observations")
    top = float(np.max(np.abs(x), initial=0.0, where=np.isfinite(x)))
    if top > 2.0**200:
        e = math.frexp(top)[1]
        ks = k_statistics(np.ldexp(x, -e))
        return tuple(_ldexp_or_inf(k, j * e) for j, k in enumerate(ks, 1))
    k1 = float(np.mean(x))
    z = x - k1
    # products, not z**3 and z**4, which numpy sends through libm's pow at about 80 ns an element
    z2 = z * z
    s2 = float(np.sum(z2))
    s3 = float(np.sum(z2 * z))
    s4 = float(np.sum(z2 * z2))
    k2 = s2 / (n - 1)
    k3 = n * s3 / ((n - 1) * (n - 2))
    k4 = (n * (n + 1.0) * s4 - 3.0 * (n - 1) * s2 * s2) / ((n - 1.0) * (n - 2) * (n - 3))
    return k1, k2, k3, k4


def _ldexp_or_inf(x: float, e: int) -> float:
    """x 2^e, an inf of x's sign past double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True)
class EmpiricalSummary:
    """Distances to the Gaussian target plus moment diagnostics of one
    standardized sample."""

    n: int
    mean: float
    variance: float
    k4: float
    d_kol: float
    d_wass1: float
    target_variance: float


def summarize(samples, target_variance: float, center, scale) -> EmpiricalSummary:
    """Standardize and sort a sample, then take both distances and the k-statistics.

    The reported moment fields describe the standardized sample.
    """
    z = np.sort(standardize(samples, center=center, scale=scale))
    k1, k2, _, k4 = k_statistics(z)
    return EmpiricalSummary(
        n=int(z.size),
        mean=k1,
        variance=k2,
        k4=k4,
        d_kol=empirical_kolmogorov(z, target_variance),
        d_wass1=empirical_wasserstein1(z, target_variance),
        target_variance=float(target_variance),
    )
