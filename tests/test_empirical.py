import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from horospheres.analysis import _clt_grid
from horospheres.empirical import (
    empirical_kolmogorov,
    empirical_wasserstein1,
    gaussian_cdf,
    gaussian_pdf,
    k_statistics,
    standardize,
    summarize,
)
from horospheres.geometry import _exp_or_inf
from horospheres.sampling import SimConfig, replication_stream, simulate_batch

_PHI_ONE = 0.841344746068543  # standard normal CDF at 1, 15 digits
_PHI_ROOT_TWO = 0.9213503964748575  # at sqrt 2, 16 digits


def test_gaussian_cdf_reference_points():
    assert gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gaussian_cdf(1.0) == pytest.approx(_PHI_ONE, abs=1e-13)
    assert gaussian_cdf(-1.0) == pytest.approx(1.0 - _PHI_ONE, abs=1e-13)


def test_gaussian_cdf_variance_scaling():
    # variance v rescales the argument by 1/sqrt(v)
    xs = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(gaussian_cdf(xs, 0.5), gaussian_cdf(xs * math.sqrt(2.0)), atol=1e-14)


def test_gaussian_cdf_deep_tail():
    # erfc-based evaluation keeps relative accuracy far out
    got = gaussian_cdf(-10.0)
    want = scipy.stats.norm.cdf(-10.0)
    assert got == pytest.approx(want, rel=1e-11)


def test_gaussian_pdf_normalization():
    xs = np.linspace(-12.0, 12.0, 100001)
    for var in (0.5, 1.0, 4.0):
        mass = np.trapezoid(gaussian_pdf(xs, var), xs)
        assert mass == pytest.approx(1.0, abs=1e-7)


def test_gaussian_invalid_variance():
    with pytest.raises(ValueError):
        gaussian_cdf(0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_pdf(0.0, -1.0)


def test_standardize_explicit():
    z = standardize([1.0, 3.0], center=1.0, scale=2.0)
    assert np.allclose(z, [0.0, 1.0])


def test_standardize_rejects_empty_sample_and_non_positive_scale():
    for scale in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="scale must be positive"):
            standardize([1.0, 2.0], center=0.0, scale=scale)
    with pytest.raises(ValueError, match="empty sample"):
        standardize([], center=0.0, scale=1.0)


def test_non_finite_samples_are_refused_by_name():
    # before, these returned 0.5, nan and all-nan fields, and an inf in summarize set off
    # numpy's invalid-value warning
    with pytest.raises(ValueError, match="sample 1 is not finite: inf"):
        empirical_kolmogorov([0.0, math.inf])
    with pytest.raises(ValueError, match="sample 2 is not finite: nan"):
        empirical_wasserstein1([0.0, 1.0, math.nan])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"sample 3 is not finite: {bad!r}"):
            summarize([1.0, 2.0, 3.0, bad, 5.0], 0.5, center=0.0, scale=1.0)
    # the k-statistics still take an inf, which simulate's summary prints as null
    with np.errstate(invalid="ignore"):
        assert all(math.isnan(k) for k in k_statistics([1.0, 2.0, 3.0, math.inf])[1:])


def test_samples_near_the_ends_of_double_range_give_values_not_warnings():
    # before, each of these set off a numpy overflow warning, and the k-statistics read nan
    eps, top = np.finfo(float).eps, 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert empirical_kolmogorov([-top, top]) == 0.5
        # |1/2 - G| integrated over [-top, top] is top less 2 g(0)
        assert empirical_wasserstein1([-top, top]) == pytest.approx(top, rel=4 * eps)
        # k2, k3 and k4 lie past double range, each positive
        k1, *rest = k_statistics([1.0, 2.0, 3.0, 1e300])
        assert k1 == pytest.approx(2.5e299, rel=4 * eps) and rest == [math.inf] * 3
        s = summarize([-top, 0.0, 1.0, top], 0.5, center=0.0, scale=1.0)
        assert abs(s.mean - 0.25) <= eps * top and s.variance == s.k4 == math.inf
        assert s.d_kol == pytest.approx(_PHI_ROOT_TWO - 0.5, abs=1e-15)
        # F_n lies 1/4 from G's 0 or 1 across each half of [-top, top]
        assert s.d_wass1 == pytest.approx(0.5 * top, rel=4 * eps)
        # at a subnormal variance the target is all but a point mass at 0: |F_n - G| is 1/2 on [0, 1]
        assert empirical_wasserstein1([0.0, 1.0], 1e-320) == pytest.approx(0.5, rel=4 * eps)
        # a standardized value past double range is refused by name
        with pytest.raises(ValueError, match=r"sample 0 standardizes to inf: \(1e\+308 - -1e\+308\) / 1.0"):
            summarize([top, 0.0, 1.0, 2.0], 0.5, center=-top, scale=1.0)


def test_kolmogorov_three_point_hand_value():
    # x = (-1, 0, 1) against the standard normal: the sup is 1/3 - Phi(-1)
    got = empirical_kolmogorov(np.array([-1.0, 0.0, 1.0]))
    want = 1.0 / 3.0 - (1.0 - _PHI_ONE)
    assert got == pytest.approx(want, abs=1e-13)


def test_kolmogorov_matches_scipy():
    rng = replication_stream(8, 1)
    x = np.sort(rng.standard_normal(500))
    got = empirical_kolmogorov(x)
    want = scipy.stats.kstest(x, "norm").statistic
    assert got == pytest.approx(want, abs=1e-12)


def test_kolmogorov_requires_sorted():
    with pytest.raises(ValueError):
        empirical_kolmogorov(np.array([1.0, 0.0]))


def test_wasserstein1_single_point():
    # for one sample at x: integral of G below x plus integral of 1-G above,
    # which is x(2G(x) - 1) + 2 var g(x) at variance var
    for x0 in (-1.3, 0.0, 0.7):
        got = empirical_wasserstein1(np.array([x0]))
        g = gaussian_cdf(x0)
        want = x0 * (2.0 * g - 1.0) + 2.0 * gaussian_pdf(x0)
        assert got == pytest.approx(want, abs=1e-13)


def test_wasserstein1_against_discretized_target():
    # oracle: exact W1 between the sample and a million-quantile
    # discretization of the Gaussian target
    rng = replication_stream(8, 2)
    x = np.sort(rng.standard_normal(100))
    got = empirical_wasserstein1(x)
    m = 1_000_000
    q = scipy.stats.norm.ppf((np.arange(m) + 0.5) / m)
    want = scipy.stats.wasserstein_distance(x, q)
    assert got == pytest.approx(want, abs=1e-4)


def test_wasserstein1_against_grid_integration():
    rng = replication_stream(8, 3)
    x = np.sort(rng.standard_normal(50))
    grid = np.union1d(np.linspace(-9.0, 9.0, 400001), x)
    fn = np.searchsorted(x, grid, side="right") / x.size
    integrand = np.abs(fn - gaussian_cdf(grid))
    want = np.trapezoid(integrand, grid)
    got = empirical_wasserstein1(x)
    assert got == pytest.approx(want, abs=5e-5)


@given(n=st.integers(1, 300), location=st.floats(-3.0, 3.0), variance=st.floats(0.04, 25.0), seed=st.integers(0, 2**32))
def test_wasserstein1_against_grid_integration_drawn(n, location, variance, seed):
    # a sample of N(location, variance) against N(0, variance), by the trapezoid rule on 200,001
    # points reaching 10 sd past the sample, with each jump of F_n bracketed by the next double
    # below it, so the rule errs only by its O(h^2) curvature and kink terms: at most 1.8e-8 sd
    # over 40 draws.  The tails beyond the grid add about e^-50 sd.  The margin is 1e-7 sd
    sd = math.sqrt(variance)
    x = np.sort(location + sd * replication_stream(seed, 0).standard_normal(n))
    reach = float(np.max(np.abs(x))) + 10.0 * sd
    grid = np.union1d(np.linspace(-reach, reach, 200001), np.concatenate((x, np.nextafter(x, -np.inf))))
    fn = np.searchsorted(x, grid, side="right") / n
    want = np.trapezoid(np.abs(fn - gaussian_cdf(grid, variance)), grid)
    assert empirical_wasserstein1(x, target_variance=variance) == pytest.approx(want, abs=1e-7 * sd)


def _wasserstein1_mpmath(x, variance):
    """W1 of the sorted float sample x against N(0, variance) at 40 digits, piece by piece through
    the antiderivative A(t) = t G(t) + variance g(t), with each crossing point from erfinv; S, the
    sum of the magnitudes of the terms the float computation adds, each A(t) counted as
    |t| G(t) + variance g(t); and the number of pieces G crosses."""
    with mp.workdps(40):
        v = mp.mpf(variance)
        root = mp.sqrt(2 * v)

        def terms(t):  # G(t), A(t) and the magnitude of A(t)
            G, g = mp.erfc(-t / root) / 2, v * mp.exp(-t * t / (2 * v)) / (root * mp.sqrt(mp.pi))
            return G, t * G + g, abs(t) * G + g

        n = len(x)
        pts = [mp.mpf(float(value)) for value in x]
        G, A, M = zip(*map(terms, pts))
        total = A[0] + (A[-1] - pts[-1])
        size, crossings = M[0] + M[-1] + abs(pts[-1]), 0
        for k in range(n - 1):
            c, a, b = mp.mpf(k + 1) / n, pts[k], pts[k + 1]
            if G[k] >= c:
                total += (A[k + 1] - A[k]) - c * (b - a)
            elif G[k + 1] <= c:
                total += c * (b - a) - (A[k + 1] - A[k])
            else:
                t = root * mp.erfinv(2 * c - 1)
                _, At, Mt = terms(t)
                total += (c * (t - a) - (At - A[k])) + ((A[k + 1] - At) - c * (b - t))
                size += 2 * Mt
                crossings += 1
            size += c * (b - a) + M[k] + M[k + 1]
        return float(total), float(size), crossings


def _clt_sweep_samples():
    """The three standardized, sorted samples of the benchmark's verify-clt command (d = 2,
    R = 2, 4, 8, n = 2,000, seed 20260821), as the command standardizes them."""
    radii = [2.0, 4.0, 8.0]
    for R, (log_mean, log_variance, _) in zip(radii, _clt_grid(radii, [2] * 3)):
        totals = simulate_batch(SimConfig(d=2, R=R, replications=2000, seed=20260821)).totals
        yield np.sort(standardize(totals, _exp_or_inf(log_mean), _exp_or_inf(0.5 * log_variance))), 0.5


def _drawn_normal_samples():
    """40 sorted samples of N(0, v) with v uniform in [0.1, 3] and from 2 to 400 points, each
    paired with its own v as the target."""
    for index in range(40):
        rng = replication_stream(20260821, index)
        variance, n = float(rng.uniform(0.1, 3.0)), int(rng.integers(2, 401))
        yield np.sort(math.sqrt(variance) * rng.standard_normal(n)), variance


def test_wasserstein1_against_mpmath_pieces():
    # each term is off by a few ulps of its magnitude (erfc, exp and the products), and numpy's
    # pairwise sum adds at most log2(n) ulps of the magnitudes it sums; the crossing point only
    # moves the result at second order.  So the margin is (8 + log2 n) eps S, stated before the
    # first run, with S the sum of the terms' magnitudes from the oracle
    eps, crossed = 2.0**-52, 0
    for x, variance in [*_clt_sweep_samples(), *_drawn_normal_samples()]:
        want, size, crossings = _wasserstein1_mpmath(x, variance)
        got = empirical_wasserstein1(x, target_variance=variance)
        assert abs(got - want) <= (8.0 + math.log2(x.size)) * eps * size
        crossed += crossings > 0
    assert crossed >= 40  # nearly every sample has a piece that G crosses


def test_wasserstein1_nonstandard_variance():
    # scaling the sample and the target variance together scales the distance
    rng = replication_stream(8, 4)
    x = np.sort(rng.standard_normal(200))
    base = empirical_wasserstein1(x, target_variance=1.0)
    scaled = empirical_wasserstein1(x * 2.0, target_variance=4.0)
    assert scaled == pytest.approx(2.0 * base, rel=1e-10)


def test_k_statistics_hand_values():
    k1, k2, k3, k4 = k_statistics([1.0, 2.0, 3.0, 4.0])
    assert k1 == pytest.approx(2.5, abs=1e-14)
    assert k2 == pytest.approx(5.0 / 3.0, rel=1e-13)
    assert k3 == pytest.approx(0.0, abs=1e-13)
    assert k4 == pytest.approx(-10.0 / 3.0, rel=1e-13)


def test_k_statistics_match_scipy():
    rng = replication_stream(8, 6)
    x = rng.standard_normal(400) ** 2
    k1, k2, k3, k4 = k_statistics(x)
    assert k1 == pytest.approx(scipy.stats.kstat(x, 1), rel=1e-10)
    assert k2 == pytest.approx(scipy.stats.kstat(x, 2), rel=1e-10)
    assert k3 == pytest.approx(scipy.stats.kstat(x, 3), rel=1e-8)
    assert k4 == pytest.approx(scipy.stats.kstat(x, 4), rel=1e-7, abs=1e-8)


# rounding allowance per unit of a power sum's size: numpy's pairwise sum bounds its own rounding
# by about (16 + log2(n / 128)) u, and the products and the k-statistic formulas add a few u more
_K_ROUNDING = 32 * 2.0**-53


def _k_statistic_errors(x: np.ndarray) -> tuple[float, float]:
    """The errors of k_statistics' k2 and k4 on the float sample x, each as a fraction of its margin.

    The exact values come from integer power sums: every x_i is X_i / D for one power of two D, so
    x_i - m = W_i / (n D) with W_i = n X_i - sum X.  The computed sums are taken about the float
    mean k1, a distance delta from m, and rounded, so the power sum of order p is off by at most
    sum (|w_i| + delta)^p - sum |w_i|^p, from the shift, plus _K_ROUNDING sum (|w_i| + delta)^p."""
    n = x.size
    k1, k2, _, k4 = k_statistics(x)
    ratios = [Fraction(float(v)).as_integer_ratio() for v in x]
    D = max(den for _, den in ratios)
    X = [num * (D // den) for num, den in ratios]
    total, scale = sum(X), n * D
    W = [n * v - total for v in X]
    shift = math.ceil(abs(Fraction(k1) * scale - total))  # n D delta, rounded up
    assert abs(Fraction(k1) - Fraction(total, scale)) <= _K_ROUNDING * Fraction(sum(map(abs, X)), scale)

    def power_sum(p):  # exact sum w^p and the bound on the computed one's error
        exact = Fraction(sum(w**p for w in W), scale**p)
        size = Fraction(sum((abs(w) + shift) ** p for w in W), scale**p)
        return exact, size - Fraction(sum(abs(w) ** p for w in W), scale**p) + Fraction(_K_ROUNDING) * size, size

    s2, e2, b2 = power_sum(2)
    s4, e4, _ = power_sum(4)
    want2 = s2 / (n - 1)
    den = Fraction((n - 1) * (n - 2) * (n - 3))
    want4 = (n * (n + 1) * s4 - 3 * (n - 1) * s2 * s2) / den
    margin2 = e2 / (n - 1)
    margin4 = (n * (n + 1) * e4 + 3 * (n - 1) * e2 * (2 * b2 + e2)) / den
    return (float(abs(Fraction(k2) - want2) / margin2) if margin2 else 0.0,
            float(abs(Fraction(k4) - want4) / margin4) if margin4 else 0.0)


_FINITE = st.floats(-1e50, 1e50, allow_nan=False, allow_infinity=False)


@given(x=st.lists(_FINITE, min_size=4, max_size=200))
def test_k_statistics_against_exact_power_sums(x):
    # any finite sample, values spread over 100 decades and repeated ones included
    assert max(_k_statistic_errors(np.array(x))) <= 1.0


@given(n=st.integers(4, 2000), location=st.floats(-1e9, 1e9), spread=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32))
def test_k_statistics_exact_with_the_mean_far_above_the_spread(n, location, spread, seed):
    x = location + spread * replication_stream(seed, 0).standard_normal(n)
    assert max(_k_statistic_errors(x)) <= 1.0


@given(n=st.integers(4, 2000), df=st.sampled_from([1.0, 2.0, 3.0]), seed=st.integers(0, 2**32))
def test_k_statistics_exact_on_heavy_tails(n, df, seed):
    # Student t samples: Cauchy at df = 1, and no finite fourth moment at any of these
    x = replication_stream(seed, 1).standard_t(df, n)
    assert max(_k_statistic_errors(x)) <= 1.0


def test_k_statistics_exact_on_a_flat_sparse_sample():
    # the 5,000 totals of the flat_sparse benchmark command, as `simulate` summarizes them
    from horospheres.euclidean import FLAT
    from horospheres.sampling import SimConfig, simulate_batch

    totals = simulate_batch(SimConfig(d=3, R=2.0, replications=5000, seed=20260821), FLAT).totals
    assert max(_k_statistic_errors(totals)) <= 1.0


def test_k_statistics_needs_four_points():
    with pytest.raises(ValueError):
        k_statistics([1.0, 2.0, 3.0])


def test_summarize_gaussian_sample():
    rng = replication_stream(8, 7)
    x = 3.0 + 2.0 * rng.standard_normal(50_000)
    s = summarize(x, 1.0, center=float(np.mean(x)), scale=float(np.std(x, ddof=1)))
    assert s.n == 50_000
    # standardizing by the sample's own mean and standard deviation forces these exactly
    assert s.mean == pytest.approx(0.0, abs=1e-12)
    assert s.variance == pytest.approx(1.0, rel=1e-10)
    # a Gaussian sample of this size sits close to its own limit
    assert s.d_kol < 1.95 / math.sqrt(s.n)
    assert s.d_wass1 < 0.02
    assert abs(s.k4) < 0.1


def test_summarize_analytic_standardization():
    rng = replication_stream(8, 9)
    x = 3.0 + 2.0 * rng.standard_normal(20_000)
    s = summarize(x, 1.0, center=3.0, scale=2.0)
    assert abs(s.mean) < 4.0 / math.sqrt(20_000)
    assert s.target_variance == 1.0
