"""Exact finite sums for the variance integral i2, the effective width, the
mean integral and the cut-layer integrals i1 and i4.

With C = cosh R and an integer power n = d - 1,

    i2 = integral over (0, R) of (C - cosh s)^n ds
       = sum over k of binom(n, k) C^(n-k) (-1)^k J_k,

where J_k is the integral of cosh^k over (0, R): J_0 = R, J_1 = sinh R and
J_k = cosh^(k-1) R sinh R / k + (k-1)/k J_(k-2).  The width is
i2 / (C - 1)^n.  The terms reach about (2C)^n while the sum is
(C - 1)^n times the width, so the sum cancels about
n log10(2C/(C - 1)) digits; the working precision adds ``extra`` digits on
top, and a caller checks that two values of ``extra`` agree.

The mean integral S_n, the integral of sinh^n over (0, R), follows
S_0 = R, S_1 = cosh R - 1 and S_j = sinh^(j-1) R cosh R / j - (j-1)/j S_(j-2).
Each step subtracts about a factor coth^2 R, so it cancels about
n log10(coth R) digits in all.

The cut-layer integrals i1 (the integral of ((C - cosh s) e^-s)^((d-1)/2))
and i4 (of (C - cosh s)^(2(d-1)) e^(-(d-1)s)) are Laurent polynomials in
x = e^-s.  With a = e^-R, C - cosh s = (x - a)(1/a - x)/(2x), so a power n and
a weight e^(-ms) give

    2^(-n) times the integral over (a, 1) of x^(m-n-1) (x - a)^n (1/a - x)^n dx,

whose x^-1 term integrates to R.  n is an integer for i4 at every d and for
i1 at odd d.  The digit count is set as for i2, from the power n.

Nothing here imports the package under test, so these values are an
independent oracle.  The leading underscore keeps pytest from collecting
this file.
"""

import mpmath as mp


def _digits(R, n: int, extra: int) -> int:
    with mp.workdps(30):
        c = mp.cosh(mp.mpf(R))
        return int(n * mp.log10(2 * c / (c - 1))) + extra


def log_i2_and_width(R, d: int, extra: int = 40):
    """(log i2, width) at the double R and integer d >= 2, as mpf values at
    about ``extra`` correct digits."""
    n = d - 1
    with mp.workdps(_digits(R, n, extra)):
        R = mp.mpf(R)
        c, s = mp.cosh(R), mp.sinh(R)
        # J_k for k = 0..n by the two-step recurrence
        J = [R, s]
        c_pow = mp.mpf(1)  # cosh^(k-1) R
        for k in range(2, n + 1):
            c_pow *= c
            J.append(c_pow * s / k + mp.mpf(k - 1) / k * J[k - 2])
        total, binom, c_rest = mp.mpf(0), 1, c**n  # binom(n, k), C^(n-k)
        for k in range(n + 1):
            term = binom * c_rest * J[k]
            total += -term if k % 2 else term
            binom = binom * (n - k) // (k + 1)
            c_rest /= c
        return +mp.log(total), +(total / (c - 1) ** n)


def log_mean_integral(R, d: int, extra: int = 40):
    """log of the integral of sinh^(d-1) over (0, R) at the double R and integer d >= 2, as an
    mpf value at about ``extra`` correct digits."""
    n = d - 1
    with mp.workdps(30):
        digits = int(n * mp.log10(1 / mp.tanh(mp.mpf(R)))) + extra
    with mp.workdps(digits):
        R = mp.mpf(R)
        s, c = mp.sinh(R), mp.cosh(R)
        before, last = R, 2 * mp.sinh(R / 2) ** 2  # S_0, and S_1 = cosh R - 1 without cancelling
        s_pow = mp.mpf(1)  # sinh^(j-1) R
        for j in range(2, n + 1):
            s_pow *= s
            before, last = last, s_pow * c / j - mp.mpf(j - 1) / j * before
        return +mp.log(last if n else before)


def log_layer_integral(R, d: int, kind: str, extra: int = 40):
    """log i1 (odd d >= 3) or log i4 (d >= 2) over all of (0, R) at the double R, as an mpf
    value at about ``extra`` correct digits."""
    n, m = ((d - 1) // 2, (d - 1) // 2) if kind == "i1" else (2 * (d - 1), d - 1)
    if kind == "i1" and d % 2 == 0:
        raise ValueError("i1 is a Laurent polynomial at odd d only")
    with mp.workdps(_digits(R, n, extra)):
        R = mp.mpf(R)
        a, b = mp.exp(-R), mp.exp(R)
        # (x - a)^n and (b - x)^n, coefficients by ascending power of x
        left = [mp.binomial(n, i) * (-a) ** (n - i) for i in range(n + 1)]
        right = [mp.binomial(n, j) * b ** (n - j) * (-1) ** j for j in range(n + 1)]
        total = mp.mpf(0)
        for k in range(2 * n + 1):
            coefficient = mp.fsum(left[i] * right[k - i] for i in range(max(0, k - n), min(k, n) + 1))
            power = k + m - n  # the term is coefficient x^(power - 1)
            total += coefficient * (R if power == 0 else (1 - a**power) / power)
        return +mp.log(total / mp.mpf(2) ** n)
