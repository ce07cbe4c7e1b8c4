"""
The flat comparison model
=========================

Replacing horospheres by hyperplanes gives a model where everything is
closed form: gamma-ratio variance and fourth cumulant, a Wasserstein
bound proportional to d^(1/4)/sqrt(R), and an ordinary standard-Gaussian
limit.  No variance splits off, so the target is N(0, 1) here.
"""

import math

from horospheres import empirical, euclidean
from horospheres.sampling import SimConfig, simulate_batch

# the d=2, R=1 moments come out as simple fractions
print("d=2, R=1 variance:", math.exp(euclidean.variance_closed(1.0, 2)), "= 16/3")
print("d=2, R=1 cum4:    ", math.exp(euclidean.fourth_cumulant_closed(1.0, 2)), "= 256/15")

# the normalized bound constant settles at 2/(2 pi)^(1/4) as d grows
target = 2.0 / (2.0 * math.pi) ** 0.25
print("\nd        bound * sqrt(R)/d^(1/4)")
for d in (10, 100, 1000, 10000):
    print(f"{d:<8d} {euclidean.normalized_rate_constant(d):.6f}")
print(f"limit    {target:.6f}")

# a quick empirical check of the standard-Gaussian limit
R, d, n = 50.0, 2, 20000
totals = simulate_batch(SimConfig(d=d, R=R, replications=n, seed=11), euclidean.FLAT).totals
center = math.exp(euclidean.log_mean(R, d))
scale = math.exp(0.5 * euclidean.variance_closed(R, d))
summary = empirical.summarize(totals, 1.0, center=center, scale=scale)
print(f"\nd = {d}, R = {R:g}, n = {n}: d_kol to N(0,1) = {summary.d_kol:.4f}")
print(f"bound at this (R, d): {euclidean.wasserstein_bound(R, d).value:.4f}")
