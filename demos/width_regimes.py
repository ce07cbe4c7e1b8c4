"""
Effective width across growth regimes
=====================================

The convergence rate is controlled by an effective interaction width.
How it scales depends on how the radius grows relative to log d:
comparable to R at fixed dimension, exponentially small when R tracks
log d, and proportional to the gap R - log d when the gap grows.
"""

import math

from horospheres import analysis

print("fixed dimension, d = 3: width grows like R")
for row in analysis.width_ratio_table("a", [3] * 4, [5.0, 10.0, 20.0, 40.0]):
    print(f"  R = {row.R:<5g} width = {row.width:<9.4f} width/R = {row.ratio:.4f}")

print("\nR = log d - 1, bounded gap: width ~ e^(R/2)/sqrt(d)")
grid = [100, 1000, 10000]
for row in analysis.width_ratio_table("b1", grid, [math.log(d) - 1 for d in grid]):
    print(f"  d = {row.d:<6d} width = {row.width:<11.6f} ratio = {row.ratio:.4f}")

print("\nR = 2 log d, growing gap: width ~ R - log d")
grid = [10, 100, 1000]
for row in analysis.width_ratio_table("b2", grid, [2 * math.log(d) for d in grid]):
    print(f"  d = {row.d:<6d} width = {row.width:<9.4f} ratio = {row.ratio:.4f}")

# the regime label and rate envelope for a single point
report = analysis.rate_envelope(0.5 * math.log(10000), 10000)
print(f"\nd = 10000, R = (1/2) log d: regime {report.regime.value},")
print(f"envelope {report.rate_envelope:.4f} = d^(-1/4) = {10000 ** -0.25:.4f}")
