"""
The variance-1/2 Gaussian limit
===============================

Standardizing the total cap area by its exact mean and standard deviation
does NOT push it toward the standard Gaussian.  Half of the variance sits
in rare horospheres whose contribution vanishes in probability, so the
limit law is centered Gaussian with variance 1/2.  The Kolmogorov distance
to that target shrinks as R grows while the sample variance stays near 1.
"""

from horospheres import analysis, empirical
from horospheres.sampling import SimConfig, simulate_batch

d = 2
n = 20000
seed = 7

print("R    d_kol(target 1/2)   d_wass1   sample var   bound")
for R in (2.0, 4.0, 6.0, 8.0):
    m = analysis.moments(R, d)
    totals = simulate_batch(SimConfig(d=d, R=R, replications=n, seed=seed)).totals
    summary = empirical.summarize(totals, 0.5, center=m.mean, scale=m.sd)
    bound = analysis.wasserstein_bound_width(R, d)
    print(
        f"{R:<4g} {summary.d_kol:<19.4f} {summary.d_wass1:<9.4f} "
        f"{summary.variance:<12.4f} {bound:.4f}"
    )

print("\nthe distance would stall near 0.083 if the target were the")
print("standard Gaussian; against variance 1/2 it keeps falling")
