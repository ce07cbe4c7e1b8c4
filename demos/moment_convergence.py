"""
Sample moments against the exact ones
=====================================

The total cap area has computable mean and variance at every (R, d).
Simulate a few thousand replications and watch the sample moments land
on the quadrature values.
"""

from horospheres import analysis
from horospheres.sampling import SimConfig, simulate_batch

d = 3
n = 4000

print(f"d = {d}, {n} replications per radius")
print("R    mean(exact)   mean(sample)   var(exact)    var(sample)")
for R in (1.0, 2.0, 3.0):
    m = analysis.moments(R, d)
    totals = simulate_batch(SimConfig(d=d, R=R, replications=n, seed=42)).totals
    print(
        f"{R:<4g} {m.mean:<13.4f} {totals.mean():<14.4f} "
        f"{m.variance:<13.4f} {totals.var(ddof=1):.4f}"
    )

# the mean splits into the part from horospheres enclosing the origin and
# the part from the others; both are available separately
m = analysis.moments(2.0, d)
import math
plus = math.exp(m.log_mean_positive_part)
print(f"\nat R = 2: positive-part mean {plus:.4f} of total {m.mean:.4f}")
