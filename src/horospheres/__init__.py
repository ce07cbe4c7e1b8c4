"""Poisson horosphere processes in hyperbolic space.

Sampling of the truncated process, exact moment and bound computations in
log arithmetic, a flat-space companion model, empirical distribution
distances, and a deterministic CLI wrapping all of it.  Every name is
reached through its module, as in ``from horospheres import analysis``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
