"""The complementary error function, elementwise.

``erfc`` applies ``math.erfc`` elementwise because the empirical-distance
routines call it on full Monte Carlo samples.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfc"]

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def erfc(x):
    """Complementary error function, elementwise; accurate in both tails.
    A float for a scalar, else a float array of the input's shape."""
    arr = np.asarray(x, dtype=float)
    out = _ERFC(arr)
    return float(out) if arr.ndim == 0 else out.astype(float)
