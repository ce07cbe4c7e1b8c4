"""Adaptive Gauss-Legendre quadrature carried out entirely in the log domain.

The engine integrates exp(g) for a user-supplied log-integrand g without ever
leaving log space, so integrands spanning thousands of orders of magnitude are
handled in ordinary double precision.  Panels are refined breadth-first; a
panel is accepted when bisecting it moves the log of its value by no more than
the requested tolerance, or when its estimated absolute error is negligible
against the running whole-interval estimate.

There is one engine, :func:`quad_log_integrals`, and it runs many independent
adaptive trees in lockstep, one tree per interval.  Each refinement level
evaluates the pending panels of all trees in one ``log_f(x, tree)`` call on a
(k, 15) node array, in blocks of _PANEL_BLOCK panels only past that cap, and
reduces the panels row by row in numpy.  Each tree keeps its own panel set,
acceptance tests, depth cap and panel budget, so its result is the same, bit
for bit, whichever trees share its batch.  It returns ``(logs, failures)``: a
failed tree reads NaN and its error is kept apart, so the caller decides which
failure to raise.  :func:`quad_log_integral` is the engine run on one tree,
raising that tree's failure.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["LOG_ZERO", "QuadratureError", "quad_log_integral", "quad_log_integrals"]

LOG_ZERO = float("-inf")

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_LOG_WEIGHTS = np.log(_WEIGHTS)

_DEPTH_CAP = 40
_PANEL_BUDGET = 50_000
# Safety margin for the negligible-panel shortcut: a panel may be accepted
# unconverged only if its error estimate is below tol * total / _BUDGET_SHARE,
# which keeps the sum of such errors under tol * total for any realistic
# number of shortcut panels.
_BUDGET_SHARE = 256.0
_PANEL_BLOCK = 2048

_NON_FINITE = "log-integrand produced a non-finite value"

# math.log applied elementwise.  numpy's vectorized log differs from the C
# library's in the last bit for a few inputs in 10^5; taking every log of a
# sum, width or difference from the C library keeps results equal to those of
# a scalar evaluation with math.log.
_C_LOG = np.frompyfunc(math.log, 1, 1)


class QuadratureError(RuntimeError):
    """Refinement could not reach the requested tolerance.

    ``last`` and ``previous`` carry the two most recent whole-interval
    estimates (log scale) so callers can judge how far refinement got.
    """

    def __init__(self, message: str, last: float, previous: float):
        super().__init__(message)
        self.last = last
        self.previous = previous


def _log(x) -> np.ndarray:
    return _C_LOG(x).astype(float)


def _segment_logsumexp(values, starts) -> np.ndarray:
    """log-sum-exp of each segment ``values[starts[i]:starts[i + 1]]``.

    Each segment is summed as ``np.sum`` sums a 1-D array of its own, so its
    result does not depend on its neighbours.  No value may be NaN or +inf.
    """
    peak = np.maximum.reduceat(values, starts)
    empty = peak == LOG_ZERO
    shift = np.repeat(np.where(empty, 0.0, peak), np.diff(starts, append=values.size))
    terms = np.exp(values - shift)
    # np.sum adds the elements to a zero start, reduceat to the first element;
    # a leading zero in every segment makes both associate the same way
    sums = np.add.reduceat(np.insert(terms, starts, 0.0), starts + np.arange(starts.size))
    out = np.full(peak.shape, LOG_ZERO)
    out[~empty] = peak[~empty] + _log(sums[~empty])
    return out


def _panels(log_f, lo, hi, tree):
    """Log of the 15-point Gauss-Legendre estimate on each panel [lo, hi],
    and a flag for the panels whose log-integrand was NaN or +inf.

    One ``log_f`` call takes a level of up to _PANEL_BLOCK panels; a larger
    level is cut into blocks of that size, which bounds the memory of the
    temporaries.  The cut changes no bit: a panel's values come from its row.
    """
    out = np.empty(lo.size)
    bad = np.empty(lo.size, dtype=bool)
    for start in range(0, lo.size, _PANEL_BLOCK):
        block = slice(start, start + _PANEL_BLOCK)
        out[block], bad[block] = _panel_block(log_f, lo[block], hi[block], tree[block])
    return out, bad


def _panel_block(log_f, lo, hi, tree):
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    vals = np.asarray(log_f(x, tree), dtype=float)
    if vals.shape != x.shape:
        raise ValueError("log-integrand must map a node array to an equal-shaped array")
    # the terms take over the spent node array, freed once the live rows are copied
    terms = np.add(vals, _LOG_WEIGHTS, out=x)
    del vals, x
    peak = terms.max(axis=1)
    bad = np.isnan(peak) | (peak == math.inf)
    out = np.where(bad, math.nan, LOG_ZERO)
    # a row sum along the last axis adds as np.sum of that row alone does
    live = np.flatnonzero(peak > LOG_ZERO)
    terms = terms[live]
    terms -= peak[live, None]
    sums = np.exp(terms, out=terms).sum(axis=1)
    out[live] = peak[live] + _log(sums) + _log(half[live])
    return out, bad


def quad_log_integrals(log_f, a, b, rel_tol: float = 1e-10) -> tuple[np.ndarray, dict]:
    """Run one adaptive tree on each interval [a[j], b[j]], all in lockstep, and
    return ``(logs, failures)``: the log of the integral of exp(log_f) over each
    interval, NaN where a tree failed, and the failures as ``{tree: exception}``.

    ``log_f(x, tree)`` gets a (k, 15) array of interior nodes and the (k,)
    index of the interval each row belongs to, rows grouped by interval in
    ascending order, and returns the log-integrand at every node, with
    ``-inf`` marking zeros.  Endpoints are never evaluated, so integrands
    vanishing at the interval ends need no special casing.  A tree fails with
    the first error it meets: :class:`QuadratureError` when the panel depth
    cap or the panel budget is exhausted before the tolerance is met,
    :class:`ValueError` for a reversed interval, an interval whose b - a or
    a + b is not a finite double (an infinite end among them), or a NaN or
    +inf log-integrand.  The other trees run on unchanged.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("interval ends must be two 1-D arrays of equal length")
    n = a.size
    # the engine halves b - a and a + b, so an interval where either leaves double range fails
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(b - a) & np.isfinite(a + b)
    result = np.full(n, math.nan)
    result[(a == b) & finite] = LOG_ZERO
    failures = {}
    dead = np.zeros(n, dtype=bool)

    def fail(trees, error):
        for t in trees.tolist():
            if t not in failures:
                failures[t] = error(t)
        dead[trees] = True

    fail(np.flatnonzero((a != b) & ~(a < b)),
         lambda t: ValueError(f"reversed integration interval [{float(a[t])!r}, {float(b[t])!r}]"))
    fail(np.flatnonzero(~finite), lambda t: ValueError(
        f"integration interval [{float(a[t])!r}, {float(b[t])!r}] has b - a or a + b past double range"))
    tree = np.flatnonzero((a < b) & finite)
    if not rel_tol > 0:
        fail(tree, lambda t: ValueError(f"rel_tol must be positive, got {rel_tol!r}"))
        return result, failures
    tol = max(float(rel_tol), 1e-14)
    log_tol = math.log(tol)

    # Pending panels, grouped by tree and in interval order within a tree,
    # carry their own coarse estimate; refinement replaces a panel by its two
    # halves, whose coarse estimates were just computed.
    lo, hi = a[tree], b[tree]
    whole, bad = _panels(log_f, lo, hi, tree)
    fail(tree[bad], lambda t: ValueError(_NON_FINITE))
    depth = np.zeros(tree.size, dtype=int)
    spent = np.ones(n, dtype=int)
    total = np.full(n, LOG_ZERO)
    prev_total = np.full(n, LOG_ZERO)
    accepted_tree = np.empty(0, dtype=int)
    accepted = np.empty(0)

    while True:
        keep = ~dead[tree]
        lo, hi, depth, whole, tree = lo[keep], hi[keep], depth[keep], whole[keep], tree[keep]
        if not tree.size:
            return result, failures
        mid = 0.5 * (lo + hi)
        halves, bad = _panels(
            log_f, np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel(), np.repeat(tree, 2)
        )
        left, right = halves[0::2], halves[1::2]
        spent += 2 * np.bincount(tree, minlength=n)
        fail(tree[bad[0::2] | bad[1::2]], lambda t: ValueError(_NON_FINITE))
        keep = ~dead[tree]
        lo, mid, hi, depth, whole, left, right, tree = (
            v[keep] for v in (lo, mid, hi, depth, whole, left, right, tree)
        )
        refined = np.logaddexp(left, right)

        # running estimate of each tree: its accepted panels, then this level's
        held = ~dead[accepted_tree]
        keys = np.concatenate((accepted_tree[held], tree))
        values = np.concatenate((accepted[held], refined))
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        present = keys[starts]
        prev_total[present] = total[present]
        total[present] = _segment_logsumexp(values, starts)
        fail(present[spent[present] > _PANEL_BUDGET], lambda t: QuadratureError(
            f"panel budget ({_PANEL_BUDGET}) exhausted before convergence",
            last=float(total[t]), previous=float(prev_total[t]),
        ))

        # a panel is accepted when bisection leaves it unchanged, moves its log
        # by at most tol, or its error is negligible against the estimate
        accept = whole == refined
        rest = np.flatnonzero(~accept)
        diff = np.abs(whole[rest] - refined[rest])
        accept[rest[diff <= tol]] = True
        rest, diff = rest[diff > tol], diff[diff > tol]
        w, r = whole[rest], refined[rest]
        # log of each panel's estimated absolute error
        error = np.where(np.isfinite(diff), np.maximum(w, r) + _log(diff), np.logaddexp(w, r))
        accept[rest] = error <= total[tree[rest]] + log_tol - math.log(_BUDGET_SHARE)
        split = ~accept
        fail(tree[split & (depth >= _DEPTH_CAP)], lambda t: QuadratureError(
            f"panel depth cap ({_DEPTH_CAP}) reached without convergence",
            last=float(total[t]), previous=float(prev_total[t]),
        ))

        # a tree with nothing left to split accepted its whole level, so its
        # integral is the running estimate just taken
        is_open = np.zeros(n, dtype=bool)
        is_open[tree[split]] = True
        done = present[~is_open[present] & ~dead[present]]
        result[done] = total[done]
        kept = np.concatenate((np.ones(np.count_nonzero(held), dtype=bool), accept))[order] & is_open[keys]
        accepted_tree, accepted = keys[kept], values[kept]
        lo = np.column_stack((lo[split], mid[split])).ravel()
        hi = np.column_stack((mid[split], hi[split])).ravel()
        whole = np.column_stack((left[split], right[split])).ravel()
        depth = np.repeat(depth[split] + 1, 2)
        tree = np.repeat(tree[split], 2)


def quad_log_integral(log_f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Return log of the integral of exp(log_f) over [a, b].

    ``log_f`` must accept a numpy array of interior nodes and return the
    log-integrand elementwise, with ``-inf`` marking zeros.  This is
    :func:`quad_log_integrals` on one interval; its tree's failure is raised.
    """
    [value], failures = quad_log_integrals(lambda x, tree: log_f(x), [a], [b], rel_tol)
    if failures:
        raise failures[0]
    return float(value)
