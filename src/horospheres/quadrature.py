"""Adaptive Gauss-Legendre quadrature of exp(g) for a log-integrand g, returned as a log.

Integrands spanning thousands of orders of magnitude are handled in ordinary
double precision: each tree adds up exp(g - shift) in plain linear sums, its
shift the largest value of g its nodes have met, and rescales its sums once
whenever a later level meets a larger one.  A node more than about 745 below
that maximum underflows to 0, less than e^-745 of the integral.  The result is
shift + log(total), one scalar log per tree.  Panels are refined breadth-first;
a panel is accepted when bisecting it moves its value by no more than the
relative tolerance, taken no finer than |shift| eps, where the log result
rounds, or when its estimated error is negligible against the running
whole-interval estimate.

There is one engine, :func:`quad_log_integrals`, and it runs many independent
adaptive trees in lockstep, one tree per interval.  Each refinement level
evaluates the pending panels of all trees in one ``log_f(x, tree)`` call on a
(k, 15) node array, in blocks of _PANEL_BLOCK panels only past that cap, and
reduces the panels row by row in numpy.  Each tree keeps its own shift, panel
set, acceptance tests, depth cap and panel budget, so its result is the same,
bit for bit, whichever trees share its batch.  It returns ``(logs, failures)``:
a failed tree reads NaN and its error is kept apart, so the caller decides
which failure to raise.  :func:`quad_log_integral` is the engine run on one
tree, raising that tree's failure.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["LOG_ZERO", "QuadratureError", "quad_log_integral", "quad_log_integrals"]

LOG_ZERO = float("-inf")

# The 15-point Gauss-Legendre rule, each literal the repr of numpy.polynomial.legendre.leggauss(15)'s
# value: the same bits on every machine, and no import of numpy.polynomial (about 2.3 ms) per process.
_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701, -0.5709721726085388,
    -0.3941513470775634, -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444, 0.16626920581699398,
    0.1861610000155622, 0.1984314853271116, 0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
    0.16626920581699398, 0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])

_DEPTH_CAP = 40
_PANEL_BUDGET = 50_000
# Safety margin for the negligible-panel shortcut: a panel may be accepted
# unconverged only if its error estimate is below tol * total / _BUDGET_SHARE,
# which keeps the sum of such errors under tol * total for any realistic
# number of shortcut panels.
_BUDGET_SHARE = 256.0
_PANEL_BLOCK = 2048
_EPS = float(np.finfo(float).eps)

_NON_FINITE = "log-integrand produced a non-finite value"
_NARROW = "panel too narrow for its nodes: one rounds onto the panel's end"


class QuadratureError(RuntimeError):
    """Refinement could not reach the requested tolerance.

    ``last`` and ``previous`` carry the two most recent whole-interval
    estimates (log scale) so callers can judge how far refinement got.
    """

    def __init__(self, message: str, last: float, previous: float):
        super().__init__(message)
        self.last = last
        self.previous = previous


def _log_sum(shift: float, total: float) -> float:
    """log(e^shift total) for a tree's linear sum ``total`` taken relative to its shift."""
    return float(shift) + math.log(total) if total > 0 else LOG_ZERO


def _starts(tree):
    """The index of the first row of each tree in ``tree``, its trees grouped."""
    head = np.empty(tree.size, dtype=bool)
    head[:1] = True
    np.not_equal(tree[1:], tree[:-1], out=head[1:])
    return np.flatnonzero(head)


def _tree_sums(values, tree):
    """The trees in ``tree``, grouped in ascending order, and the sum of each one's
    ``values``, added as ``np.sum`` adds a 1-D array of them alone."""
    starts = _starts(tree)
    # np.sum adds the elements to a zero start, reduceat to the first element;
    # a leading zero in every segment makes both associate the same way
    zeros = starts + np.arange(starts.size)
    slot = np.ones(values.size + starts.size, dtype=bool)
    slot[zeros] = False
    padded = np.zeros(slot.size)
    padded[slot] = values
    return tree[starts], np.add.reduceat(padded, zeros)


def _panels(log_f, lo, hi, tree, shift):
    """The 15-point Gauss-Legendre estimate of the integral of exp(log_f - shift[tree])
    on each panel [lo, hi], the trees whose log-integrand was NaN or +inf, and the
    trees with a panel too narrow to hold its nodes.

    A node that rounds onto its panel's end is never evaluated: its whole tree
    is left out of the ``log_f`` calls and reported.  Each tree's shift is first
    raised, in place, to the largest log-integrand value among its nodes; a
    shift still at -inf sums zeros.  One ``log_f`` call takes a level of up to
    _PANEL_BLOCK panels; a larger level is cut into blocks of that size, which
    bounds the memory of the integrand's temporaries.  The cut changes no bit: a
    panel's values come from its row.
    """
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * _NODES
    # the nodes ascend, so only the outer two can round onto an end; a tree is
    # listed once per such panel (np.unique would import numpy.ma, 1.4 MB)
    narrow = tree[(x[:, 0] <= lo) | (x[:, -1] >= hi)]
    if narrow.size:
        # the other trees' panels are estimated alone; a narrow tree's panels sum to 0
        live = np.isin(tree, narrow, invert=True)
        sums = np.zeros(lo.size)
        sums[live], bad, _ = _panels(log_f, lo[live], hi[live], tree[live], shift)
        return sums, bad, narrow
    values = np.empty_like(x)
    for start in range(0, lo.size, _PANEL_BLOCK):
        block = slice(start, start + _PANEL_BLOCK)
        out = np.asarray(log_f(x[block], tree[block]), dtype=float)
        if out.shape != x[block].shape:
            raise ValueError("log-integrand must map a node array to an equal-shaped array")
        values[block] = out
    # a tree's rows are contiguous, so its maximum is one reduction over them;
    # NaN and +inf carry through it
    starts = _starts(tree)
    present = tree[starts]
    peak = np.maximum.reduceat(values.ravel(), starts * _NODES.size)
    bad = ~(peak < math.inf)
    if bad.any():
        # a failed tree is dropped; zeros keep its shift and sums finite meanwhile
        values[np.repeat(bad, np.diff(starts, append=tree.size))] = LOG_ZERO
        peak[bad] = LOG_ZERO
    shift[present] = np.maximum(shift[present], peak)
    base = shift[tree]
    base[base == LOG_ZERO] = 0.0
    # a row sum along the last axis adds as np.sum of that row alone does
    values -= base[:, None]
    np.exp(values, out=values)
    values *= _WEIGHTS
    return half * values.sum(axis=1), present[bad], narrow


def quad_log_integrals(log_f, a, b, rel_tol: float = 1e-10) -> tuple[np.ndarray, dict]:
    """Run one adaptive tree on each interval [a[j], b[j]], all in lockstep, and
    return ``(logs, failures)``: the log of the integral of exp(log_f) over each
    interval, NaN where a tree failed, and the failures as ``{tree: exception}``.

    ``log_f(x, tree)`` gets a (k, 15) array of interior nodes and the (k,)
    index of the interval each row belongs to, rows grouped by interval in
    ascending order, and returns the log-integrand at every node, with
    ``-inf`` marking zeros.  No node equals an end of its panel, so integrands
    vanishing at the interval ends need no special casing.  A tree fails with
    the first error it meets: :class:`QuadratureError` when the panel depth
    cap or the panel budget is exhausted before the tolerance is met, or when
    a panel is so narrow that a node would round onto its end,
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

    # Every sum of a tree is taken relative to e^shift[tree], its largest
    # log-integrand value so far.  Pending panels, grouped by tree and in
    # interval order within a tree, carry their own coarse estimate;
    # refinement replaces a panel by its two halves, whose coarse estimates
    # were just computed.
    shift = np.full(n, LOG_ZERO)
    # accepted panels, and the running estimate: those plus this level's
    accepted, total, prev_total = np.zeros(n), np.zeros(n), np.zeros(n)

    def estimates(t):
        return {"last": _log_sum(shift[t], total[t]), "previous": _log_sum(shift[t], prev_total[t])}

    def level(lo, hi, tree):
        sums, bad, narrow = _panels(log_f, lo, hi, tree, shift)
        if narrow.size:
            fail(narrow, lambda t: QuadratureError(_NARROW, **estimates(t)))
        if bad.size:
            fail(bad, lambda t: ValueError(_NON_FINITE))
        return sums

    lo, hi = a[tree], b[tree]
    whole = level(lo, hi, tree)
    spent = np.ones(n, dtype=int)

    # the panels pending at a level all lie at its depth: each level splits only its own panels
    depth = 0
    while True:
        # a failed tree's panels are dropped; until a tree fails there are none
        if failures:
            keep = ~dead[tree]
            lo, hi, whole, tree = lo[keep], hi[keep], whole[keep], tree[keep]
        if not tree.size:
            return result, failures
        # each panel's ends and midpoint as a row: its halves are the row's first and last two
        edges = np.stack((lo, 0.5 * (lo + hi), hi), axis=1)
        old = shift.copy()
        halves = level(edges[:, :2].ravel(), edges[:, 1:].ravel(), np.repeat(tree, 2)).reshape(-1, 2)
        spent += 2 * np.bincount(tree, minlength=n)
        # a tree whose shift rose rescales the sums it took under the old one
        raised = np.flatnonzero(shift > old)
        if raised.size:
            factor = np.ones(n)
            factor[raised] = np.exp(old[raised] - shift[raised])
            accepted *= factor
            total *= factor
            whole = whole * factor[tree]
        if failures:
            keep = ~dead[tree]
            edges, whole, halves, tree = edges[keep], whole[keep], halves[keep], tree[keep]
        refined = halves[:, 0] + halves[:, 1]

        present, sums = _tree_sums(refined, tree)
        prev_total[present] = total[present]
        total[present] = accepted[present] + sums
        over = present[spent[present] > _PANEL_BUDGET]
        if over.size:
            fail(over, lambda t: QuadratureError(
                f"panel budget ({_PANEL_BUDGET}) exhausted before convergence", **estimates(t)
            ))

        # a panel is accepted when bisection moves it by at most the tree's
        # tolerance, or its error is negligible against the estimate; a tree's
        # log result rounds at |shift| eps, so its tolerance is no finer
        tree_tol = np.maximum(tol, _EPS * np.abs(np.where(shift > LOG_ZERO, shift, 0.0)))[tree]
        error = np.abs(whole - refined)
        accept = (error <= tree_tol * refined) | (error <= total[tree] * (tree_tol / _BUDGET_SHARE))
        split = ~accept
        if depth >= _DEPTH_CAP:
            fail(tree[split], lambda t: QuadratureError(
                f"panel depth cap ({_DEPTH_CAP}) reached without convergence", **estimates(t)
            ))

        # a live tree with nothing left to split accepted its whole level, so its
        # integral is the running estimate just taken
        held = dead.copy()
        held[tree[split]] = True
        done = present[~held[present]]
        result[done] = [s + math.log(t) if t > 0 else LOG_ZERO
                        for s, t in zip(shift[done].tolist(), total[done].tolist())]
        taken, sums = _tree_sums(refined[accept], tree[accept])
        accepted[taken] += sums
        edges = edges[split]
        lo, hi, whole = edges[:, :2].ravel(), edges[:, 1:].ravel(), halves[split].ravel()
        tree = np.repeat(tree[split], 2)
        depth += 1


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
