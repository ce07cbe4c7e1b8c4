import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from horospheres import quadrature
from horospheres.quadrature import LOG_ZERO, QuadratureError, quad_log_integral, quad_log_integrals


def test_constant_one():
    # integral of 1 over (0, 1)
    assert quad_log_integral(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_power_huge_exponent():
    # integral of x^1000 over (0, 1) = 1/1001, dynamic range ~ 10^300 inside
    got = quad_log_integral(lambda x: 1000.0 * np.log(x), 0.0, 1.0)
    assert got == pytest.approx(-math.log(1001.0), abs=1e-9)


def test_sine_hump():
    got = quad_log_integral(lambda x: np.log(np.sin(x)), 0.0, math.pi)
    assert got == pytest.approx(math.log(2.0), abs=1e-10)


def test_growing_exponential():
    # integral of e^(1000 x) over (0, 1) = (e^1000 - 1)/1000, far beyond double range
    got = quad_log_integral(lambda x: 1000.0 * np.asarray(x, dtype=float), 0.0, 1.0)
    assert got == pytest.approx(1000.0 - math.log(1000.0), rel=1e-12)


def test_sharp_gaussian():
    # integral of e^(-10000 (x - 1/2)^2) over (0, 1) ~ sqrt(pi/10000)
    got = quad_log_integral(
        lambda x: -10000.0 * (np.asarray(x, dtype=float) - 0.5) ** 2, 0.0, 1.0
    )
    assert got == pytest.approx(0.5 * math.log(math.pi / 10000.0), abs=1e-10)


def test_square_root_endpoint():
    # integrand vanishes like a root at the right endpoint; integral is 2/3
    got = quad_log_integral(lambda x: 0.5 * np.log1p(-np.asarray(x, dtype=float)), 0.0, 1.0)
    assert got == pytest.approx(math.log(2.0 / 3.0), rel=1e-9)


def test_log_singular_endpoint():
    # integral of -log x over (0, 1) = 1
    def log_f(x):
        x = np.asarray(x, dtype=float)
        return np.log(-np.log(x))

    got = quad_log_integral(log_f, 0.0, 1.0)
    assert got == pytest.approx(0.0, abs=1e-9)


def test_identically_zero_integrand():
    def log_f(x):
        return np.full_like(np.asarray(x, dtype=float), LOG_ZERO)

    assert quad_log_integral(log_f, 0.0, 1.0) == LOG_ZERO


def test_empty_interval():
    assert quad_log_integral(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 2.0, 2.0) == LOG_ZERO


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        quad_log_integral(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 1.0, 0.0)


@pytest.mark.parametrize("a, b", [(-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0), (1e308, 1.7e308),
                                  (math.inf, math.inf), (-math.inf, math.inf)])
def test_interval_past_double_range_rejected(a, b):
    # an infinite end, or a width or end sum that overflows, fails the tree
    # with its own message instead of reaching the nodes
    with pytest.raises(ValueError, match="past double range"):
        quad_log_integral(lambda x: np.zeros_like(np.asarray(x, dtype=float)), a, b)
    logs, failures = quad_log_integrals(lambda x, tree: np.zeros_like(x), [0.0, a, 0.0], [1.0, b, 1.0])
    assert list(failures) == [1] and isinstance(failures[1], ValueError)
    assert "past double range" in str(failures[1])
    assert math.isnan(logs[1]) and logs[0] == logs[2] == pytest.approx(0.0, abs=1e-12)


def test_nonintegrable_singularity_raises():
    # x^(-0.999) integrates, but the refinement cannot certify it within the
    # depth cap; the error object keeps the last two estimates
    def log_f(x):
        return -0.999 * np.log(np.asarray(x, dtype=float))

    with pytest.raises(QuadratureError) as excinfo:
        quad_log_integral(log_f, 0.0, 1.0)
    err = excinfo.value
    assert math.isfinite(err.last)
    assert math.isfinite(err.previous)


def test_a_node_never_lands_on_an_end_of_its_panel():
    # x^-0.999 at 1.0: the 2^-46-wide halves of a depth-40 panel put their outer node within
    # half an ulp of 1.0, where log(x - 1) would divide by zero.  The tree fails, naming the
    # cause, and log_f never sees the end; an interval one ulp wide fails at its first level
    def log_f(x):
        assert np.all(x > 1.0)
        return -0.999 * np.log(x - 1.0)

    with pytest.raises(QuadratureError, match="too narrow for its nodes") as excinfo:
        quad_log_integral(log_f, 1.0, 1.03125)
    assert math.isfinite(excinfo.value.last) and math.isfinite(excinfo.value.previous)
    with pytest.raises(QuadratureError, match="too narrow for its nodes"):
        quad_log_integral(log_f, 1.0, 1.0 + 2.0**-52)


def test_result_independent_of_scale_shift():
    # shifting the log-integrand by a constant shifts the tree's shift by the
    # same constant, so the linear sums are unchanged and only the final
    # shift + log(total) carries it
    def base(x):
        return np.log(np.sin(np.asarray(x, dtype=float)))

    plain = quad_log_integral(base, 0.0, math.pi)
    shifted = quad_log_integral(lambda x: base(x) + 500.0, 0.0, math.pi)
    assert shifted - plain == pytest.approx(500.0, abs=1e-10)


def test_additivity_over_subintervals():
    def log_f(x):
        x = np.asarray(x, dtype=float)
        return -(x * x)

    whole = quad_log_integral(log_f, 0.0, 2.0)
    left = quad_log_integral(log_f, 0.0, 0.7)
    right = quad_log_integral(log_f, 0.7, 2.0)
    assert np.logaddexp(left, right) == pytest.approx(whole, abs=1e-10)


# ---------------------------------------------------------------------------
# the lockstep engine: a batch of trees gives what separate one-tree calls give


def _family(kind, lo, u, v):
    """A one-argument log-integrand on an interval starting at ``lo``."""
    if kind == "bump":  # Gaussian bump at u of width about 10^(-v/2)
        return lambda x: -(10.0**v) * (x - u) ** 2
    if kind == "power":  # (x - lo)^p for p in (-1, 50]; near -1 it cannot converge
        return lambda x: (51.0 * v / 4.0 - 0.999) * np.log(x - lo)
    if kind == "growth":  # e^(250 v x), up to e^1000 on the interval
        return lambda x: 250.0 * v * x
    if kind == "zero":
        return lambda x: np.full_like(x, LOG_ZERO)
    # non-finite past u: the tree fails with a ValueError
    return lambda x: np.where(x > u, np.nan, 0.0)


_TREES = st.tuples(
    st.sampled_from(["bump", "power", "growth", "zero", "nan"]),
    st.floats(0.0, 3.0),
    st.one_of(st.just(0.0), st.floats(1e-3, 4.0)),
    st.floats(-1.0, 5.0),
    st.floats(0.0, 4.0),
)


def _batched(fs):
    def log_f(x, tree):
        out = np.empty_like(x)
        for t in set(tree.tolist()):
            rows = tree == t
            out[rows] = fs[t](x[rows])
        return out

    return log_f


def _outcome(call):
    """A result, or the type, message and estimates of the error raised."""
    try:
        return call()
    except (QuadratureError, ValueError) as exc:
        return _error(exc)


def _error(exc):
    return (type(exc), str(exc), getattr(exc, "last", None), getattr(exc, "previous", None))


def _hex(values):
    return [float(v).hex() for v in values]


def _check_batch(fs, a, b, rel_tol=1e-10):
    """One batch call against one call per tree: a tree that fails alone fails in the batch with
    the same error and reads NaN, and every other tree has its one-tree log, bit for bit."""
    singles = [
        _outcome(lambda f=f, lo=lo, hi=hi: quad_log_integral(f, lo, hi, rel_tol)) for f, lo, hi in zip(fs, a, b)
    ]
    logs, failures = quad_log_integrals(_batched(fs), a, b, rel_tol)
    assert logs.shape == (len(fs),)
    assert {t: _error(exc) for t, exc in failures.items()} == {
        t: single for t, single in enumerate(singles) if isinstance(single, tuple)
    }
    assert _hex(logs) == _hex(math.nan if isinstance(single, tuple) else single for single in singles)
    return singles


@given(st.lists(_TREES, min_size=1, max_size=6))
@example([("power", 1.0, 0.03125, 0.0, 0.0), ("bump", 0.0, 1.0, 0.5, 2.0)])  # a node would round onto 1.0
def test_batch_equals_separate_one_tree_calls(trees):
    fs = [_family(kind, lo, u, v) for kind, lo, _, u, v in trees]
    _check_batch(fs, [t[1] for t in trees], [t[1] + t[2] for t in trees])


def test_empty_and_zero_trees_in_a_batch():
    fs = [_family("bump", 0.0, 1.0, 2.0), _family("zero", 0.0, 0.0, 0.0), _family("growth", 1.0, 0.0, 4.0)]
    singles = _check_batch(fs * 2, [0.0, 0.0, 1.0, 2.0, 5.0, 3.0], [2.0, 1.0, 2.0, 2.0, 5.0, 3.0])
    assert singles[1] == singles[3] == singles[4] == singles[5] == LOG_ZERO
    assert math.isfinite(singles[0]) and math.isfinite(singles[2])


@pytest.mark.parametrize("position", [0, 2, 3])
def test_batch_raises_the_failing_trees_error(position):
    # the failing tree reports the error quad_log_integral raises on it alone; the others converge
    fs = [_family("bump", 0.0, 0.5, 3.0), _family("growth", 0.0, 0.0, 1.0), _family("bump", 0.0, 1.5, 1.0)]
    fs.insert(position, lambda x: -0.999 * np.log(x))
    singles = _check_batch(fs, [0.0] * 4, [2.0] * 4)
    assert singles[position][0] is QuadratureError
    assert sum(isinstance(single, tuple) for single in singles) == 1


def test_batch_raises_the_first_of_several_errors():
    # every failed tree keeps its own first error, whatever its place in the batch
    fs = [_family("bump", 0.0, 0.5, 3.0), _family("nan", 0.0, 0.3, 0.0), lambda x: -0.999 * np.log(x)]
    singles = _check_batch(fs, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert singles[1][0] is ValueError and "non-finite" in singles[1][1]
    assert singles[2][0] is QuadratureError and "depth cap" in singles[2][1]
    fs.reverse()
    _check_batch(fs, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    # a reversed interval fails its own tree, and no other
    logs, failures = quad_log_integrals(_batched(fs), [0.0, 1.0, 0.0], [1.0, 0.5, 1.0])
    assert sorted(failures) == [0, 1] and "depth cap" in str(failures[0]) and "reversed" in str(failures[1])
    assert math.isnan(logs[0]) and math.isnan(logs[1]) and logs[2] == quad_log_integral(fs[2], 0.0, 1.0)


def test_a_tree_fails_with_its_first_error(monkeypatch):
    # the budget runs out on the level where the panels also reach the depth
    # cap; the budget is checked first, as the estimate is formed first
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 6)
    monkeypatch.setattr(quadrature, "_DEPTH_CAP", 1)
    log_f = _family("power", 0.0, 0.0, 0.0)
    with pytest.raises(QuadratureError, match="panel budget"):
        quad_log_integral(log_f, 0.0, 1.0)
    _, failures = quad_log_integrals(_batched([_family("bump", 0.0, 0.5, 0.0), log_f]), [0.0, 0.0], [1.0, 1.0])
    assert list(failures) == [1] and "panel budget" in str(failures[1])


def test_level_larger_than_a_block_matches_one_tree_calls():
    # half a block of trees plus one puts more panels on the first split level
    # than one log_f call takes
    count = quadrature._PANEL_BLOCK // 2 + 1
    assert 2 * count > quadrature._PANEL_BLOCK
    centres = np.linspace(0.1, 0.9, count)
    fs = [_family("bump", 0.0, c, 1.0 + 2.0 * c) for c in centres]
    calls = []

    def log_f(x, tree):
        calls.append(len(tree))
        return _batched(fs)(x, tree)

    batch, failures = quad_log_integrals(log_f, [0.0] * count, [1.0] * count)
    assert not failures and _hex(batch) == _hex(quad_log_integral(f, 0.0, 1.0) for f in fs)
    assert max(calls) <= quadrature._PANEL_BLOCK


def test_log_f_sees_node_rows_and_their_trees():
    a, b = [0.0, -3.0, 10.0], [1.0, -2.0, 10.5]
    seen = []

    def log_f(x, tree):
        seen.append((x.shape, tree.shape))
        lo, hi = np.asarray(a)[tree], np.asarray(b)[tree]
        assert np.all((x > lo[:, None]) & (x < hi[:, None]))
        return -(x * x)

    quad_log_integrals(log_f, a, b)
    assert all(xs == (ts[0], 15) and len(ts) == 1 for xs, ts in seen)
    assert seen[0] == ((3, 15), (3,))


def test_one_tree_log_f_takes_one_argument():
    shapes = []

    def log_f(x):
        shapes.append(np.shape(x))
        return np.zeros_like(x)

    assert quad_log_integral(log_f, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert shapes[0] == (1, 15)


def test_rel_tol_must_be_positive():
    logs, failures = quad_log_integrals(lambda x, tree: np.zeros_like(x), [0.0, 1.0, 2.0], [1.0, 1.0, 3.0], 0.0)
    assert sorted(failures) == [0, 2] and all("rel_tol must be positive" in str(e) for e in failures.values())
    assert math.isnan(logs[0]) and logs[1] == LOG_ZERO and math.isnan(logs[2])
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        quad_log_integral(lambda x: np.zeros_like(x), 0.0, 1.0, rel_tol=-1.0)


def test_mismatched_interval_ends_rejected():
    with pytest.raises(ValueError, match="equal length"):
        quad_log_integrals(lambda x, tree: np.zeros_like(x), [0.0, 1.0], [1.0])


def _scalar_rule(log_f, a, b, rel_tol=1e-10):
    """The linear rule one panel at a time, in plain Python and 1-D numpy
    arrays: the reference the lockstep engine must match bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(15)
    tol = max(rel_tol, 1e-14)
    shift = LOG_ZERO

    def level(panels):
        # every panel's node values first, then the shift raised to their
        # maximum, then each panel's sum relative to it
        nonlocal shift
        values = [log_f(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes) for lo, hi in panels]
        old, shift = shift, max([shift] + [float(np.max(v)) for v in values])
        base = shift if shift > LOG_ZERO else 0.0
        sums = [0.5 * (hi - lo) * float(np.sum(weights * np.exp(v - base))) for (lo, hi), v in zip(panels, values)]
        return sums, float(np.exp(np.array([old - shift]))[0]) if shift > old else 1.0

    [whole], _ = level([(a, b)])
    pending, accepted, total = [(a, b, whole)], 0.0, 0.0
    while pending:
        mids = [0.5 * (lo + hi) for lo, hi, _ in pending]
        sums, factor = level([half for (lo, hi, _), mid in zip(pending, mids) for half in ((lo, mid), (mid, hi))])
        accepted *= factor
        level_items = [(lo, mid, hi, whole * factor, left, right, left + right)
                       for (lo, hi, whole), mid, left, right in zip(pending, mids, sums[0::2], sums[1::2])]
        total = accepted + float(np.sum([item[-1] for item in level_items]))
        tree_tol = max(tol, np.finfo(float).eps * abs(shift)) if shift > LOG_ZERO else tol
        pending, taken = [], []
        for lo, mid, hi, whole, left, right, refined in level_items:
            error = abs(whole - refined)
            if error <= tree_tol * refined or error <= total * (tree_tol / 256.0):
                taken.append(refined)
            else:
                pending += [(lo, mid, left), (mid, hi, right)]
        accepted += float(np.sum(taken))
    return shift + math.log(total) if total > 0 else LOG_ZERO


def _log_domain_rule(log_f, a, b, rel_tol=1e-10):
    """The adaptive rule carried out entirely in the log domain, one panel at a
    time: an independent reference the engine must match within rel_tol in log."""
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def logsumexp(values):
        arr = np.asarray(values, dtype=float)
        m = float(np.max(arr))
        if m == LOG_ZERO:
            return LOG_ZERO
        return m + math.log(float(np.sum(np.exp(arr - m))))

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        return logsumexp(log_f(0.5 * (lo + hi) + half * nodes) + np.log(weights)) + math.log(half)

    tol = max(rel_tol, 1e-14)
    pending, accepted = [(a, b, panel(a, b))], []
    while pending:
        level = []
        for lo, hi, whole in pending:
            mid = 0.5 * (lo + hi)
            left, right = panel(lo, mid), panel(mid, hi)
            level.append((lo, mid, hi, whole, left, right, float(np.logaddexp(left, right))))
        total = logsumexp(accepted + [item[-1] for item in level])
        pending = []
        for lo, mid, hi, whole, left, right, refined in level:
            if whole == refined or abs(whole - refined) <= tol:
                accepted.append(refined)
                continue
            diff = abs(whole - refined)
            if math.isfinite(diff):
                error = max(whole, refined) + math.log(diff)
            else:
                error = float(np.logaddexp(whole, refined))
            if error <= total + math.log(tol) - math.log(256.0):
                accepted.append(refined)
            else:
                pending += [(lo, mid, left), (mid, hi, right)]
    return logsumexp(accepted)


def _first_level_values(log_f, a, b):
    nodes, _ = np.polynomial.legendre.leggauss(15)
    return log_f(0.5 * (a + b) + 0.5 * (b - a) * nodes)


# the maximum, 0 at x = 0.35, lies between two of the first level's nodes
_OFF_NODE_BUMP = (lambda x: -10000.0 * (x - 0.35) ** 2, 0.0, 1.0)
# spans 3,600 in log within the one tree, so most nodes underflow against its maximum
_WIDE_GAUSSIAN = (lambda x: -(x * x), -60.0, 60.0)

_RULE_CASES = [
    (lambda x: 1000.0 * np.log(x), 0.0, 1.0),
    (lambda x: np.log(np.sin(x)), 0.0, math.pi),
    (lambda x: -10000.0 * (x - 0.5) ** 2, 0.0, 1.0),
    (lambda x: np.log(-np.log(x)), 0.0, 1.0),
    (lambda x: 0.5 * np.log1p(-x), 0.0, 1.0),
    (lambda x: 30.0 * np.log(x - 0.2), 0.2, 3.0),
    _OFF_NODE_BUMP,
    _WIDE_GAUSSIAN,
]


@pytest.mark.parametrize("log_f, a, b", _RULE_CASES)
def test_engine_matches_the_scalar_rule(log_f, a, b):
    assert quad_log_integral(log_f, a, b).hex() == _scalar_rule(log_f, a, b).hex()


@pytest.mark.parametrize("log_f, a, b", _RULE_CASES)
def test_engine_matches_the_log_domain_rule(log_f, a, b):
    # the two rules differ in rounding and may accept different panels, so
    # they agree to the tolerance, not to the bit; the largest difference
    # measured on these cases is 8.9e-16
    assert abs(quad_log_integral(log_f, a, b) - _log_domain_rule(log_f, a, b)) <= 1e-10


def test_maximum_found_past_the_first_level():
    # the shift rises on later levels and the sums taken under the old one are rescaled
    log_f, a, b = _OFF_NODE_BUMP
    assert np.max(_first_level_values(log_f, a, b)) < -1.0
    assert quad_log_integral(log_f, a, b) == pytest.approx(0.5 * math.log(math.pi / 10000.0), abs=1e-10)


def test_integrand_spanning_past_the_underflow_range():
    # nodes more than 745 below the tree's maximum add exactly 0 to its sums
    log_f, a, b = _WIDE_GAUSSIAN
    first = _first_level_values(log_f, a, b)
    assert np.max(first) - np.min(first) > 745.0
    assert quad_log_integral(log_f, a, b) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


def test_nodes_and_weights_are_the_legendre_rule():
    # the literals are the repr of leggauss(15), so LAPACK's rounding there may differ by an ulp or two
    nodes, weights = np.polynomial.legendre.leggauss(15)
    for literal, value in zip([*quadrature._NODES, *quadrature._WEIGHTS], [*nodes, *weights]):
        assert abs(literal - value) <= 2 * np.spacing(abs(value))
    # the rule is symmetric about 0 and integrates 1 over (-1, 1)
    assert np.array_equal(quadrature._NODES, -quadrature._NODES[::-1])
    assert np.array_equal(quadrature._WEIGHTS, quadrature._WEIGHTS[::-1])
    assert quadrature._WEIGHTS.sum() == pytest.approx(2.0, rel=1e-15)


def test_import_leaves_numpy_polynomial_unloaded():
    src = Path(quadrature.__file__).resolve().parents[1]
    code = "import sys, horospheres.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@given(st.lists(st.tuples(st.integers(0, 40), st.floats(-1e300, 1e300)), max_size=300))
@example([])
@example([(3, 1.0), (3, 1e-17), (3, -1.0)] * 5)
def test_tree_sums_add_each_tree_as_np_sum(pairs):
    pairs.sort(key=lambda p: p[0])
    tree = np.array([t for t, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs])
    present, sums = quadrature._tree_sums(values, tree)
    assert present.tolist() == sorted(set(tree.tolist()))
    assert sums.tolist() == [float(np.sum(values[tree == t])) for t in present.tolist()]
