"""Exact simulation of the horosphere process restricted to a centered ball.

One vectorized sampler, :func:`simulate_batch`, serves both geometric models
and returns a :class:`Batch` of arrays; :func:`sample_points` replays one
replication.  A :class:`Model` gives the log hitting mass, the map from a
uniform to the distance t = R + s from the far edge of the ball, and a fused
kernel that reduces the uniforms of many replications, one after another, to
the log total area of each (:data:`HYPERBOLIC` here, ``FLAT`` in
:mod:`horospheres.euclidean`).  Each replication draws its count and uniforms
from its own counter-based stream keyed by (index, seed); many replications
share one kernel call, and each total depends only on its own hits, so
replication k is the same in every batch.

Below a mean count of 10, where numpy draws a Poisson count by multiplying
uniforms, the sampler computes the Philox-4x64 blocks of many replications at
once in numpy arrays and repeats numpy's count draw on them, so a sparse
replication costs no generator call of its own; its counts and uniforms are bit
for bit those of its own stream, and a chunk of up to ``_SPARSE_CHUNK`` of them
is reduced in one kernel call.  From a mean of 10 up each replication draws from
its re-keyed generator into a block of ``_BLOCK`` hits, and one larger than a
block is drawn and reduced in ``_CHUNK`` pieces.  The plane's kernel sums the
hit areas linearly, with no log or clamp per hit.  From a mean of 2^11 up, where
the process may run on two CPUs, a batch is split into two contiguous parts run
in two threads, each with its own generator and block: numpy's ``random`` fill
and the kernel's ufuncs release the interpreter lock, so the two overlap, and
every row is the same as in one thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    LOG_ZERO, HorosphereParam, _LOG_MAX, check_dimension, check_radius, log_sinh, log_unit_ball_volume,
)

__all__ = [
    "FeasibilityError",
    "Model",
    "HYPERBOLIC",
    "SimConfig",
    "Batch",
    "log_hitting_mass",
    "sample_poisson_count",
    "replication_stream",
    "check_feasible",
    "simulate_batch",
    "sample_points",
]

_LN2 = math.log(2.0)
_SEED_LIMIT = 1 << 64
# bound on the expected hit count per replication
_COUNT_CAP = 10**8
# hits per piece of a replication larger than a block, in the loop from a mean of 10 up
_CHUNK = 1 << 20
# hits per block of that loop, which packs replications until the next would not fit.  A kernel
# call takes about 21 plane replications at R = 8, and each of its ufunc calls is one hand-off of the
# interpreter lock between the threads of a split batch, half as many per hit as at 2^15.  At 2^17 a
# block and the kernel's temporary reach 2 MB, one core's L2 on a 2-vCPU Xeon, and that batch runs
# no faster while the process takes 2 MB more
_BLOCK = 1 << 16
# replications per chunk of the sparse path below a mean of 10: about 1.2 blocks of hits at a mean
# of 9.9, where tracemalloc's peak for 20,000 plane replications is 4.20 MiB (6.1 MiB at 2^14)
_SPARSE_CHUNK = 1 << 13
# rng.random can return exactly 0.0, whose far-edge distance and log area are
# not finite; clamping to half the smallest regular draw keeps u in (0, 1).  The
# maps that take a log of u or of t do: the far-edge map (the general kernel and
# sample_points) and the flat model's kernel and map; the plane's kernel needs none
_MIN_U = 2.0**-54
# numpy's Poisson draw (random_poisson) multiplies uniforms below this mean and
# switches to PTRS rejection from it up
_PTRS_MIN_MEAN = 10.0
# from this mean count up a dense batch is split over two threads, each with its own
# generator and hit block: the generator fill and the kernel's ufuncs release the
# interpreter lock, and below it the hand-offs of short replications cost more than they gain
_SPLIT_MIN_MEAN = float(1 << 11)
# Philox-4x64-10 (Salmon et al., SC 2011) as numpy runs it: the round multipliers,
# as one column for the (c0, c2) pair of counter words, their 32-bit halves, the
# increment of key word 0, and the ten round values of key word 1 less the seed
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W0 = np.array([0x9E3779B97F4A7C15], np.uint64)
_PHILOX_K1 = np.arange(10, dtype=np.uint64)[:, None] * np.uint64(0xBB67AE8584CAA73B)
# one-element arrays, which a ufunc takes faster than a Python int or a numpy scalar
_LOW_32, _11, _32 = (np.array([c], np.uint64) for c in (0xFFFFFFFF, 11, 32))
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW_32, _PHILOX_M >> _32


class FeasibilityError(RuntimeError):
    """An experiment would exceed the count cap."""

    def __init__(self, message: str, log_expected_count: float | None = None, cap: float | None = None):
        super().__init__(message)
        self.log_expected_count = log_expected_count
        self.cap = cap


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo experiment parameters."""

    d: int
    R: float
    replications: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        object.__setattr__(self, "R", check_radius(self.R))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", int(self.seed))
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if self.replications > _SEED_LIMIT:
            # replication k is keyed by the 64-bit index k
            raise ValueError("replications must be at most 2^64")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must be a 64-bit unsigned integer")


class Batch(NamedTuple):
    """A Monte Carlo sample, replication k at row k: hit counts (int64), total
    areas and their logs (float64); a total past double range is ``inf``."""

    counts: np.ndarray
    totals: np.ndarray
    log_totals: np.ndarray


def log_hitting_mass(R, d) -> float:
    """log of the expected number of horospheres meeting the ball of radius R."""
    d = check_dimension(d)
    a = (d - 1.0) * check_radius(R, d)
    return float(log_sinh(a)) + _LN2 - math.log(d - 1.0)


def _far_edge(u: np.ndarray, v: np.ndarray, R: float, d: int) -> np.ndarray:
    """The inverse CDF in the distance t = R + s from the far edge, in place on uniforms u
    (clamped to [2^-54, 1)) and held below 2R; v receives 1 - u.

    t = -log(1 - u w)/(d-1) with w = 1 - e^{-2(d-1)R}.  Once e^{-2(d-1)R} <= 1/2, log(1 - u w)
    is log1p(-u) + log1p(u e^{-2(d-1)R}/(1 - u)), free of the rounding of u w, so t stays
    accurate as u -> 1 as well as u -> 0.
    """
    a, A = d - 1.0, 2.0 * (d - 1.0) * R
    np.subtract(1.0, np.maximum(u, _MIN_U, out=u), out=v)
    if A < _LN2:
        np.log1p(np.multiply(u, math.expm1(-A), out=u), out=u)
    else:
        x = np.negative(u)
        np.log1p(x, out=x)
        np.log1p(np.divide(np.multiply(u, math.exp(-A), out=u), v, out=u), out=u)
        u += x
    u /= -a
    return np.minimum(u, math.nextafter(2.0 * R, 0.0), out=u)


def _hyperbolic_hits(R: float, d: int):
    """The fused hit kernel at a valid (R, d): ``hits(u, starts)`` turns uniforms u into the log
    total area of each segment, from ``starts[k]`` to the next start or the end (u is overwritten).

    With t = R + s and r = R - s, the log area is c + (d-1)/2 (log(e^t - 1) + log(1 - e^{-r})).
    t comes from u by :func:`_far_edge` and r from 1 - u, each on its own side, so both stay
    accurate out to the edge they approach.  In the plane the area is rational in u up to one
    square root, e^K sqrt(u (1 - u))/(1 - u w) with K = c + log w, so it is summed linearly;
    at u = 0 it is an exact 0, so the plane needs no clamp of u.
    """
    a, c = d - 1.0, log_unit_ball_volume(d - 1)
    A = 2.0 * a * R
    if d == 2:
        E, w = math.exp(-A), -math.expm1(-A)
        K = c + math.log(w)
        # the scaled area of a hit at u = 2^-54, half the smallest nonzero draw, where 1 - u rounds to 1
        floor = 2.0**-27 / (w + E)

        # 1 - u w = (1 - u) w + E >= max(E, 2^-53 w), so the scaled area of every nonzero draw,
        # u >= 2^-53, lies in about [2^-27, 2^28] at any admissible R: no hit underflows, and a row
        # of n hits sums to at most n 2^28, far inside double range for any count, so the sum needs
        # no per-row max.  A draw of exactly 0 adds an exact 0, so a row sum is floored at the area
        # of a hit at 2^-54, which every nonzero draw's exceeds: a row of zero draws reads as one
        # such hit, not log 0, and any other row is the sum of its nonzero draws alone
        def plane(u, starts):
            v = np.subtract(1.0, u)
            u *= v
            np.sqrt(u, out=u)
            u /= np.add(np.multiply(v, w, out=v), E, out=v)
            sums = np.add.reduceat(u, starts)
            return np.log(np.maximum(sums, floor, out=sums), out=sums) + K

        return plane

    M = math.expm1(A) if A < _LOG_MAX else math.inf

    def hits(u, starts):
        v = np.empty_like(u)
        t = _far_edge(u, v, R, d)
        if M < math.inf:  # r = log1p((1 - u)(e^{2(d-1)R} - 1))/(d-1)
            np.divide(np.log1p(np.multiply(v, M, out=v), out=v), -a, out=v)
        else:
            np.subtract(t, 2.0 * R, out=v)  # -r
        np.log(np.expm1(t, out=t), out=t)
        t += np.log(np.negative(np.expm1(v, out=v), out=v), out=v)
        return _segment_log_sums(np.add(np.multiply(t, 0.5 * a, out=t), c, out=t), starts)

    return hits


def _sample_directions(k: int, d: int, rng) -> np.ndarray:
    v = rng.standard_normal((k, d))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def sample_poisson_count(mean, rng) -> int:
    """Poisson variate with the given mean; :func:`check_feasible` owns the count cap."""
    if not mean >= 0:
        raise ValueError(f"mean must be nonnegative, got {mean!r}")
    return int(rng.poisson(mean))


def replication_stream(seed: int, index: int):
    """Independent generator for one replication, a pure function of its key."""
    if not 0 <= int(seed) < _SEED_LIMIT:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if not 0 <= int(index) < _SEED_LIMIT:
        raise ValueError("replication index must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(index)))


class Model(NamedTuple):
    """A geometric model as the sampler sees it, each callable taking (R, d) last: the log expected
    hit count; uniforms in [0, 1) to distances t = R + s from the far edge, in (0, 2R) (may overwrite
    them); and ``hits(R, d)``, the fused kernel for a valid (R, d), whose ``hits(u, starts)`` returns
    the log total area of the hits at uniforms u in each segment, from ``starts[k]`` to the next start
    or the end of u, overwriting u.  Segments must not be empty."""

    log_mass: Callable[[float, int], float]
    edge_distance: Callable[[np.ndarray, float, int], np.ndarray]
    hits: Callable[[float, int], Callable[..., np.ndarray]]


HYPERBOLIC = Model(
    log_mass=log_hitting_mass,
    edge_distance=lambda u, R, d: _far_edge(u, np.empty_like(u), R, d),
    hits=_hyperbolic_hits,
)


def check_feasible(cfg: SimConfig, model: Model = HYPERBOLIC) -> float:
    """log expected hit count per replication; FeasibilityError past the cap."""
    log_mass = model.log_mass(cfg.R, cfg.d)
    if log_mass > math.log(_COUNT_CAP):
        expected = f"{math.exp(log_mass):.6g}" if log_mass < _LOG_MAX else f"exp({log_mass:.6g})"
        raise FeasibilityError(f"expected hitting count {expected} exceeds the count cap {_COUNT_CAP:g}; "
                               "use the analytic routines for this regime", log_mass, float(_COUNT_CAP))
    return log_mass


def _segment_log_sums(logs: np.ndarray, starts) -> np.ndarray:
    """log of the sum of exp(logs) over each segment, from ``starts[k]`` to the next start or
    the end.  The logs must be finite; they are overwritten."""
    m = np.maximum.reduceat(logs, starts)
    logs -= np.repeat(m, np.diff(starts, append=logs.size))
    return m + np.log(np.add.reduceat(np.exp(logs, out=logs), starts))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replication_streams(seed: int):
    """``(rekey, gen)``: after ``rekey(index)``, the generator ``gen`` draws what
    ``replication_stream(seed, index)`` would.  ``gen`` is one reused Philox, re-keyed in place
    to [index, seed] with counter 0 and an empty buffer, cheaper than a new one, so its bound
    methods can be looked up once for a whole batch.

    The state holds Python ints, not numpy arrays: the ``state`` setter reads its ten counter,
    key and buffer entries one by one, and an int converts to uint64 with no numpy scalar in
    between, which cuts the cost of a re-key by more than half.  Every field is set, so
    nothing of the previous replication (a half-used buffer, a pending 32-bit half) carries
    over."""
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    key = [0, int(seed)]
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(index: int) -> None:
        key[0] = index
        bits.state = state

    return rekey, gen


def _philox_doubles(counters: np.ndarray, keys: np.ndarray, seed: int) -> np.ndarray:
    """numpy's ``random`` doubles from whole Philox-4x64-10 blocks, one block per row: row i holds
    positions 4 (counters[i] - 1) to 4 counters[i] - 1 of ``replication_stream(seed, keys[i])``,
    the block at counter (counters[i], 0, 0, 0) under the key (keys[i], seed).  ``keys`` (uint64)
    is overwritten.

    The counter words are kept as two (2, n) arrays, a = (c0, c2), which a round multiplies, and
    b = (c1, c3), so one ufunc call serves both multiplications of a round; the round's new b is
    the old a's low words reversed, a view, so no word is copied.  Each 64-bit multiply-high is
    built from 32-bit halves with no carry to fix; uint64 array arithmetic wraps, as Philox's does."""
    n = counters.size
    a, b = np.zeros((2, 2, n), np.uint64)
    a[0], k0 = counters, keys
    lo, hi = scratch = np.empty((2, 2, n), np.uint64)  # the returned doubles at the end
    mid, tmp = np.empty((2, 2, n), np.uint64)
    for r, k1 in enumerate(_PHILOX_K1 + np.uint64(seed)):
        if r:
            k0 += _PHILOX_W0
        # with a = ah 2^32 + al and M = Mh 2^32 + Ml, the high word of a M is
        # ah Mh + (u1 >> 32) + (u2 >> 32) for u1 = ah Ml + (al Ml >> 32) and
        # u2 = al Mh + (u1 mod 2^32); neither passes 2^64 - 2^32, so no sum wraps
        np.bitwise_and(a, _LOW_32, out=lo)
        np.right_shift(a, _32, out=hi)
        a *= _PHILOX_M  # the low words
        np.right_shift(np.multiply(lo, _PHILOX_M_LO, out=mid), _32, out=mid)
        mid += np.multiply(hi, _PHILOX_M_LO, out=tmp)  # u1
        lo *= _PHILOX_M_HI
        lo += np.bitwise_and(mid, _LOW_32, out=tmp)  # u2
        hi *= _PHILOX_M_HI
        hi += np.right_shift(mid, _32, out=mid)
        hi += np.right_shift(lo, _32, out=lo)
        # (c0, c1, c2, c3) <- (hi(c2) ^ c1 ^ k0, lo(c2), hi(c0) ^ c3 ^ k1, lo(c0))
        b ^= hi[::-1]
        b[0] ^= k0
        b[1] ^= k1
        a, b = b, a[::-1]
    out = scratch.view(np.float64).reshape(n, 4)
    for word, bits in enumerate((a[0], b[0], a[1], b[1])):
        out[:, word] = np.right_shift(bits, _11, out=bits)
    out *= 2.0**-53
    return out


def _sparse_draws(mean: float, keys: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts of the replications keyed ``keys`` and their uniforms, concatenated in order:
    bit for bit ``poisson(mean)`` and then ``random(count)`` from ``replication_stream(seed, key)``,
    for a mean below ``_PTRS_MIN_MEAN``.

    There numpy's count N is the number of leading running products U_0, U_0 U_1, ... of the
    stream that stay above e^-mean, so the count reads positions 0 to N and the hits N + 1 to 2N,
    which lie in blocks 1 to N // 2 + 1.  Each round computes only blocks a replication surely
    needs: one still open after blocks 1 to c has N >= 4c and gets blocks c + 1 to 2c + 1, and
    one whose count is known gets the rest of its blocks.  Only blocks holding hits are kept."""
    limit = math.exp(-mean)
    counts = np.zeros(keys.size, np.int64)
    open_, prod, done = np.arange(keys.size), np.ones(keys.size), 0
    closed, need = open_[:0], open_[:0]  # count known, blocks still to draw
    kept = []
    while open_.size or closed.size:
        span = done + 1
        lens = np.concatenate((np.full(open_.size, span), need))
        rep = np.repeat(np.concatenate((open_, closed)), lens)
        block = np.arange(done + 1, done + 1 + rep.size) - np.repeat(np.cumsum(lens) - lens, lens)
        u = _philox_doubles(block, keys[rep], seed)
        done += span
        # numpy multiplies U_0, U_1, ... into its running product one by one, as accumulate does;
        # one column per replication, so the accumulate and the count run along the long axis
        run = np.empty((4 * span + 1, open_.size))
        run[0], run[1:] = prod, u[:open_.size * span].reshape(open_.size, 4 * span).T
        np.multiply.accumulate(run, axis=0, out=run)
        counts[open_] += np.count_nonzero(run[1:] > limit, axis=0)
        still = run[-1] > limit
        closed, open_, prod = open_[~still], open_[still], run[-1, still]
        need = counts[closed] // 2 + 1 - done
        closed, need = closed[need > 0], need[need > 0]
        # a block holds hits once 4 block > N + 1; an open replication's count exceeds them all
        hits = 4 * block > counts[rep] + 1
        kept.append((rep[hits], block[hits], u[hits]))
    # each replication's blocks from (N + 1) // 4 + 1 in counter order, its hits from N + 1 to 2N
    start = (counts + 1) // 4 + 1
    spans = counts // 2 + 2 - start
    first = np.cumsum(spans) - spans
    stream = np.empty((spans.sum(), 4))
    while kept:
        rep, block, u = kept.pop()
        stream[first[rep] + block - start[rep]] = u
    index = np.repeat(4 * first + (counts + 1) % 4 - (np.cumsum(counts) - counts), counts)
    index += np.arange(index.size)
    return counts, stream.ravel()[index]


def _dense_rows(seed: int, mean: float, hits, indices: range, counts: np.ndarray, log_totals: np.ndarray,
                stop: list) -> None:
    """Replications ``indices`` from a mean of ``_PTRS_MIN_MEAN`` up, written to their rows of
    ``counts`` and ``log_totals`` (whose rows start at ``LOG_ZERO``), with a generator and a hit
    block of their own; returns early once ``stop`` is not empty.

    Each replication re-keys the generator and draws its count and then its uniforms into the
    block, which the kernel reduces when the next replication would not fit; one larger than a
    block is drawn and reduced alone in ``_CHUNK``-sized pieces, which bounds memory.  A block
    and the plane kernel's one temporary take 1 MiB, and 1.5 MiB with the general kernel's two,
    so a split batch peaks at about 2.0 MiB in the plane (d = 2, R = 8) and 2.9 MiB at d = 3, R = 5."""
    # check_feasible has validated the mean, so the count is drawn by the bound method itself
    rekey, gen = _replication_streams(seed)
    poisson, random = gen.poisson, gen.random
    block = np.empty(_BLOCK)
    rows, starts, pos = [], [], 0
    for row, index in enumerate(indices):
        if stop:
            return
        rekey(index)
        counts[row] = n = poisson(mean)
        if n > _BLOCK:
            for done in range(0, n, _CHUNK):
                piece = hits(random(min(_CHUNK, n - done)), [0])
                log_totals[row] = np.logaddexp(log_totals[row], piece[0])
        elif n > 0:
            if pos + n > _BLOCK:
                log_totals[rows] = hits(block[:pos], starts)
                rows, starts, pos = [], [], 0
            random(out=block[pos:pos + n])  # the slice fixes the size
            rows.append(row)
            starts.append(pos)
            pos += n
    if rows:
        log_totals[rows] = hits(block[:pos], starts)


def _simulate(cfg: SimConfig, model: Model, indices: range) -> Batch:
    """The shared sampler: replications ``indices`` of ``model``, in order.

    Below a mean count of ``_PTRS_MIN_MEAN`` the replications are drawn in
    chunks of at most ``_SPARSE_CHUNK`` by :func:`_sparse_draws`, with no numpy
    call per replication, and each chunk's hits are reduced in one kernel call.
    From it up :func:`_dense_rows` draws each replication from its own
    re-keyed generator into a hit block.  From a mean of ``_SPLIT_MIN_MEAN`` up
    the replications are cut into two contiguous parts when the process may
    run on two CPUs: a second thread runs the second part with its own
    generator and block, and this thread runs the first, then joins it and
    raises what it raised.  Either way each log total is a function of the
    replication's own hits alone, so the rows are the same on any CPU count."""
    if indices and not 0 <= indices[0] <= indices[-1] < _SEED_LIMIT:
        raise ValueError("replication index must be a 64-bit unsigned integer")
    mean = math.exp(check_feasible(cfg, model))
    hits = model.hits(cfg.R, cfg.d)
    log_totals = np.full(len(indices), LOG_ZERO)
    counts = np.empty(len(indices), np.int64)
    if mean < _PTRS_MIN_MEAN:
        # equal chunks of at most _SPARSE_CHUNK replications, so memory stops growing with the
        # batch past one chunk
        chunks = -(-len(indices) // _SPARSE_CHUNK)
        bounds = [len(indices) * k // chunks for k in range(chunks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            keys = np.arange(indices[lo], indices[hi - 1] + 1, dtype=np.uint64)
            n, u = _sparse_draws(mean, keys, cfg.seed)
            counts[lo:hi] = n
            rows = np.flatnonzero(n)
            if rows.size:
                log_totals[lo + rows] = hits(u, (np.cumsum(n) - n)[rows])
    else:
        workers = max(1, min(2, _cpu_count(), len(indices))) if mean >= _SPLIT_MIN_MEAN else 1
        cuts = [len(indices) * k // workers for k in range(workers + 1)]
        parts = [(indices[lo:hi], counts[lo:hi], log_totals[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        failed = []  # what a part raised, which also stops the other parts

        def work(part):
            try:
                _dense_rows(cfg.seed, mean, hits, *part, failed)
            except BaseException as exc:
                failed.append(exc)

        threads = [threading.Thread(target=work, args=(part,)) for part in parts[1:]]
        for thread in threads:
            thread.start()
        try:
            _dense_rows(cfg.seed, mean, hits, *parts[0], failed)
        except BaseException as exc:
            failed.append(exc)
            raise
        finally:
            for thread in threads:
                thread.join()
        if failed:
            raise failed[0]
    # math.exp, not np.exp: the two can differ in the last bit; inf past double range, as geometry._exp_or_inf
    huge = ~(log_totals < _LOG_MAX)
    totals = np.array(list(map(math.exp, np.where(huge, 0.0, log_totals).tolist())), dtype=float)
    totals[huge] = math.inf
    return Batch(counts, totals, log_totals)


def simulate_batch(cfg: SimConfig, model: Model = HYPERBOLIC) -> Batch:
    """All replications of ``model``, in index order; replication k is the same in any batch."""
    return _simulate(cfg, model, range(cfg.replications))


def sample_points(cfg: SimConfig, index: int, model: Model = HYPERBOLIC) -> tuple[HorosphereParam, ...]:
    """Replication ``index``'s horospheres (hyperplanes for ``FLAT``), redrawn from its stream
    in the sampler's order (count, uniforms, directions): the count and log areas of its row."""
    gen = replication_stream(cfg.seed, index)
    n = sample_poisson_count(math.exp(check_feasible(cfg, model)), gen)
    s = model.edge_distance(gen.random(n), cfg.R, cfg.d) - cfg.R
    dirs = _sample_directions(n, cfg.d, gen)
    return tuple(HorosphereParam(float(si), tuple(float(c) for c in di)) for si, di in zip(s, dirs))
