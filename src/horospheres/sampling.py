"""Exact simulation of the horosphere process restricted to a centered ball.

One vectorized sampler, :func:`simulate_batch`, serves both geometric models
and returns a :class:`Batch` of arrays; :func:`sample_points` replays one
replication.  A :class:`Model` gives the log hitting mass, the map from a
uniform to the distance t = R + s from the far edge of the ball, and a fused
kernel that reduces a block of uniforms to the log total area of each
replication in it (:data:`HYPERBOLIC` here, ``FLAT`` in
:mod:`horospheres.euclidean`).  Each replication draws its count and uniforms
from its own counter-based stream keyed by (index, seed); many replications
share a hit block reduced at once, so replication k is the same in every batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import HorosphereParam, LOG_ZERO, check_dimension, check_radius, log_sinh, log_unit_ball_volume

__all__ = [
    "FeasibilityError",
    "Model",
    "HYPERBOLIC",
    "SimConfig",
    "Batch",
    "log_hitting_mass",
    "sample_signed_distance",
    "sample_direction",
    "sample_poisson_count",
    "replication_stream",
    "check_feasible",
    "simulate_batch",
    "sample_points",
]

_LN2 = math.log(2.0)
_SEED_LIMIT = 1 << 64
_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)
_CHUNK = 1 << 20
# hits per vectorized block; the kernels work in place on it and two scratch
# blocks of the same length
_BLOCK = 1 << 15
# rng.random can return exactly 0.0, whose far-edge distance and log area are
# not finite; clamping to half the smallest regular draw keeps u in (0, 1)
_MIN_U = 2.0**-54


class FeasibilityError(RuntimeError):
    """An experiment would exceed the configured count cap."""

    def __init__(self, message: str, log_expected_count: float | None = None, cap: float | None = None):
        super().__init__(message)
        self.log_expected_count = log_expected_count
        self.cap = cap


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo experiment parameters; ``count_cap`` bounds the expected
    hit count per replication."""

    d: int
    R: float
    replications: int
    seed: int
    count_cap: int = 10**8

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        object.__setattr__(self, "R", check_radius(self.R))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "count_cap", int(self.count_cap))
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.count_cap < 1:
            raise ValueError(f"count_cap must be at least 1, got {self.count_cap}")


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


def sample_signed_distance(R, d, U):
    """Inverse-CDF sample of the signed distance on (-R, R).

    The intensity density is e^{-(d-1)s}; the inverse CDF is evaluated in log
    form so it stays finite and monotone in U even for (d-1)R of several
    hundred.  It is the far-edge distance less R, so it keeps only the
    absolute precision of R; U below 2^-54 counts as 2^-54, as in the
    sampler.  Array-compatible in ``U``.
    """
    d = check_dimension(d)
    R = check_radius(R)
    scalar = np.ndim(U) == 0
    u = np.array(U, dtype=float, ndmin=1)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("U must lie strictly inside (0, 1)")
    s = _far_edge(u, np.empty_like(u), np.empty_like(u), R, d) - R
    return float(s[0]) if scalar else s


def _far_edge(u: np.ndarray, v: np.ndarray, x: np.ndarray, R: float, d: int) -> np.ndarray:
    """The inverse CDF in the distance t = R + s from the far edge, in place on uniforms u
    (clamped to [2^-54, 1)) and held below 2R; v receives 1 - u and x is scratch.

    t = -log(1 - u w)/(d-1) with w = 1 - e^{-2(d-1)R}.  Once e^{-2(d-1)R} <= 1/2, log(1 - u w)
    is log1p(-u) + log1p(u e^{-2(d-1)R}/(1 - u)), free of the rounding of u w, so t stays
    accurate as u -> 1 as well as u -> 0.
    """
    a, A = d - 1.0, 2.0 * (d - 1.0) * R
    np.subtract(1.0, np.maximum(u, _MIN_U, out=u), out=v)
    if A < _LN2:
        np.log1p(np.multiply(u, math.expm1(-A), out=u), out=u)
    else:
        np.log1p(np.negative(u, out=x), out=x)
        np.log1p(np.divide(np.multiply(u, math.exp(-A), out=u), v, out=u), out=u)
        u += x
    u /= -a
    return np.minimum(u, math.nextafter(2.0 * R, 0.0), out=u)


def _hyperbolic_hits(R: float, d: int):
    """The fused hit kernel at a valid (R, d): ``hits(u, v, x, starts, lens)`` turns a block of
    uniforms u into the log total area of each segment (v and x are scratch; u is overwritten).

    With t = R + s and r = R - s, the log area is c + (d-1)/2 (log(e^t - 1) + log(1 - e^{-r})).
    t comes from u by :func:`_far_edge` and r from 1 - u, each on its own side, so both stay
    accurate out to the edge they approach.  In the plane the area is rational in u up to one
    square root, e^K sqrt(u (1 - u))/(1 - u w) with K = c + log w, so it is summed linearly.
    """
    a, c = d - 1.0, log_unit_ball_volume(d - 1)
    A = 2.0 * a * R
    if d == 2:
        E, w = math.exp(-A), -math.expm1(-A)
        K = c + math.log(w)

        # 1 - u w = (1 - u) w + E >= max(E, 2^-53 w) and u >= 2^-54, so every scaled area lies
        # in about [2^-27, 2^28] at any admissible R: no hit underflows, and a _CHUNK of them
        # cannot overflow, so the sum needs no per-segment max
        def plane(u, v, x, starts, lens):
            np.subtract(1.0, np.maximum(u, _MIN_U, out=u), out=v)
            u *= v
            np.sqrt(u, out=u)
            u /= np.add(np.multiply(v, w, out=v), E, out=v)
            return np.log(np.add.reduceat(u, starts)) + K

        return plane

    M = math.expm1(A) if A < _LOG_MAX_DOUBLE else math.inf

    def hits(u, v, x, starts, lens):
        t = _far_edge(u, v, x, R, d)
        if M < math.inf:  # r = log1p((1 - u)(e^{2(d-1)R} - 1))/(d-1)
            np.divide(np.log1p(np.multiply(v, M, out=v), out=v), -a, out=v)
        else:
            np.subtract(t, 2.0 * R, out=v)  # -r
        np.log(np.expm1(t, out=t), out=t)
        t += np.log(np.negative(np.expm1(v, out=v), out=v), out=v)
        return _segment_log_sums(np.add(np.multiply(t, 0.5 * a, out=t), c, out=t), starts, lens)

    return hits


def _sample_directions(k: int, d: int, rng) -> np.ndarray:
    v = rng.standard_normal((k, d))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def sample_direction(d, rng) -> np.ndarray:
    """One uniform draw from the unit sphere (normalized Gaussian vector)."""
    d = check_dimension(d)
    return _sample_directions(1, d, rng)[0]


def sample_poisson_count(mean, rng, cap=None) -> int:
    """Poisson variate with the given mean, guarded by an optional cap."""
    if not mean >= 0:
        raise ValueError(f"mean must be nonnegative, got {mean!r}")
    if cap is not None and mean > cap:
        raise FeasibilityError(
            f"expected count {mean:.6g} exceeds the count cap {cap:.6g}",
            log_expected_count=math.log(mean) if mean > 0 else LOG_ZERO,
            cap=float(cap),
        )
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
    them); and ``hits(R, d)``, the fused kernel for a valid (R, d), whose ``hits(u, v, x, starts, lens)``
    returns the log total area of the hits at uniforms u in each segment, ``lens[k]`` of them from
    ``starts[k]``, overwriting u and scratch v and x."""

    log_mass: Callable[[float, int], float]
    edge_distance: Callable[[np.ndarray, float, int], np.ndarray]
    hits: Callable[[float, int], Callable[..., np.ndarray]]


HYPERBOLIC = Model(
    log_mass=log_hitting_mass,
    edge_distance=lambda u, R, d: _far_edge(u, np.empty_like(u), np.empty_like(u), R, d),
    hits=_hyperbolic_hits,
)


def check_feasible(cfg: SimConfig, model: Model = HYPERBOLIC) -> float:
    """log expected hit count per replication; FeasibilityError past the cap."""
    log_mass = model.log_mass(cfg.R, cfg.d)
    if log_mass > math.log(cfg.count_cap):
        expected = f"{math.exp(log_mass):.6g}" if log_mass < _LOG_MAX_DOUBLE else f"exp({log_mass:.6g})"
        raise FeasibilityError(f"expected hitting count {expected} exceeds the count cap {cfg.count_cap:g}; "
                               "use the analytic routines for this regime", log_mass, float(cfg.count_cap))
    return log_mass


def _segment_log_sums(logs: np.ndarray, starts, lens) -> np.ndarray:
    """log of the sum of exp(logs) over each segment, ``lens[k]`` values from ``starts[k]``.
    The logs must be finite; they are overwritten."""
    m = np.maximum.reduceat(logs, starts)
    logs -= np.repeat(m, lens)
    return m + np.log(np.add.reduceat(np.exp(logs, out=logs), starts))


def _replication_streams(seed: int):
    """``stream(index)`` is ``replication_stream(seed, index)``: one reused Philox re-keyed
    to [index, seed] with counter 0 and an empty buffer, cheaper than a new one."""
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    key = np.array([0, seed], dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(index: int):
        key[0] = index
        bits.state = state
        return gen

    return stream


def _simulate(cfg: SimConfig, model: Model, indices: range) -> Batch:
    """The shared sampler: replications ``indices`` of ``model``, in order.

    Uniforms fill a hit block, which the model's kernel reduces to one log
    total per replication when full.  A replication never straddles two blocks,
    and one larger than a block is reduced alone in ``_CHUNK``-sized pieces:
    memory stays bounded and each result depends on its own stream only."""
    if indices and not 0 <= indices[0] <= indices[-1] < _SEED_LIMIT:
        raise ValueError("replication index must be a 64-bit unsigned integer")
    mean = math.exp(check_feasible(cfg, model))
    hits = model.hits(cfg.R, cfg.d)
    stream = _replication_streams(cfg.seed)
    counts, log_totals = [], np.full(len(indices), LOG_ZERO)
    block, v, x = np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK)
    rows, starts, lens, pos = [], [], [], 0
    for row, index in enumerate(indices):
        gen = stream(index)
        n = sample_poisson_count(mean, gen)
        counts.append(n)
        if n > _BLOCK:
            for done in range(0, n, _CHUNK):
                u = gen.random(min(_CHUNK, n - done))
                chunk = hits(u, np.empty_like(u), np.empty_like(u), [0], [u.size])
                log_totals[row] = np.logaddexp(log_totals[row], chunk[0])
        elif n > 0:
            if pos + n > _BLOCK:
                log_totals[rows] = hits(block[:pos], v[:pos], x[:pos], starts, lens)
                rows, starts, lens, pos = [], [], [], 0
            gen.random(n, out=block[pos:pos + n])
            rows.append(row)
            starts.append(pos)
            lens.append(n)
            pos += n
    if rows:
        log_totals[rows] = hits(block[:pos], v[:pos], x[:pos], starts, lens)
    # math.exp, not np.exp: the two can differ in the last bit
    totals = [math.exp(lt) if lt < _LOG_MAX_DOUBLE else math.inf for lt in log_totals.tolist()]
    return Batch(np.array(counts, dtype=np.int64), np.array(totals, dtype=float), log_totals)


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
