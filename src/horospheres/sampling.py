"""Exact simulation of the horosphere process restricted to a centered ball.

One vectorized sampler, :func:`simulate_batch`, serves both geometric models
and returns a :class:`Batch` of arrays; :func:`sample_points` replays one
replication.  A :class:`Model` gives the log hitting mass, the uniform-to-
distance map and the log area per hit (:data:`HYPERBOLIC` here, ``FLAT`` in
:mod:`horospheres.euclidean`).  Each replication draws its count and uniforms
from its own counter-based stream keyed by (index, seed); many replications
share a hit block reduced by one segmented log-sum-exp, so replication k is
the same in every batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import HorosphereParam, LOG_ZERO, check_dimension, check_radius, log_chord_area, log_sinh

__all__ = [
    "FeasibilityError",
    "MassOverflowError",
    "Model",
    "HYPERBOLIC",
    "SimConfig",
    "Batch",
    "hitting_mass",
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
# hits per vectorized block: per-hit ufunc cost rises once a block's
# temporaries no longer fit in cache
_BLOCK = 1 << 13
# rng.random can return exactly 0.0, which the strict inverse CDF rejects;
# clamping to half the smallest regular draw keeps every uniform in (0, 1)
_MIN_U = 2.0**-54


class FeasibilityError(RuntimeError):
    """An experiment would exceed the configured count cap."""

    def __init__(self, message: str, log_expected_count: float | None = None, cap: float | None = None):
        super().__init__(message)
        self.log_expected_count = log_expected_count
        self.cap = cap


class MassOverflowError(OverflowError):
    """The expected hitting count overflows double precision; carries its log."""

    def __init__(self, message: str, log_mass: float):
        super().__init__(message)
        self.log_mass = log_mass


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


def hitting_mass(R, d) -> float:
    """Expected number of horospheres meeting the ball: 2 sinh((d-1)R)/(d-1)."""
    lm = log_hitting_mass(R, d)
    if lm >= _LOG_MAX_DOUBLE:
        raise MassOverflowError(
            f"expected hitting count overflows double precision (log mass {lm:.6g})",
            log_mass=lm,
        )
    return math.exp(lm)


def sample_signed_distance(R, d, U):
    """Inverse-CDF sample of the signed distance on (-R, R).

    The intensity density is e^{-(d-1)s}; the inverse CDF is evaluated in log
    form so it stays finite and strictly monotone in U even for (d-1)R of
    several hundred.  Array-compatible in ``U``.
    """
    d = check_dimension(d)
    R = check_radius(R)
    arr = np.asarray(U, dtype=float)
    scalar = arr.ndim == 0
    uv = np.atleast_1d(arr)
    if np.any((uv <= 0.0) | (uv >= 1.0)):
        raise ValueError("U must lie strictly inside (0, 1)")
    a = d - 1.0
    w = -np.expm1(-2.0 * a * R)
    out = -R - np.log1p(-uv * w) / a
    return float(out[0]) if scalar else out.reshape(arr.shape)


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
    """A geometric model as the sampler sees it, each callable taking (R, d) last: log expected hit
    count; uniforms in [0, 1) to signed distances (may overwrite them); distances to log areas."""

    log_mass: Callable[[float, int], float]
    distance: Callable[[np.ndarray, float, int], np.ndarray]
    log_area: Callable[[np.ndarray, float, int], np.ndarray]


# the lambdas look functions up per call, so a rebound module name (tracing) still applies
HYPERBOLIC = Model(
    log_mass=log_hitting_mass,
    distance=lambda u, R, d: sample_signed_distance(R, d, np.maximum(u, _MIN_U, out=u)),
    log_area=lambda s, R, d: log_chord_area(s, R, d),
)


def check_feasible(cfg: SimConfig, model: Model = HYPERBOLIC) -> float:
    """log expected hit count per replication; FeasibilityError past the cap."""
    log_mass = model.log_mass(cfg.R, cfg.d)
    if log_mass > math.log(cfg.count_cap):
        expected = f"{math.exp(log_mass):.6g}" if log_mass < _LOG_MAX_DOUBLE else f"exp({log_mass:.6g})"
        raise FeasibilityError(f"expected hitting count {expected} exceeds the count cap {cfg.count_cap:g}; "
                               "use the analytic routines for this regime", log_mass, float(cfg.count_cap))
    return log_mass


def _segment_log_sums(logs: np.ndarray, starts) -> np.ndarray:
    """log of the sum of exp(logs) over each segment beginning at ``starts``."""
    m = np.maximum.reduceat(logs, starts)
    # a segment whose hits all have zero area keeps its -inf total
    shift = np.where(m > LOG_ZERO, m, 0.0)
    sums = np.add.reduceat(np.exp(logs - np.repeat(shift, np.diff(starts, append=logs.size))), starts)
    return shift + np.log(sums, out=np.full_like(sums, LOG_ZERO), where=sums > 0.0)


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

    Uniforms fill a hit block, transformed and reduced at once when full.  A
    replication never straddles two blocks, and one larger than a block is
    reduced alone in ``_CHUNK``-sized pieces: memory stays bounded and each
    result depends on its own stream only."""
    if indices and not 0 <= indices[0] <= indices[-1] < _SEED_LIMIT:
        raise ValueError("replication index must be a 64-bit unsigned integer")
    R, d = cfg.R, cfg.d
    mean = math.exp(check_feasible(cfg, model))
    stream = _replication_streams(cfg.seed)
    counts, log_totals = [], np.full(len(indices), LOG_ZERO)
    block = np.empty(_BLOCK)
    rows, starts, pos = [], [], 0

    def add_hits(u, at_rows, at_starts):
        logs = model.log_area(model.distance(u, R, d), R, d)
        log_totals[at_rows] = np.logaddexp(log_totals[at_rows], _segment_log_sums(logs, at_starts))

    for row, index in enumerate(indices):
        gen = stream(index)
        n = sample_poisson_count(mean, gen)
        counts.append(n)
        if n > _BLOCK:
            for done in range(0, n, _CHUNK):
                add_hits(gen.random(min(_CHUNK, n - done)), [row], [0])
        elif n > 0:
            if pos + n > _BLOCK:
                add_hits(block[:pos], rows, starts)
                rows, starts, pos = [], [], 0
            gen.random(n, out=block[pos:pos + n])
            rows.append(row)
            starts.append(pos)
            pos += n
    if rows:
        add_hits(block[:pos], rows, starts)
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
    s = model.distance(gen.random(n), cfg.R, cfg.d)
    dirs = _sample_directions(n, cfg.d, gen)
    return tuple(HorosphereParam(float(si), tuple(float(c) for c in di)) for si, di in zip(s, dirs))
