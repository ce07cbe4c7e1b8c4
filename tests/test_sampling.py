import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horospheres import euclidean, sampling
from horospheres.geometry import log_chord_area
from horospheres.sampling import (
    HYPERBOLIC,
    FeasibilityError,
    SimConfig,
    log_hitting_mass,
    replication_stream,
    sample_points,
    sample_poisson_count,
    simulate_batch,
)

_MODELS = {"hyperbolic": HYPERBOLIC, "euclidean": euclidean.FLAT}


def _single(cfg, index, model=HYPERBOLIC):
    return sampling._simulate(cfg, model, range(index, index + 1))


def _singles(cfg, model=HYPERBOLIC):
    """Every replication of ``cfg`` sampled on its own, as one batch."""
    return _concat([_single(cfg, i, model) for i in range(cfg.replications)])


def _concat(batches):
    return sampling.Batch(*(np.concatenate(field) for field in zip(*batches)))


def _bits(batch):
    return batch.counts, batch.log_totals, batch.totals


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(_bits(a), _bits(b)))


def _hitting_mass(R, d):
    return math.exp(log_hitting_mass(R, d))


def _signed_distance(R, d, u):
    """The sampler's inverse CDF as a signed distance s on (-R, R); the edge map overwrites
    its input, so it gets a copy."""
    return HYPERBOLIC.edge_distance(np.array(u, dtype=float, ndmin=1), R, d) - R


def _direction(d, rng):
    return sampling._sample_directions(1, d, rng)[0]


def test_hitting_mass_closed_form():
    # 2 sinh((d-1) R)/(d-1)
    assert _hitting_mass(1.0, 2) == pytest.approx(2.0 * math.sinh(1.0), rel=1e-13)
    assert _hitting_mass(3.0, 2) == pytest.approx(2.0 * math.sinh(3.0), rel=1e-13)
    assert _hitting_mass(3.0, 3) == pytest.approx(math.sinh(6.0), rel=1e-13)
    assert _hitting_mass(2.0, 5) == pytest.approx(0.5 * math.sinh(8.0), rel=1e-13)


def test_log_hitting_mass_extreme_parameters():
    # (d-1) R = 9900: far past double overflow, log form must stay exact
    got = log_hitting_mass(100.0, 100)
    want = 9900.0 - math.log(99.0)  # log(2 sinh x / 99) ~ x - log 99 - log 1
    assert got == pytest.approx(want, rel=1e-15)


def test_signed_distance_endpoints_and_monotonicity():
    R, d = 2.0, 3
    us = np.linspace(1e-9, 1.0 - 1e-9, 1001)
    ss = _signed_distance(R, d, us)
    assert np.all(np.diff(ss) > 0)
    assert ss[0] == pytest.approx(-R, abs=1e-7)
    # the density decays like e^{-(d-1)s}, so the CDF is nearly flat at +R
    # and U = 1 - 1e-9 sits a few 1e-6 short of the endpoint
    assert ss[-1] == pytest.approx(R, abs=1e-4)
    assert np.all(ss > -R)
    assert np.all(ss < R)


def test_signed_distance_median():
    # F(s) = (e^{a R} - e^{-a s})/(e^{a R} - e^{-a R}); invert at U = 1/2
    R, d = 1.5, 4
    a = d - 1.0
    s_half = float(_signed_distance(R, d, 0.5)[0])
    num = math.exp(a * R) - math.exp(-a * s_half)
    den = math.exp(a * R) - math.exp(-a * R)
    assert num / den == pytest.approx(0.5, abs=1e-13)


def test_signed_distance_extreme_rate_no_overflow():
    # a R = 495: linear-domain weights overflow, the log form cannot
    ss = _signed_distance(5.0, 100, [1e-12, 0.5, 1.0 - 1e-12])
    assert np.all(np.isfinite(ss))
    assert np.all((ss > -5.0) & (ss < 5.0))


def test_signed_distance_distribution_kolmogorov():
    # inverse-CDF draws against the analytic distribution function
    R, d = 2.0, 2
    a = d - 1.0
    rng = replication_stream(12345, 0)
    n = 100_000
    u = rng.random(n)
    u = np.maximum(u, 2.0**-54)
    s = np.sort(_signed_distance(R, d, u))
    den = math.exp(a * R) - math.exp(-a * R)
    cdf = (math.exp(a * R) - np.exp(-a * s)) / den
    i = np.arange(1, n + 1)
    d_kol = np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n))
    assert d_kol < 1.95 / math.sqrt(n)


def test_direction_is_unit_norm():
    rng = replication_stream(7, 3)
    for d in (2, 3, 10):
        u = _direction(d, rng)
        assert u.shape == (d,)
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)


def test_direction_mean_near_zero():
    rng = replication_stream(11, 0)
    draws = np.array([_direction(3, rng) for _ in range(4000)])
    assert np.max(np.abs(draws.mean(axis=0))) < 4.0 / math.sqrt(4000)


def test_poisson_count_moments():
    rng = replication_stream(5, 9)
    mean = 40.0
    draws = np.array([sample_poisson_count(mean, rng) for _ in range(20000)])
    assert draws.mean() == pytest.approx(mean, abs=4.0 * math.sqrt(mean / 20000))
    assert draws.var() == pytest.approx(mean, rel=0.05)


def test_replication_stream_reproducible_and_distinct():
    a = replication_stream(42, 0).random(8)
    b = replication_stream(42, 0).random(8)
    c = replication_stream(42, 1).random(8)
    e = replication_stream(43, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, e)


def test_sim_config_validation():
    assert [field.name for field in dataclasses.fields(SimConfig)] == ["d", "R", "replications", "seed"]
    with pytest.raises(ValueError):
        SimConfig(d=2, R=0.0, replications=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(d=2, R=1.0, replications=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(d=1, R=1.0, replications=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(d=2, R=1.0, replications=1, seed=-1)


def test_simulate_total_area_deterministic():
    cfg = SimConfig(d=3, R=2.0, replications=1, seed=99)
    assert _same(_single(cfg, 0), _single(cfg, 0))


def test_recording_points_never_changes_totals():
    # sample_points replays a replication: its count and, through the
    # model's log area, its log total
    for model, log_area in ((HYPERBOLIC, log_chord_area), (euclidean.FLAT, euclidean.log_section_area)):
        cfg = SimConfig(d=3, R=2.0, replications=6, seed=4)
        batch = simulate_batch(cfg, model)
        for index in range(6):
            points = sample_points(cfg, index, model)
            assert len(points) == batch.counts[index]
            logs = log_area(np.array([p.s for p in points]), cfg.R, cfg.d)
            want = float(np.logaddexp.reduce(logs)) if points else -math.inf
            assert want == pytest.approx(batch.log_totals[index], rel=0.0, abs=1e-13)
        assert sum(batch.counts) > 0


def test_recorded_points_lie_in_window():
    cfg = SimConfig(d=2, R=1.5, replications=1, seed=21)
    for p in sample_points(cfg, 0):
        assert -cfg.R < p.s < cfg.R
        assert np.linalg.norm(p.u) == pytest.approx(1.0, rel=1e-12)


def test_empty_realization():
    # mass 2 sinh(0.01) ~ 0.02, so a zero count is the typical outcome
    cfg = SimConfig(d=2, R=0.01, replications=20, seed=0)
    batch = simulate_batch(cfg)
    empty = batch.counts == 0
    assert empty.any()
    assert np.all(batch.totals[empty] == 0.0)
    assert np.all(batch.log_totals[empty] == -math.inf)


def test_log_total_consistent_with_total():
    cfg = SimConfig(d=3, R=3.0, replications=1, seed=8)
    batch = simulate_batch(cfg)
    assert batch.totals[0] == pytest.approx(math.exp(batch.log_totals[0]), rel=1e-12)


def test_batch_matches_single_replications():
    cfg = SimConfig(d=2, R=2.0, replications=5, seed=77)
    assert _same(simulate_batch(cfg), _singles(cfg))


def _larger_batch_prefix(model, cfg):
    larger = simulate_batch(dataclasses.replace(cfg, replications=cfg.replications + 7), model)
    return sampling.Batch(*(field[:cfg.replications] for field in larger))


def _split_batch(model, cfg):
    # the same replications as two batches: the second packs its hit blocks
    # from a different starting replication
    k = cfg.replications // 2 + 1
    return _concat([sampling._simulate(cfg, model, range(k)),
                    sampling._simulate(cfg, model, range(k, cfg.replications))])


@pytest.mark.parametrize("model", ["hyperbolic", "euclidean"])
def test_batch_is_the_prefix_of_a_larger_batch(model):
    model = _MODELS[model]
    cfg = SimConfig(d=3, R=2.5, replications=12, seed=31)
    batch = simulate_batch(cfg, model)
    assert _same(batch, _larger_batch_prefix(model, cfg))
    assert _same(batch, _split_batch(model, cfg))


def test_batch_fields_are_arrays():
    # zero-hit rows, and flat-model rows on both sides of the largest double
    log_max = math.log(np.finfo(float).max)
    for cfg, model in ((SimConfig(d=2, R=0.01, replications=30, seed=0), HYPERBOLIC),
                       (SimConfig(d=388, R=30.0, replications=40, seed=3), euclidean.FLAT)):
        batch = simulate_batch(cfg, model)
        for field, dtype in zip(batch, (np.int64, np.float64, np.float64)):
            assert isinstance(field, np.ndarray) and field.dtype == dtype
            assert field.shape == (cfg.replications,)
        huge = batch.log_totals >= log_max
        assert np.array_equal(np.isinf(batch.totals), huge)
        assert np.all(batch.totals[huge] == math.inf)
        assert np.all(batch.totals[~huge] == [math.exp(lt) for lt in batch.log_totals[~huge]])
    assert 0 < huge.sum() < cfg.replications


def test_feasibility_error_carries_diagnostics():
    cfg = SimConfig(d=20, R=10.0, replications=1, seed=0)
    with pytest.raises(FeasibilityError) as excinfo:
        simulate_batch(cfg)
    err = excinfo.value
    assert err.log_expected_count > math.log(1e8)
    assert err.cap == 1e8
    assert "cap" in str(err)
    assert "count" in str(err)


def test_feasibility_precedes_sampling_in_batch():
    cfg = SimConfig(d=20, R=10.0, replications=4, seed=0)
    with pytest.raises(FeasibilityError):
        simulate_batch(cfg)


def test_monte_carlo_count_mean():
    # mean count must track the hitting mass
    cfg = SimConfig(d=3, R=2.0, replications=400, seed=2024)
    counts = simulate_batch(cfg).counts
    mass = _hitting_mass(cfg.R, cfg.d)
    assert counts.mean() == pytest.approx(mass, abs=4.0 * math.sqrt(mass / 400))


@pytest.mark.parametrize("seed", [0, 20260821, 2**63, 2**64 - 1])
def test_rekeyed_stream_matches_fresh_stream(seed):
    # one reused generator, re-keyed per replication, must replay the exact
    # draws of a freshly built replication_stream, also after earlier draws
    stream = sampling._replication_streams(seed)
    for index in (0, 1, 2**63 + 5, 0, 2**64 - 1):
        for mean in (3.25, 2981.0):
            fresh = replication_stream(seed, index)
            reused = stream(index)
            assert reused.poisson(mean) == fresh.poisson(mean)
            assert np.array_equal(reused.random(37), fresh.random(37))
        # leave a pending 32-bit half (has_uint32 = 1) and a half-used buffer:
        # a re-key must reset the whole state, not just the key and counter
        stale = stream(index)
        stale.integers(2**32, size=5, dtype=np.uint32)
        stale.random(3)
        assert stale.bit_generator.state["has_uint32"] == 1
        assert stale.bit_generator.state["buffer_pos"] not in (0, 4)
        reused = stream(index)
        fresh = replication_stream(seed, index)
        got, want = reused.bit_generator.state, fresh.bit_generator.state
        assert got.keys() == want.keys()
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == want[field], field
        assert np.array_equal(got["buffer"], want["buffer"])
        for field in ("counter", "key"):
            assert np.array_equal(got["state"][field], want["state"][field]), field
        assert reused.poisson(3.25) == fresh.poisson(3.25)
        assert np.array_equal(reused.random(37), fresh.random(37))


# (d, R) per model with a mean count near 9.9, just below numpy's switch to PTRS at 10:
# the sparse draw's counts reach 12 and more and so need several Philox rounds
_NEAR_PTRS = {"hyperbolic": (2, 2.3), "euclidean": (3, 4.95)}
# (d, R) per model with a mean count of 10.5, just past the switch: the loop that packs
# replications into hit blocks and streams a larger one in _CHUNK pieces
_PAST_PTRS = {"hyperbolic": (2, math.asinh(5.25)), "euclidean": (3, 5.25)}
# (d, R, replications) per model: zero-hit replications (R = 0.01), sparse
# replications near numpy's PTRS switch, several replications per hit block,
# and replications larger than one block
_BLOCK_CASES = {
    "hyperbolic": [(2, 0.01, 200), (*_NEAR_PTRS["hyperbolic"], 40), (2, 8.0, 12), (2, 9.2, 3)],
    "euclidean": [(2, 0.01, 200), (*_NEAR_PTRS["euclidean"], 40), (3, 1500.0, 12), (3, 4500.0, 3)],
}


def _larger_than_a_block(model):
    """(d, R, replications) whose mean count is 1.2 blocks, whatever the block size."""
    if model == "euclidean":
        return 3, 0.6 * sampling._BLOCK, 3  # hit mass 2R
    d = 2  # hit mass 2 sinh((d-1)R)/(d-1)
    return d, math.asinh(0.6 * (d - 1) * sampling._BLOCK) / (d - 1), 3


@pytest.mark.parametrize("model", sorted(_BLOCK_CASES))
def test_batch_singles_and_prefix_bit_identical_across_blocks(model):
    cases, model = _BLOCK_CASES[model] + [_larger_than_a_block(model)], _MODELS[model]
    counts = []
    for d, R, n in cases:
        cfg = SimConfig(d=d, R=R, replications=n, seed=5)
        batch = simulate_batch(cfg, model)
        assert _same(batch, _singles(cfg, model))
        assert _same(batch, _larger_batch_prefix(model, cfg))
        assert _same(batch, _split_batch(model, cfg))
        counts += batch.counts.tolist()
    assert 0 in counts
    assert max(counts) > sampling._BLOCK


def _small_blocks(model, cfg, monkeypatch):
    """The counts of ``cfg``, checked under a block of 8 hits and a chunk of 4 against the
    default sizes and for determinism."""
    want = simulate_batch(cfg, model)
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_BLOCK", 8)
        patch.setattr(sampling, "_CHUNK", 4)
        got = simulate_batch(cfg, model)
        assert np.array_equal(got.counts, want.counts)
        # chunked reduction only reorders the sum of a large replication
        assert np.allclose(got.log_totals, want.log_totals, rtol=0.0, atol=1e-13)
        assert _same(got, _larger_batch_prefix(model, cfg))
        assert _same(got, _split_batch(model, cfg))
        assert _same(got, _singles(cfg, model))
    return got.counts


@pytest.mark.parametrize("model", sorted(_BLOCK_CASES))
def test_small_blocks_and_chunks_keep_counts_and_determinism(model, monkeypatch):
    # a tiny block and chunk put zero-hit replications, replications filling
    # a block to its boundary and multi-chunk replications into one batch
    (d, R), dense = _NEAR_PTRS[model], _PAST_PTRS[model]
    model = _MODELS[model]
    counts = _small_blocks(model, SimConfig(d=2, R=1.5, replications=300, seed=11), monkeypatch)
    assert 0 in counts and max(counts) > 8
    # near numpy's PTRS switch a count of 12 or more is still open after the first three
    # Philox blocks, and a block of 8 hits makes every replication a sparse chunk of its own
    counts = _small_blocks(model, SimConfig(d=d, R=R, replications=60, seed=12), monkeypatch)
    assert max(counts) >= 12
    # past it, replications of 1 to 8 hits share blocks of 8 and larger ones stream in
    # pieces of 4, the last of them shorter unless the count is a multiple of 4
    counts = _small_blocks(model, SimConfig(*dense, replications=60, seed=13), monkeypatch)
    packed, streamed = counts[(counts > 0) & (counts <= 8)], counts[counts > 8]
    assert packed.size >= 10 and streamed.size >= 10
    assert np.any(streamed % 4)


@pytest.mark.parametrize("model", sorted(_BLOCK_CASES))
def test_batch_matches_per_replication_reference(model):
    # the definition, one replication at a time: count, then uniforms, from
    # the replication's own stream, and a plain log-sum-exp of the hit areas;
    # d = 2 takes the plane kernel's linear block sum
    flat = model == "euclidean"
    for d in (3, 2):
        cfg = SimConfig(d=d, R=1.5, replications=200, seed=2**63 + 9)
        mass = 3.0 if flat else _hitting_mass(1.5, d)
        got = simulate_batch(cfg, _MODELS[model])
        for index, (count, log_total) in enumerate(zip(got.counts, got.log_totals)):
            rng = replication_stream(cfg.seed, index)
            n = rng.poisson(mass)
            u = rng.random(n)
            if flat:
                logs = euclidean.log_section_area((2.0 * u - 1.0) * cfg.R, cfg.R, cfg.d)
            else:
                s = _signed_distance(cfg.R, cfg.d, u)
                logs = log_chord_area(s, cfg.R, cfg.d)
            assert count == n
            want = float(np.logaddexp.reduce(logs)) if n else -math.inf
            assert log_total == pytest.approx(want, rel=0.0, abs=1e-13)


_U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=60)
@given(seed=_U64, index=_U64, blocks=st.lists(st.integers(1, 40), min_size=1, max_size=6))
@example(seed=0, index=0, blocks=[1])
@example(seed=2**63, index=2**64 - 1, blocks=[1, 2, 37])
@example(seed=2**64 - 1, index=2**63, blocks=[3, 1])
def test_vectorized_philox_matches_the_replication_stream(seed, index, blocks):
    # block b of a replication is a pure function of the counter b and the key (index, seed);
    # the next index wraps past 2^64 - 1 to 0
    keys = [index] * len(blocks) + [(index + 1) % 2**64] * len(blocks)
    got = sampling._philox_doubles(np.array(blocks * 2), np.array(keys, dtype=np.uint64), seed)
    for row, (b, key) in enumerate(zip(blocks * 2, keys)):
        assert np.array_equal(got[row], replication_stream(seed, key).random(4 * b)[4 * b - 4:])


@settings(max_examples=60)
@given(mean=st.floats(0.0, 10.0, exclude_min=True, exclude_max=True), seed=_U64, first=st.integers(0, 2**64 - 40))
@example(mean=math.nextafter(10.0, 0.0), seed=2**64 - 1, first=2**64 - 40)
@example(mean=9.9, seed=2**63, first=0)
@example(mean=5e-324, seed=0, first=2**63)  # subnormal: every count is 0
@example(mean=2e-300, seed=7, first=0)
def test_sparse_draws_match_numpy_poisson_and_uniforms(mean, seed, first):
    # counts by numpy's multiplication method, then each replication's uniforms, bit for bit
    keys = np.arange(first, first + 40, dtype=np.uint64)
    counts, u = sampling._sparse_draws(mean, keys, seed)
    assert np.array_equal(keys, np.arange(first, first + 40, dtype=np.uint64))  # left as it was
    for key, n, draws in zip(keys.tolist(), counts.tolist(), np.split(u, np.cumsum(counts)[:-1])):
        gen = replication_stream(seed, key)
        assert n == gen.poisson(mean)
        assert np.array_equal(draws, gen.random(n))


def test_means_from_numpy_ptrs_switch_take_the_generator_loop(monkeypatch):
    # FLAT's mass is 2R = 10 at R = 5; math.exp is pinned there to give the mean exactly
    cfg = SimConfig(d=3, R=5.0, replications=30, seed=3)
    log_mean, real_exp, real_draws = euclidean.FLAT.log_mass(cfg.R, cfg.d), math.exp, sampling._sparse_draws
    counts = {}
    for mean, sparse in ((10.0, False), (math.nextafter(10.0, 0.0), True)):
        calls = []
        monkeypatch.setattr(math, "exp", lambda x, mean=mean: mean if x == log_mean else real_exp(x))
        monkeypatch.setattr(sampling, "_sparse_draws", lambda *args: calls.append(args) or real_draws(*args))
        counts[mean] = simulate_batch(cfg, euclidean.FLAT).counts
        assert bool(calls) == sparse
        assert counts[mean].tolist() == [replication_stream(cfg.seed, k).poisson(mean) for k in range(30)]
    # at 10 numpy draws by PTRS, which the multiplication method does not reproduce
    keys = np.arange(30, dtype=np.uint64)
    assert not np.array_equal(real_draws(10.0, keys, cfg.seed)[0], counts[10.0])


def test_sparse_counts_where_a_running_product_is_the_limit():
    # means whose e^-mean is exactly one of a stream's running products, at position 4 or
    # later, so past the first Philox round: numpy's count stops there (it counts products
    # strictly above e^-mean), which the sparse draw matches only by multiplying in numpy's order
    seed, hits = 9, 0
    for key in range(40):
        product = 1.0
        for position, u in enumerate(replication_stream(seed, key).random(16)):
            product *= u
            mean = -math.log(product)
            for _ in range(8):  # step mean by ulps until exp(-mean) is the product, if it can be
                if math.exp(-mean) == product:
                    break
                mean = math.nextafter(mean, math.inf if math.exp(-mean) > product else 0.0)
            if position >= 4 and math.exp(-mean) == product and mean < 10.0:
                counts, _ = sampling._sparse_draws(mean, np.array([key], dtype=np.uint64), seed)
                assert counts[0] == position == replication_stream(seed, key).poisson(mean)
                hits += 1
    assert hits >= 20
