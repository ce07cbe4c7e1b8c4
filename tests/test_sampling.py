import dataclasses
import math

import numpy as np
import pytest

from horospheres import euclidean, sampling
from horospheres.geometry import log_chord_area
from horospheres.sampling import (
    FeasibilityError,
    MassOverflowError,
    Realization,
    SimConfig,
    hitting_mass,
    log_hitting_mass,
    replication_stream,
    sample_direction,
    sample_poisson_count,
    sample_signed_distance,
    simulate_batch,
    simulate_total_area,
)


def test_hitting_mass_closed_form():
    # 2 sinh((d-1) R)/(d-1)
    assert hitting_mass(1.0, 2) == pytest.approx(2.0 * math.sinh(1.0), rel=1e-13)
    assert hitting_mass(3.0, 2) == pytest.approx(2.0 * math.sinh(3.0), rel=1e-13)
    assert hitting_mass(3.0, 3) == pytest.approx(math.sinh(6.0), rel=1e-13)
    assert hitting_mass(2.0, 5) == pytest.approx(0.5 * math.sinh(8.0), rel=1e-13)


def test_log_hitting_mass_extreme_parameters():
    # (d-1) R = 9900: far past double overflow, log form must stay exact
    got = log_hitting_mass(100.0, 100)
    want = 9900.0 - math.log(99.0)  # log(2 sinh x / 99) ~ x - log 99 - log 1
    assert got == pytest.approx(want, rel=1e-15)


def test_hitting_mass_overflow_error():
    with pytest.raises(MassOverflowError) as excinfo:
        hitting_mass(100.0, 100)
    assert excinfo.value.log_mass > 700.0


def test_signed_distance_endpoints_and_monotonicity():
    R, d = 2.0, 3
    us = np.linspace(1e-9, 1.0 - 1e-9, 1001)
    ss = sample_signed_distance(R, d, us)
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
    s_half = float(sample_signed_distance(R, d, 0.5))
    num = math.exp(a * R) - math.exp(-a * s_half)
    den = math.exp(a * R) - math.exp(-a * R)
    assert num / den == pytest.approx(0.5, abs=1e-13)


def test_signed_distance_rejects_boundary_uniforms():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            sample_signed_distance(1.0, 2, bad)


def test_signed_distance_extreme_rate_no_overflow():
    # a R = 495: linear-domain weights overflow, the log form cannot
    ss = sample_signed_distance(5.0, 100, np.array([1e-12, 0.5, 1.0 - 1e-12]))
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
    s = np.sort(sample_signed_distance(R, d, u))
    den = math.exp(a * R) - math.exp(-a * R)
    cdf = (math.exp(a * R) - np.exp(-a * s)) / den
    i = np.arange(1, n + 1)
    d_kol = np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n))
    assert d_kol < 1.95 / math.sqrt(n)


def test_direction_is_unit_norm():
    rng = replication_stream(7, 3)
    for d in (2, 3, 10):
        u = sample_direction(d, rng)
        assert u.shape == (d,)
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)


def test_direction_mean_near_zero():
    rng = replication_stream(11, 0)
    draws = np.array([sample_direction(3, rng) for _ in range(4000)])
    assert np.max(np.abs(draws.mean(axis=0))) < 4.0 / math.sqrt(4000)


def test_poisson_count_moments():
    rng = replication_stream(5, 9)
    mean = 40.0
    draws = np.array([sample_poisson_count(mean, rng) for _ in range(20000)])
    assert draws.mean() == pytest.approx(mean, abs=4.0 * math.sqrt(mean / 20000))
    assert draws.var() == pytest.approx(mean, rel=0.05)


def test_poisson_count_cap():
    rng = replication_stream(5, 9)
    with pytest.raises(FeasibilityError) as excinfo:
        sample_poisson_count(1e12, rng, cap=1e8)
    assert excinfo.value.cap == 1e8


def test_replication_stream_reproducible_and_distinct():
    a = replication_stream(42, 0).random(8)
    b = replication_stream(42, 0).random(8)
    c = replication_stream(42, 1).random(8)
    e = replication_stream(43, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, e)


def test_sim_config_validation():
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
    r1 = simulate_total_area(cfg, 0)
    r2 = simulate_total_area(cfg, 0)
    assert r1.total_area == r2.total_area
    assert r1.count == r2.count


def test_recording_points_never_changes_totals():
    bare = SimConfig(d=3, R=2.0, replications=1, seed=4)
    recorded = SimConfig(d=3, R=2.0, replications=1, seed=4, record_points=True)
    for index in range(6):
        a = simulate_total_area(bare, index)
        b = simulate_total_area(recorded, index)
        assert a.count == b.count
        assert b.points is not None and len(b.points) == b.count
        assert a.total_area == b.total_area
        assert a.log_total_area == b.log_total_area


def test_recorded_points_lie_in_window():
    cfg = SimConfig(d=2, R=1.5, replications=1, seed=21, record_points=True)
    r = simulate_total_area(cfg, 0)
    for p in r.points:
        assert -cfg.R < p.s < cfg.R
        assert np.linalg.norm(p.u) == pytest.approx(1.0, rel=1e-12)


def test_empty_realization():
    # mass 2 sinh(0.01) ~ 0.02, so a zero count is the typical outcome
    cfg = SimConfig(d=2, R=0.01, replications=1, seed=0)
    results = [simulate_total_area(cfg, i) for i in range(20)]
    empty = [r for r in results if r.count == 0]
    assert empty
    for r in empty:
        assert r.total_area == 0.0
        assert r.log_total_area == float("-inf")


def test_log_total_consistent_with_total():
    cfg = SimConfig(d=3, R=3.0, replications=1, seed=8)
    r = simulate_total_area(cfg, 0)
    assert r.total_area == pytest.approx(math.exp(r.log_total_area), rel=1e-12)


def test_batch_matches_single_replications():
    cfg = SimConfig(d=2, R=2.0, replications=5, seed=77)
    batch = simulate_batch(cfg)
    singles = [simulate_total_area(cfg, i) for i in range(5)]
    assert [r.total_area for r in batch] == [r.total_area for r in singles]
    assert [r.count for r in batch] == [r.count for r in singles]


def _bits(results):
    return [(r.count, r.log_total_area, r.total_area) for r in results]


def _larger_batch_prefix(module, cfg):
    larger = dataclasses.replace(cfg, replications=cfg.replications + 7)
    return _bits(module.simulate_batch(larger))[:cfg.replications]


def _split_batch(module, cfg):
    # the same replications as two batches: the second packs its hit blocks
    # from a different starting replication
    model = euclidean.FLAT if module is euclidean else sampling.HYPERBOLIC
    k = cfg.replications // 2 + 1
    head = sampling._simulate(cfg, model, range(k))
    return _bits(head + sampling._simulate(cfg, model, range(k, cfg.replications)))


@pytest.mark.parametrize("model", ["hyperbolic", "euclidean"])
def test_batch_is_the_prefix_of_a_larger_batch(model):
    module = euclidean if model == "euclidean" else sampling
    cfg = SimConfig(d=3, R=2.5, replications=12, seed=31)
    batch = _bits(module.simulate_batch(cfg))
    assert batch == _larger_batch_prefix(module, cfg)
    assert batch == _split_batch(module, cfg)


def test_feasibility_error_carries_diagnostics():
    cfg = SimConfig(d=20, R=10.0, replications=1, seed=0)
    with pytest.raises(FeasibilityError) as excinfo:
        simulate_total_area(cfg, 0)
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
    results = simulate_batch(cfg)
    counts = np.array([r.count for r in results])
    mass = hitting_mass(cfg.R, cfg.d)
    assert counts.mean() == pytest.approx(mass, abs=4.0 * math.sqrt(mass / 400))


def test_realization_is_frozen():
    r = Realization(total_area=1.0, log_total_area=0.0, count=1)
    with pytest.raises(Exception):
        r.count = 2


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


# (d, R, replications) per model: zero-hit replications (R = 0.01), several
# replications per hit block, and replications larger than one block
_BLOCK_CASES = {
    "hyperbolic": (sampling, [(2, 0.01, 200), (2, 8.0, 12), (2, 9.2, 3)]),
    "euclidean": (euclidean, [(2, 0.01, 200), (3, 1500.0, 12), (3, 4500.0, 3)]),
}


@pytest.mark.parametrize("model", sorted(_BLOCK_CASES))
def test_batch_singles_and_prefix_bit_identical_across_blocks(model):
    module, cases = _BLOCK_CASES[model]
    counts = []
    for d, R, n in cases:
        cfg = SimConfig(d=d, R=R, replications=n, seed=5)
        batch = _bits(module.simulate_batch(cfg))
        assert batch == _bits([module.simulate_total_area(cfg, i) for i in range(n)])
        assert batch == _larger_batch_prefix(module, cfg)
        assert batch == _split_batch(module, cfg)
        counts += [c for c, _, _ in batch]
    assert 0 in counts
    assert max(counts) > sampling._BLOCK


@pytest.mark.parametrize("model", sorted(_BLOCK_CASES))
def test_small_blocks_and_chunks_keep_counts_and_determinism(model, monkeypatch):
    # a tiny block and chunk put zero-hit replications, replications filling
    # a block to its boundary and multi-chunk replications into one batch
    module = _BLOCK_CASES[model][0]
    cfg = SimConfig(d=2, R=1.5, replications=300, seed=11)
    want = _bits(module.simulate_batch(cfg))
    monkeypatch.setattr(sampling, "_BLOCK", 8)
    monkeypatch.setattr(sampling, "_CHUNK", 4)
    got = _bits(module.simulate_batch(cfg))
    counts = [c for c, _, _ in got]
    assert counts == [c for c, _, _ in want]
    assert 0 in counts and max(counts) > 8
    # chunked reduction only reorders the sum of a large replication
    assert np.allclose([t for _, t, _ in got], [t for _, t, _ in want], rtol=0.0, atol=1e-13)
    assert got == _larger_batch_prefix(module, cfg)
    assert got == _split_batch(module, cfg)
    assert got == _bits([module.simulate_total_area(cfg, i) for i in range(300)])


@pytest.mark.parametrize("model", sorted(_BLOCK_CASES))
def test_batch_matches_per_replication_reference(model):
    # the definition, one replication at a time: count, then uniforms, from
    # the replication's own stream, and a plain log-sum-exp of the hit areas
    module = _BLOCK_CASES[model][0]
    flat = model == "euclidean"
    cfg = SimConfig(d=3, R=1.5, replications=200, seed=2**63 + 9)
    mass = 3.0 if flat else hitting_mass(1.5, 3)
    got = module.simulate_batch(cfg)
    for index, r in enumerate(got):
        rng = replication_stream(cfg.seed, index)
        n = rng.poisson(mass)
        u = rng.random(n)
        if flat:
            logs = euclidean.log_section_area((2.0 * u - 1.0) * cfg.R, cfg.R, cfg.d)
        else:
            s = sample_signed_distance(cfg.R, cfg.d, np.maximum(u, 2.0**-54))
            logs = log_chord_area(s, cfg.R, cfg.d)
        assert r.count == n
        want = float(np.logaddexp.reduce(logs)) if n else -math.inf
        assert r.log_total_area == pytest.approx(want, rel=0.0, abs=1e-13)
