"""Source module: polarization encoding, Poisson statistics, reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from fsbb84.errors import ConfigError
from fsbb84.source import (DIAGONAL, RECTILINEAR, SHARD_SIZE, LazyPulseTrain,
                           SourceConfig, build_pulse_train, dump_pulse_train,
                           load_pulse_train, polarization_angle,
                           sample_photon_count)


def poisson_pmf(mu, k):
    # independent oracle: e^-mu mu^k / k!
    return math.exp(-mu) * mu**k / math.factorial(k)


def test_polarization_angle_mapping():
    assert polarization_angle(RECTILINEAR, 0) == 0.0
    assert polarization_angle(RECTILINEAR, 1) == 90.0
    assert polarization_angle(DIAGONAL, 0) == 45.0
    assert polarization_angle(DIAGONAL, 1) == -45.0


def test_polarization_orthogonality():
    for basis in (RECTILINEAR, DIAGONAL):
        sep = abs(polarization_angle(basis, 0) - polarization_angle(basis, 1))
        assert sep % 180.0 == 90.0


def test_polarization_angle_rejects_garbage():
    with pytest.raises(ValueError):
        polarization_angle(2, 0)
    with pytest.raises(ValueError):
        polarization_angle(0, 5)


def test_sample_photon_count_zero_mu():
    rng = np.random.default_rng(1)
    assert all(sample_photon_count(0.0, rng) == 0 for _ in range(100))


def test_sample_photon_count_negative_mu_rejected():
    with pytest.raises(ValueError):
        sample_photon_count(-0.1, np.random.default_rng(0))


def test_sample_photon_count_pmf_mu_0p1():
    rng = np.random.default_rng(42)
    n = 200_000
    draws = rng.poisson(0.1, size=n)  # sample_photon_count vectorized equivalent
    counts = np.bincount(draws, minlength=3)
    for k in (0, 1):
        p = poisson_pmf(0.1, k)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) < 4 * sigma


def test_sample_photon_count_mean_converges():
    rng = np.random.default_rng(7)
    n = 10_000_000
    mean = rng.poisson(0.1, size=n).mean()
    sigma = math.sqrt(0.1 / n)
    assert abs(mean - 0.1) < 3 * sigma


def test_config_validation():
    with pytest.raises(ConfigError):
        SourceConfig(rep_rate_hz=0)
    with pytest.raises(ConfigError):
        SourceConfig(mu_per_state=(0.1, -0.1, 0.1, 0.1))
    with pytest.raises(ConfigError):
        SourceConfig(pulse_fwhm_ps=20_000)  # longer than the 10 ns period
    assert SourceConfig().period_ps == 10_000.0


def test_bright_mu_rejected():
    # photon numbers are drawn by inversion from exp(-mu), exact only well below underflow
    with pytest.raises(ConfigError):
        SourceConfig(mu_per_state=(0.1, 0.1, 0.1, 800.0))
    SourceConfig(mu_per_state=(100.0, 0.1, 0.1, 0.1))


def test_empty_train_rejected():
    with pytest.raises(ConfigError):
        build_pulse_train(SourceConfig(), 0)


def test_all_mu_zero_yields_no_photons():
    cfg = SourceConfig(mu_per_state=(0.0, 0.0, 0.0, 0.0), rng_seed=3)
    train = build_pulse_train(cfg, 10_000)
    assert train.photon_count.sum() == 0


def test_emit_time_grid():
    # 100 MHz -> pulse 5 sits at 50 000 ps plus an intra-pulse offset
    cfg = SourceConfig(rng_seed=5)
    train = build_pulse_train(cfg, 10)
    rec = train.record(5)
    assert abs(rec.emit_time_ps - 50_000) < 5_000
    # offsets stay within a small multiple of the 200 ps FWHM
    offsets = train.emit_time_ps - np.arange(10) * 10_000
    assert np.abs(offsets).max() < 1_000


def test_emit_jitter_sigma():
    cfg = SourceConfig(rng_seed=11)
    n = 200_000
    train = build_pulse_train(cfg, n)
    offsets = train.emit_time_ps - np.arange(n, dtype=np.int64) * 10_000
    expected = 200.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    assert abs(offsets.std() - expected) / expected < 0.02


def test_same_seed_bit_identical():
    cfg = SourceConfig(rng_seed=99)
    a = build_pulse_train(cfg, 50_000)
    b = build_pulse_train(cfg, 50_000)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.bit, b.bit)
    assert np.array_equal(a.photon_count, b.photon_count)
    assert np.array_equal(a.emit_time_ps, b.emit_time_ps)


def test_different_seed_differs():
    a = build_pulse_train(SourceConfig(rng_seed=1), 10_000)
    b = build_pulse_train(SourceConfig(rng_seed=2), 10_000)
    assert not np.array_equal(a.basis, b.basis)


def test_basis_bit_marginals():
    n = 1_000_000
    train = build_pulse_train(SourceConfig(rng_seed=13), n)
    bound = 4 * math.sqrt(0.25 / n)  # 4 sigma binomial
    assert abs(train.basis.mean() - 0.5) < bound
    assert abs(train.bit.mean() - 0.5) < bound


def test_photon_count_chi_square_per_state():
    n = 1_000_000
    cfg = SourceConfig(mu_per_state=(0.1, 0.05, 0.2, 0.1), rng_seed=17)
    train = build_pulse_train(cfg, n)
    states = train.state
    for s, mu in enumerate(cfg.mu_per_state):
        counts = train.photon_count[states == s]
        hist = np.bincount(counts, minlength=4)
        # merge the tail so expected counts stay > 5
        kmax = 3
        obs = np.concatenate([hist[:kmax], [hist[kmax:].sum()]])
        total = obs.sum()
        probs = [poisson_pmf(mu, k) for k in range(kmax)]
        probs.append(1.0 - sum(probs))
        expected = np.asarray(probs) * total
        _, p_value = stats.chisquare(obs, expected)
        assert p_value > 0.01, f"state {s}: p={p_value}"


def test_weak_state_emission_fraction():
    # one weak emitter: V photons should be mu_V / sum(mu) of the total
    cfg = SourceConfig(mu_per_state=(0.1, 0.01, 0.1, 0.1), rng_seed=23)
    n = 10_000_000
    train = build_pulse_train(cfg, n)
    v_photons = train.photon_count[train.state == 1].sum()
    total = train.photon_count.sum()
    expected = 0.01 / 0.31
    frac = v_photons / total
    sigma = math.sqrt(expected * (1 - expected) / total)
    assert abs(frac - expected) < 3 * sigma


def test_lazy_train_matches_materialized():
    cfg = SourceConfig(rng_seed=31)
    n = SHARD_SIZE + 1234  # crosses a shard boundary
    train = build_pulse_train(cfg, n)
    lazy = LazyPulseTrain(cfg, n)
    idx = np.random.default_rng(0).integers(0, n, size=5_000)
    b1, k1 = train.states_at(idx)
    b2, k2 = lazy.states_at(idx)
    assert np.array_equal(b1, b2)
    assert np.array_equal(k1, k2)


def test_lazy_train_matches_at_shard_boundary_and_last_pulse():
    cfg = SourceConfig(rng_seed=37)
    n = SHARD_SIZE + 3
    train = build_pulse_train(cfg, n)
    lazy = LazyPulseTrain(cfg, n)
    idx = np.array([0, SHARD_SIZE - 2, SHARD_SIZE - 1, SHARD_SIZE, SHARD_SIZE + 1, n - 1])
    for a, b in zip(train.states_at(idx), lazy.states_at(idx)):
        assert np.array_equal(a, b)
    with pytest.raises(IndexError):
        lazy.states_at(np.array([n]))


def test_lazy_train_range_checked():
    lazy = LazyPulseTrain(SourceConfig(), 100)
    with pytest.raises(IndexError):
        lazy.states_at(np.array([100]))


def test_dump_roundtrip(tmp_path):
    cfg = SourceConfig(rng_seed=41)
    train = build_pulse_train(cfg, 2_000)
    path = tmp_path / "train.bin"
    dump_pulse_train(train, path)
    assert path.stat().st_size == 19 * 2_000
    back = load_pulse_train(path, cfg)
    assert np.array_equal(back.basis, train.basis)
    assert np.array_equal(back.bit, train.bit)
    assert np.array_equal(back.photon_count, train.photon_count)
    assert np.array_equal(back.emit_time_ps, train.emit_time_ps)
