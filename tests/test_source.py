"""Source module: polarization encoding, Poisson statistics, reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import make_fast_scenario
from fsbb84.analysis import STATE_ANGLES_DEG, analyzer_table
from fsbb84.channel import transmit_stream
from fsbb84.errors import ConfigError, ProtocolViolationError
from fsbb84.protocol.framing import DetectionReport
from fsbb84.protocol.session import alice_match
from fsbb84.scenario import ChannelConfig, SessionParams, SourceConfig
from fsbb84.source import (SHARD_SIZE, emit_jitter_ps, generate_shard, non_vacuum,
                           pulse_states, state_key)
from reference_chain import build_pulse_train

RECTILINEAR, DIAGONAL = 0, 1  # basis = state >> 1


def poisson_pmf(mu, k):
    # independent oracle: e^-mu mu^k / k!
    return math.exp(-mu) * mu**k / math.factorial(k)


def polarization_angle(basis, bit):
    """Polarizer angle in degrees for a basis/bit choice (state = 2 * basis + bit)."""
    return float(STATE_ANGLES_DEG[2 * basis + bit])


def _pulses(cfg, n_pulses):
    """The non-vacuum pulses of all shards, and the shards with their generators."""
    shards = [generate_shard(cfg, start // SHARD_SIZE, min(SHARD_SIZE, n_pulses - start))
              for start in range(0, n_pulses, SHARD_SIZE)]
    return non_vacuum(shards, state_key(cfg)), shards


def _non_vacuum(cfg, n_pulses):
    """(state, photon count) of every non-vacuum pulse, over all shards."""
    pulses, _ = _pulses(cfg, n_pulses)
    return pulses.states, pulses.photon_count


def test_polarization_angle_mapping():
    assert polarization_angle(RECTILINEAR, 0) == 0.0
    assert polarization_angle(RECTILINEAR, 1) == 90.0
    assert polarization_angle(DIAGONAL, 0) == 45.0
    assert polarization_angle(DIAGONAL, 1) == -45.0


def test_polarization_orthogonality():
    for basis in (RECTILINEAR, DIAGONAL):
        sep = abs(polarization_angle(basis, 0) - polarization_angle(basis, 1))
        assert sep % 180.0 == 90.0


def test_zero_mu_state_draws_no_photons():
    # a dark emitter for one state: that state never carries a photon
    cfg = SourceConfig(mu_per_state=(0.0, 0.5, 0.5, 0.5), rng_seed=1)
    pulses, _ = _pulses(cfg, 100_000)
    assert pulses.index.size > 10_000
    assert not np.any(pulses.states == 0)


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
    # a session of no pulses: too short a duration, or a pulse count of 0
    with pytest.raises(ConfigError, match="duration_s"):
        make_fast_scenario(duration_s=1e-9)
    with pytest.raises(ConfigError, match="protocol.n_pulses"):
        SessionParams(n_pulses=0)


def test_all_mu_zero_yields_no_photons():
    cfg = SourceConfig(mu_per_state=(0.0, 0.0, 0.0, 0.0), rng_seed=3)
    pulses, (shard,) = _pulses(cfg, 10_000)
    assert shard.position.size == 0
    assert pulses.index.size == 0
    assert pulses.photon_count.sum() == 0


def test_emit_time_grid():
    # 100 MHz -> pulse i leaves at i * 10 000 ps plus an offset within a
    # small multiple of the 200 ps FWHM; a lossless 0 m link and an ideal
    # clock show the emission times themselves
    src = SourceConfig(mu_per_state=(1.0, 1.0, 1.0, 1.0), rng_seed=5)
    link = ChannelConfig(distance_m=0.0, tx_beam_diameter_e2_cm=1.0,
                         rx_aperture_diameter_e2_cm=1e4, visibility_km=1e9,
                         propagation_delay_ps=0, rng_seed=6)
    arr = transmit_stream(src, link, 10_000, 1.0, analyzer_table(0.0))
    assert len(arr) > 5_000
    offsets = arr.arrival_time_ps - arr.pulse_index * 10_000
    assert np.abs(offsets).max() < 1_000
    assert np.abs(offsets).mean() > 10  # jittered, not on the grid


def test_emit_jitter_sigma():
    cfg = SourceConfig(rng_seed=11)
    offsets = emit_jitter_ps(cfg, np.random.default_rng(11), 200_000)
    expected = 200.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    assert abs(offsets.std() - expected) / expected < 0.02
    flat = SourceConfig(pulse_fwhm_ps=0.0)
    assert not emit_jitter_ps(flat, np.random.default_rng(11), 5).any()


def test_same_seed_bit_identical():
    cfg = SourceConfig(rng_seed=99)
    (a, (sa,)), (b, (sb,)) = _pulses(cfg, 50_000), _pulses(cfg, 50_000)
    assert np.array_equal(sa.position, sb.position)
    assert np.array_equal(a.index, b.index)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.photon_count, b.photon_count)
    n = a.index.size
    assert np.array_equal(emit_jitter_ps(cfg, sa.rng, n), emit_jitter_ps(cfg, sb.rng, n))
    idx = np.arange(50_000)
    assert np.array_equal(pulse_states(state_key(cfg), idx), pulse_states(state_key(cfg), idx))


def test_different_seed_differs():
    idx = np.arange(10_000)
    a, b = SourceConfig(rng_seed=1), SourceConfig(rng_seed=2)
    assert not np.array_equal(pulse_states(state_key(a), idx), pulse_states(state_key(b), idx))
    assert not np.array_equal(generate_shard(a, 0, 10_000).position,
                              generate_shard(b, 0, 10_000).position)


def test_basis_bit_marginals():
    n = 1_000_000
    states = pulse_states(state_key(SourceConfig(rng_seed=13)), np.arange(n))
    bound = 4 * math.sqrt(0.25 / n)  # 4 sigma binomial
    assert abs((states >> 1).mean() - 0.5) < bound
    assert abs((states & 1).mean() - 0.5) < bound


def test_photon_count_chi_square_per_state():
    n = 1_000_000
    cfg = SourceConfig(mu_per_state=(0.1, 0.05, 0.2, 0.1), rng_seed=17)
    states = pulse_states(state_key(cfg), np.arange(n))
    kept_states, kept_counts = _non_vacuum(cfg, n)
    for s, mu in enumerate(cfg.mu_per_state):
        counts = kept_counts[kept_states == s]
        hist = np.bincount(counts, minlength=4)
        # the vacuum pulses of state s are the ones non_vacuum left out
        hist[0] = np.count_nonzero(states == s) - counts.size
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
    kept_states, kept_counts = _non_vacuum(cfg, n)
    v_photons = kept_counts[kept_states == 1].sum()
    total = kept_counts.sum()
    expected = 0.01 / 0.31
    frac = v_photons / total
    sigma = math.sqrt(expected * (1 - expected) / total)
    assert abs(frac - expected) < 3 * sigma


def _assert_alice_matches_train(cfg, train, idx):
    """Alice's on-demand states at ``idx`` equal the materialized train's."""
    n = train.basis.size
    same = DetectionReport(pulse_index=idx, basis=train.basis[idx].astype(np.uint8))
    mask, key = alice_match(cfg, same, n)
    assert mask.mask.all()
    assert np.array_equal(key.bits, train.bit[idx])
    assert np.array_equal(same.pulse_index[mask.mask != 0], idx)  # key bit i is pulse idx[i]'s
    other = DetectionReport(pulse_index=idx, basis=(1 - train.basis[idx]).astype(np.uint8))
    mask, key = alice_match(cfg, other, n)
    assert not mask.mask.any()
    assert key.bits.size == 0


def test_lazy_train_matches_materialized():
    cfg = SourceConfig(rng_seed=31)
    n = SHARD_SIZE + 1234  # crosses a shard boundary
    train = build_pulse_train(cfg, n)
    idx = np.unique(np.random.default_rng(0).integers(0, n, size=5_000))
    _assert_alice_matches_train(cfg, train, idx)


def test_lazy_train_matches_at_shard_boundary_and_last_pulse():
    cfg = SourceConfig(rng_seed=37)
    n = SHARD_SIZE + 3
    train = build_pulse_train(cfg, n)
    idx = np.array([0, SHARD_SIZE - 2, SHARD_SIZE - 1, SHARD_SIZE, SHARD_SIZE + 1, n - 1])
    _assert_alice_matches_train(cfg, train, idx)
    with pytest.raises(ProtocolViolationError):
        alice_match(cfg, DetectionReport(pulse_index=np.array([n]),
                                         basis=np.zeros(1, dtype=np.uint8)), n)
