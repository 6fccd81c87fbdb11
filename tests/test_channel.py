"""Channel module: link-budget formulas and Monte-Carlo survival."""

import math

import numpy as np
import pytest
from scipy import stats

from fsbb84 import channel, source
from fsbb84.analysis import (analyzer_table, atmospheric_loss_db, geometric_loss_db,
                             loss_breakdown)
from fsbb84.channel import GROUP_CANDIDATES, fading_factor, transmit_stream
from fsbb84.errors import ConfigError
from fsbb84.scenario import ChannelConfig, SourceConfig, TrueClock
from fsbb84.source import SHARD_SIZE, pulse_states, state_key
from reference_chain import (analyze, build_pulse_train, reference_shard,
                             reference_transmit_stream, transmit)


# --- independent oracles (recomputed here, not imported) --------------------

def oracle_beam_radius(w0_m, z_m, wl_m):
    zr = math.pi * w0_m**2 / wl_m
    return w0_m * math.sqrt(1.0 + (z_m / zr) ** 2)


def oracle_geo_loss_db(tx_cm, rx_cm, z_m, wl_nm):
    w = oracle_beam_radius(tx_cm / 200.0, z_m, wl_nm * 1e-9)
    a = rx_cm / 200.0
    return -10.0 * math.log10(1.0 - math.exp(-2.0 * a * a / (w * w)))


def oracle_kim_db_per_km(v_km, wl_nm):
    if v_km > 50:
        q = 1.6
    elif v_km > 6:
        q = 1.3
    elif v_km > 1:
        q = 0.16 * v_km + 0.34
    elif v_km > 0.5:
        q = v_km - 0.5
    else:
        q = 0.0
    sigma = (3.91 / v_km) * (wl_nm / 550.0) ** (-q)
    return 10.0 / math.log(10.0) * sigma


def _cfg(**kw):
    base = dict(distance_m=780.0, tx_beam_diameter_e2_cm=3.48,
                rx_aperture_diameter_e2_cm=4.20, visibility_km=10.0)
    base.update(kw)
    return ChannelConfig(**base)


# --- geometric loss ----------------------------------------------------------

def test_geometric_loss_full_capture():
    cfg = _cfg(rx_aperture_diameter_e2_cm=500.0)  # aperture >> beam
    assert geometric_loss_db(cfg, 850.0) < 1e-6


def test_geometric_loss_beam_expander_case():
    # w0 = 1.74 cm, 780 m, 850 nm: oracle gives w(z) ~ 2.121 cm, 0.659 dB
    w = oracle_beam_radius(0.0174, 780.0, 850e-9)
    assert abs(w - 0.02121) < 5e-5
    loss = geometric_loss_db(_cfg(), 850.0)
    assert abs(loss - oracle_geo_loss_db(3.48, 4.20, 780.0, 850.0)) < 1e-12
    assert abs(loss - 0.6589) < 2e-3


def test_geometric_loss_collimator_case():
    # w0 = 0.725 cm over 780 m spreads to ~3.0 cm; capture by the matching
    # 0.725 cm aperture costs ~9.58 dB (drives the low collimator key rate)
    cfg = _cfg(tx_beam_diameter_e2_cm=1.45, rx_aperture_diameter_e2_cm=1.45)
    loss = geometric_loss_db(cfg, 850.0)
    assert abs(loss - oracle_geo_loss_db(1.45, 1.45, 780.0, 850.0)) < 1e-12
    assert abs(loss - 9.576) < 5e-3


def test_geometric_loss_monotone_in_aperture_and_distance():
    losses = [geometric_loss_db(_cfg(rx_aperture_diameter_e2_cm=a), 850.0)
              for a in (1.0, 2.0, 3.0, 5.0)]
    assert all(x > y for x, y in zip(losses, losses[1:]))
    losses = [geometric_loss_db(_cfg(distance_m=d), 850.0)
              for d in (100.0, 400.0, 800.0, 1600.0)]
    assert all(x < y for x, y in zip(losses, losses[1:]))


# --- atmospheric loss --------------------------------------------------------

def test_atmospheric_zero_distance():
    assert atmospheric_loss_db(10.0, 850.0, 0.0) == 0.0


def test_atmospheric_v10_oracle():
    # V=10 km, 850 nm: sigma ~ 0.222/km -> ~0.752 dB over 780 m
    loss = atmospheric_loss_db(10.0, 850.0, 780.0)
    assert abs(loss - oracle_kim_db_per_km(10.0, 850.0) * 0.78) < 1e-12
    assert abs(loss - 0.7521) < 2e-3


def test_atmospheric_db_per_km_at_v10():
    per_km = atmospheric_loss_db(10.0, 850.0, 1000.0)
    assert abs(per_km - 0.96) < 0.02


def test_atmospheric_v2p3_uses_kim_q():
    # 1 < V <= 6 branch: q = 0.16 V + 0.34
    loss = atmospheric_loss_db(2.3, 850.0, 780.0)
    assert abs(loss - oracle_kim_db_per_km(2.3, 850.0) * 0.78) < 1e-12
    assert abs(loss - 4.2314) < 5e-3


@pytest.mark.parametrize("v", [0.3, 0.8, 2.0, 5.0, 10.0, 30.0, 80.0])
def test_atmospheric_matches_oracle_all_branches(v):
    assert abs(atmospheric_loss_db(v, 850.0, 1000.0)
               - oracle_kim_db_per_km(v, 850.0)) < 1e-12


def test_atmospheric_monotone_in_visibility():
    losses = [atmospheric_loss_db(v, 850.0, 780.0) for v in (2.0, 5.0, 10.0, 20.0)]
    assert all(x > y for x, y in zip(losses, losses[1:]))


# --- total loss --------------------------------------------------------------

def test_total_loss_zero_contributions():
    cfg = _cfg(distance_m=0.0, rx_aperture_diameter_e2_cm=500.0, extra_loss_db=0.0)
    assert loss_breakdown(cfg, 850.0).total_db < 1e-6


def test_total_loss_is_sum_of_parts():
    cfg = _cfg(extra_loss_db=8.11)
    bd = loss_breakdown(cfg, 850.0)
    assert bd.total_db == pytest.approx(bd.geometric_db + bd.atmospheric_db + 8.11)
    assert bd.splitter_db == 0.0  # not retro


def test_retro_doubles_legs_and_adds_splitter():
    one_way = _cfg(distance_m=160.0, extra_loss_db=1.5)
    retro = _cfg(distance_m=160.0, extra_loss_db=1.5, retro_mode=True,
                 splitter_penalty_db=6.0)
    d = loss_breakdown(one_way, 850.0)
    r = loss_breakdown(retro, 850.0)
    assert r.geometric_db == pytest.approx(2 * d.geometric_db)
    assert r.atmospheric_db == pytest.approx(2 * d.atmospheric_db)
    assert r.extra_db == d.extra_db
    assert r.total_db == pytest.approx(2 * (d.geometric_db + d.atmospheric_db) + 1.5 + 6.0)


def test_retro_with_no_penalty_equals_direct_when_path_lossless():
    # zero geometric+atmospheric loss: retro with 0 dB splitter == direct
    kw = dict(distance_m=0.0, rx_aperture_diameter_e2_cm=500.0,
              visibility_km=1e6, extra_loss_db=3.0)
    direct = ChannelConfig(tx_beam_diameter_e2_cm=3.48, **kw)
    retro = ChannelConfig(tx_beam_diameter_e2_cm=3.48, retro_mode=True,
                          splitter_penalty_db=0.0, **kw)
    assert loss_breakdown(retro, 850.0).total_db == pytest.approx(
        loss_breakdown(direct, 850.0).total_db, abs=1e-9)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(tx_beam_diameter_e2_cm=0.0)
    with pytest.raises(ConfigError):
        _cfg(visibility_km=-1.0)
    with pytest.raises(ConfigError):
        _cfg(fading_sigma=-0.5)


def test_propagation_delay_default():
    cfg = _cfg(distance_m=780.0)
    assert cfg.delay_ps() == pytest.approx(780.0 / 299_792_458.0 * 1e12, abs=1.0)
    retro = _cfg(distance_m=160.0, retro_mode=True)
    assert retro.delay_ps() == pytest.approx(320.0 / 299_792_458.0 * 1e12, abs=1.0)
    explicit = _cfg(propagation_delay_ps=1234)
    assert explicit.delay_ps() == 1234


# --- Monte-Carlo transmission ------------------------------------------------

def _lossless(**kw):
    base = dict(distance_m=0.0, tx_beam_diameter_e2_cm=3.48,
                rx_aperture_diameter_e2_cm=500.0, visibility_km=1e6,
                extra_loss_db=0.0, propagation_delay_ps=0)
    base.update(kw)
    return ChannelConfig(**base)


def _stream(src, cfg, n, efficiency=1.0, misalignment_deg=0.0, **kw):
    return transmit_stream(src, cfg, n, efficiency, analyzer_table(misalignment_deg), **kw)


def test_transmit_lossless_everything_arrives():
    # no loss and a unit efficiency: the photons at the APDs are exactly the
    # source's photons, pulse for pulse (the same shard draws)
    src = SourceConfig(rng_seed=3)
    n = SHARD_SIZE + 100_000
    arr = _stream(src, _lossless(rng_seed=4), n)
    shards = [reference_shard(src, k, min(SHARD_SIZE, n - k * SHARD_SIZE)) for k in range(2)]
    index = np.concatenate([k * SHARD_SIZE + sh.position for k, sh in enumerate(shards)])
    counts = np.concatenate([sh.photon_count for sh in shards])
    assert np.array_equal(arr.pulse_index, np.repeat(index, counts))
    assert np.array_equal(arr.state, pulse_states(state_key(src), arr.pulse_index))


def test_transmit_13db_survivor_fraction():
    # photons at the APDs from 13 dB of link loss: Poisson(n * mu * T)
    src = SourceConfig(mu_per_state=(1.0, 1.0, 1.0, 1.0), rng_seed=5)
    n = 10_000_000
    arr = _stream(src, _lossless(extra_loss_db=13.0, rng_seed=6), n)
    p = 10 ** (-1.3)
    assert abs(len(arr) - n * p) < 3 * math.sqrt(n * p)


def test_transmit_sorted_and_index_ordered():
    # photons come in pulse order; those of one pulse share its arrival time
    src = SourceConfig(rng_seed=7)
    arr = _stream(src, _lossless(extra_loss_db=3.0, rng_seed=8), 200_000)
    assert np.all(np.diff(arr.pulse_index) >= 0)
    same_pulse = np.diff(arr.pulse_index) == 0
    assert np.all(np.diff(arr.arrival_time_ps)[same_pulse] == 0)


def test_transmit_applies_delay_and_clock():
    src = SourceConfig(rng_seed=9, pulse_fwhm_ps=0.0)
    clk = TrueClock(offset_ps=5_000.0, drift_ppm=20.0)
    arr = _stream(src, _lossless(propagation_delay_ps=1_000_000, rng_seed=10), 1_000,
                  true_clock=clk)
    assert len(arr) > 50
    expected = np.rint(5_000.0 + (1.0 + 20e-6)
                       * (arr.pulse_index * src.period_ps + 1_000_000.0))
    assert np.array_equal(arr.arrival_time_ps, expected.astype(np.int64))


def test_transmit_stream_states_match_train():
    # the folded path draws its own photon numbers, so it fires on other
    # pulses than the photon-by-photon reference; every arrival still
    # carries the train's state, and both totals are Poisson(n * mu * T * eta)
    src = SourceConfig(rng_seed=11)
    cfg = _lossless(extra_loss_db=6.0, rng_seed=12)
    train = build_pulse_train(src, 300_000)
    a = analyze(transmit(train, cfg), 0.5, 0.0, seed=13)
    b = _stream(src, cfg, 300_000, efficiency=0.5)
    assert np.array_equal(b.state, train.state[b.pulse_index])
    # two independent Poisson counts: 4 sigma of their difference
    assert abs(len(a) - len(b)) <= 4 * math.sqrt(len(a) + len(b))


def test_apd_counts_chi_square_against_analyzer_table():
    # Per-(state, APD) photon counts against q[s', d], s' the state after
    # the retro flip (probability 0.3). Given the photons of each state the
    # counts are multinomial; one chi-square over the nonzero cells of all
    # four states per misalignment, false-alarm rate 1e-3 each (2e-3 for
    # the test). Cells of zero probability must stay empty.
    src = SourceConfig(mu_per_state=(1.0, 1.0, 1.0, 1.0), rng_seed=47)
    cfg = _lossless(retro_mode=True, splitter_penalty_db=0.0, retro_flip_prob=0.3,
                    rng_seed=48)
    for m in (0.0, 6.0):
        arr = _stream(src, cfg, 400_000, misalignment_deg=m)
        q = np.asarray(analyzer_table(m))
        obs = np.bincount(4 * arr.state.astype(np.int64) + arr.detector,
                          minlength=16).reshape(4, 4)
        exp = q * obs.sum(axis=1, keepdims=True)
        live = q > 1e-12
        assert np.all(obs[~live] == 0)
        chi2 = float(np.sum((obs[live] - exp[live]) ** 2 / exp[live]))
        dof = int(live.sum()) - 4
        p_value = stats.chi2.sf(chi2, dof)
        assert p_value > 1e-3, f"misalignment {m}: chi2={chi2:.1f}, dof={dof}"
    # the flips happened: about 30% of photons carry a state other than the one sent
    sent = pulse_states(state_key(src), arr.pulse_index)
    assert 0.25 < np.mean(arr.state != sent) < 0.35


def _per_pulse_apd_histogram(arr, n_pulses):
    """(4, 3): pulses with 0, 1 and >= 2 photons at each APD."""
    out = np.empty((4, 3), dtype=np.int64)
    for d in range(4):
        _, per_pulse = np.unique(arr.pulse_index[arr.detector == d], return_counts=True)
        ones, many = int(np.sum(per_pulse == 1)), int(np.sum(per_pulse >= 2))
        out[d] = (n_pulses - ones - many, ones, many)
    return out


def test_folded_path_matches_reference_chain_per_pulse():
    # Two-sample test of the per-pulse photon histogram at each APD (0, 1,
    # >= 2; the >= 2 bin is what dead time sees) between the folded path
    # and the photon-by-photon reference. One chi-square contingency test
    # per APD at 2.5e-4, so 1e-3 for the test.
    src = SourceConfig(mu_per_state=(4.0, 4.0, 4.0, 4.0), rng_seed=49)
    cfg = _lossless(extra_loss_db=3.0, retro_mode=True, splitter_penalty_db=0.0,
                    retro_flip_prob=0.3, rng_seed=50)
    n, eta, m = 200_000, 10 ** (-0.3), 6.0
    ref = analyze(transmit(build_pulse_train(src, n), cfg), eta, m, seed=51)
    new = _stream(src, cfg, n, efficiency=eta, misalignment_deg=m)
    h_ref, h_new = _per_pulse_apd_histogram(ref, n), _per_pulse_apd_histogram(new, n)
    assert np.all(h_new[:, 2] > 5_000)
    for d in range(4):
        _, p_value, _, _ = stats.chi2_contingency(np.stack([h_ref[d], h_new[d]]))
        assert p_value > 2.5e-4, f"APD {d}: {h_ref[d]} vs {h_new[d]}"


def _zero_truncated_pmf(m, k):
    # independent oracle: Poisson(m) pmf at k >= 1, conditioned on >= 1
    return math.exp(-m) * m**k / math.factorial(k) / (1.0 - math.exp(-m))


def test_transmit_stream_survivor_counts_chi_square_per_state():
    # survivors of a Poisson(mu_s) pulse at T = 0.5 are Poisson(mu_s * T)
    src = SourceConfig(mu_per_state=(1.0, 0.5, 2.0, 1.0), rng_seed=41)
    arr = _stream(src, _lossless(extra_loss_db=10 * math.log10(2.0), rng_seed=42), 1_000_000)
    index, n_phot = np.unique(arr.pulse_index, return_counts=True)
    state = arr.state[np.searchsorted(arr.pulse_index, index)]
    for s, mu in enumerate(src.mu_per_state):
        hist = np.bincount(n_phot[state == s], minlength=4)
        obs = np.array([hist[1], hist[2], hist[3:].sum()])
        probs = [_zero_truncated_pmf(0.5 * mu, k) for k in (1, 2)]
        probs.append(1.0 - sum(probs))
        # non-vacuum survivor pulses of this state: 250k * (1 - e^-mu T) expected
        expected_pulses = 250_000 * (1.0 - math.exp(-0.5 * mu))
        assert abs(obs.sum() - expected_pulses) < 4 * math.sqrt(expected_pulses)
        _, p_value = stats.chisquare(obs, np.asarray(probs) * obs.sum())
        assert p_value > 1e-3, f"state {s}: p={p_value}"


def test_transmit_stream_weak_state_survivor_fraction():
    # one weak emitter: V survivors are mu_V / sum(mu) of all survivors
    src = SourceConfig(mu_per_state=(0.1, 0.01, 0.1, 0.1), rng_seed=43)
    arr = _stream(src, _lossless(extra_loss_db=3.0, rng_seed=44), 10_000_000)
    expected = 0.01 / 0.31
    sigma = math.sqrt(expected * (1 - expected) / len(arr))
    assert abs((arr.state == 1).mean() - expected) < 4 * sigma


def test_retro_flip_probability():
    src = SourceConfig(rng_seed=13)
    cfg = _lossless(retro_mode=True, splitter_penalty_db=0.0,
                    retro_flip_prob=0.25, rng_seed=14)
    arr = _stream(src, cfg, 400_000)
    pulses, first = np.unique(arr.pulse_index, return_index=True)
    sent = pulse_states(state_key(src), arr.pulse_index)
    flipped = arr.state != sent
    # flips toggle the orthogonal state within the basis, once per pulse
    assert np.all((arr.state[flipped] ^ 1) == sent[flipped])
    assert np.array_equal(flipped, np.repeat(flipped[first], np.diff(first, append=len(arr))))
    p = flipped[first].mean()
    sigma = math.sqrt(0.25 * 0.75 / len(pulses))
    assert abs(p - 0.25) < 4 * sigma


def test_fading_block_variance_matches_lognormal():
    # with the receiver efficiency folded into the thinning, per-block
    # photon rates still scatter like the log-normal factor
    sigma_f = 0.3
    src = SourceConfig(mu_per_state=(4.0, 4.0, 4.0, 4.0), rng_seed=15)
    n = 4_000_000
    cfg = _lossless(extra_loss_db=3.0, fading_sigma=sigma_f, fading_block_ms=0.1,
                    rng_seed=16)
    arr = _stream(src, cfg, n, efficiency=0.25)
    t_mean = 10 ** (-0.3) * 0.25 * 4.0  # photons at the APDs per pulse
    per_block = 10_000  # pulses per 0.1 ms block at 100 MHz
    rates = np.bincount(arr.pulse_index // per_block, minlength=n // per_block) / per_block
    assert abs(rates.mean() - t_mean) / t_mean < 0.05
    # Poisson(n * mu * T * eta) noise per block adds in quadrature
    expected = math.sqrt(sigma_f**2 + 1.0 / (t_mean * per_block))
    assert abs(rates.std() / rates.mean() - expected) / expected < 0.15


def test_transmit_stream_fading_block_variance_matches_lognormal():
    # the thinned path scatters per-block survivors like the log-normal factor
    sigma_f = 0.3
    src = SourceConfig(mu_per_state=(1.0, 1.0, 1.0, 1.0), rng_seed=45)
    n = 4_000_000
    cfg = _lossless(extra_loss_db=3.0, fading_sigma=sigma_f, fading_block_ms=0.1,
                    rng_seed=46)
    arr = _stream(src, cfg, n)
    t_mean = 10 ** (-0.3)
    per_block = 10_000  # pulses per 0.1 ms block at 100 MHz, mu = 1
    survived = np.bincount(arr.pulse_index // per_block, minlength=n // per_block)
    rates = survived / per_block
    assert abs(rates.mean() - t_mean) / t_mean < 0.05
    # Poisson(mu * n * T) noise per block adds in quadrature
    expected = math.sqrt(sigma_f**2 + 1.0 / (t_mean * per_block))
    assert abs(rates.std() / rates.mean() - expected) / expected < 0.15


def test_unfaded_link_draws_no_fading_factor(monkeypatch):
    # 1 ns blocks, ten per pulse period: without fading they cost nothing
    # and change nothing
    calls = []
    monkeypatch.setattr(channel, "fading_factor", lambda *a: calls.append(a) or 1.0)
    src = SourceConfig(rng_seed=21)
    tiny, wide = (_lossless(extra_loss_db=7.0, fading_block_ms=ms, rng_seed=22)
                  for ms in (1e-6, 10.0))
    a, b = (_stream(src, cfg, SHARD_SIZE + 1_000) for cfg in (tiny, wide))
    assert calls == []
    for field in ("pulse_index", "state", "detector", "arrival_time_ps"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_fading_factor_mean_one():
    cfg = _lossless(fading_sigma=0.5, rng_seed=17)
    factors = np.array([fading_factor(cfg, k) for k in range(20_000)])
    assert abs(factors.mean() - 1.0) < 4 * factors.std() / math.sqrt(len(factors))
    assert abs(factors.std() - 0.5) < 0.02


# --- agreement with the per-shard reference ---------------------------------------

def _assert_equals_reference(monkeypatch, src, cfg, n):
    """transmit_stream against reference_transmit_stream: equal arrays, equal dtypes.

    Returns the arrivals and the number of shards in each group.
    """
    groups = []
    non_vacuum = source.non_vacuum

    def counting(shards, state_key):
        groups.append(len(shards))
        return non_vacuum(shards, state_key)

    monkeypatch.setattr(source, "non_vacuum", counting)
    args = (src, cfg, n, 0.8, analyzer_table(4.0))
    clock = TrueClock(offset_ps=1_234.0, drift_ppm=7.0)
    got = transmit_stream(*args, true_clock=clock)
    want = reference_transmit_stream(*args, true_clock=clock)
    for field in ("pulse_index", "state", "detector", "arrival_time_ps"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    return got, groups


def test_transmit_stream_equals_reference_dark_state_under_fading(monkeypatch):
    # a state of mu 0, and 1 ms fading blocks that give each of the three
    # shards its own largest factor (so its own p_max); the last shard is partial
    src = SourceConfig(mu_per_state=(0.004, 0.0, 0.006, 0.002), rng_seed=61)
    cfg = _lossless(extra_loss_db=3.0, fading_sigma=0.3, fading_block_ms=1.0, rng_seed=62)
    n = 2 * SHARD_SIZE + 12_345
    arr, groups = _assert_equals_reference(monkeypatch, src, cfg, n)
    assert groups == [3] and len(arr) > 1_000
    assert not np.any(arr.state == 1)
    # 1e5 pulses of 10 ns per 1 ms block
    first = [k * SHARD_SIZE // 100_000 for k in range(3)]
    last = [(min((k + 1) * SHARD_SIZE, n) - 1) // 100_000 for k in range(3)]
    f_max = {max(fading_factor(cfg, b) for b in range(b0, b1 + 1)) for b0, b1 in zip(first, last)}
    assert len(f_max) == 3


def test_transmit_stream_equals_reference_retro_flips_and_sort(monkeypatch):
    # retro flips, and 9 ns pulses on a 10 ns grid: photons stay in pulse
    # order while neighbours' arrival times swap
    src = SourceConfig(mu_per_state=(0.005, 0.005, 0.005, 0.005), pulse_fwhm_ps=9_000.0,
                       rng_seed=63)
    cfg = _lossless(retro_mode=True, splitter_penalty_db=0.0, retro_flip_prob=0.3, rng_seed=64)
    arr, groups = _assert_equals_reference(monkeypatch, src, cfg, 2 * SHARD_SIZE + 777)
    assert groups == [3]
    assert np.any(arr.state != pulse_states(state_key(src), arr.pulse_index))
    assert np.all(np.diff(arr.pulse_index) >= 0)
    assert np.any(np.diff(arr.arrival_time_ps) < 0)


def test_transmit_stream_equals_reference_across_groups(monkeypatch):
    # 3/4 of GROUP_CANDIDATES candidates per shard: two shards close the
    # first group, the partial third shard makes the second
    p = 0.75 * GROUP_CANDIDATES / SHARD_SIZE
    mu = -math.log1p(-p) / 0.8
    src = SourceConfig(mu_per_state=(mu, mu, mu, mu), rng_seed=65)
    _, groups = _assert_equals_reference(monkeypatch, src, _lossless(rng_seed=66),
                                         2 * SHARD_SIZE + 99)
    assert groups == [2, 1]


def test_transmit_deterministic():
    src = SourceConfig(rng_seed=19)
    cfg = _lossless(extra_loss_db=7.0, rng_seed=20)
    a = _stream(src, cfg, 100_000, efficiency=0.5, misalignment_deg=3.0)
    b = _stream(src, cfg, 100_000, efficiency=0.5, misalignment_deg=3.0)
    for field in ("pulse_index", "state", "detector", "arrival_time_ps"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
