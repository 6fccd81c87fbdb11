"""Receiver module: analyzer table, detection chain, dead time, classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsbb84.analysis import STATE_ANGLES_DEG, analyzer_table
from fsbb84.channel import PhotonArrivals, transmit_stream
from fsbb84.errors import ConfigError
from fsbb84.receiver import (DET_A, DET_D, DET_H, DET_V, TimeTags, _dead_time_filter,
                             classify_clicks, detect, dump_tags, load_tags)
from fsbb84.scenario import DISCARD, RANDOM_BIT, ChannelConfig, ReceiverConfig, SourceConfig
from fsbb84.seeds import STREAM_BACKGROUND, STREAM_RECEIVER, spawn
from reference_chain import malus_first


def _arrivals(detectors, times, indices=None):
    """Photons at the given APDs; each state is its APD's own."""
    n = len(detectors)
    return PhotonArrivals(
        pulse_index=np.asarray(indices if indices is not None else np.arange(n),
                               dtype=np.int64),
        state=np.asarray(detectors, dtype=np.uint8),
        detector=np.asarray(detectors, dtype=np.uint8),
        arrival_time_ps=np.asarray(times, dtype=np.int64),
    )


def _quiet(**kw):
    base = dict(efficiency_db=0.0, misalignment_deg=0.0,
                background_rate_cps_per_apd=0.0, jitter_fwhm_ps=0.0,
                dead_time_ns=0.0, tag_resolution_ps=1, rng_seed=1)
    base.update(kw)
    return ReceiverConfig(**base)


_LOSSLESS = ChannelConfig(distance_m=0.0, tx_beam_diameter_e2_cm=3.48,
                          rx_aperture_diameter_e2_cm=500.0, visibility_km=1e6,
                          propagation_delay_ps=0, rng_seed=2)


def _bench(n_pulses, cfg, mu=(1.0, 0.0, 0.0, 0.0), seed=0):
    """Photons at the APDs from a lossless link through ``cfg``'s bench."""
    return transmit_stream(SourceConfig(mu_per_state=mu, rng_seed=seed), _LOSSLESS, n_pulses,
                           cfg.efficiency, analyzer_table(cfg.misalignment_deg))


def _tags(n_pulses, cfg, mu=(1.0, 0.0, 0.0, 0.0), seed=0):
    """The folded path end to end: the bench's photons, detected."""
    return detect(_bench(n_pulses, cfg, mu, seed), cfg, n_pulses * 1e-8, (0, n_pulses * 10_000))


# --- scalar references ------------------------------------------------------------

def dead_time_filter_loop(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Reference: keep-mask of non-paralyzable dead time, one tag at a time."""
    n = len(times)
    keep = np.ones(n, dtype=bool)
    if dead_ps <= 0 or n < 2:
        return keep
    last = -np.inf
    t = times
    for i in range(n):
        if t[i] - last >= dead_ps or last == -np.inf:
            last = t[i]
        else:
            keep[i] = False
    return keep


def classify_clicks_loop(pulse_index, detector, policy, rng):
    """Reference: classify_clicks with one scalar draw per multi-click pulse."""
    if len(pulse_index) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), 0, 0)
    order = np.argsort(pulse_index, kind="stable")
    idx = np.asarray(pulse_index, dtype=np.int64)[order]
    det = np.asarray(detector, dtype=np.uint8)[order]
    uniq, starts, counts = np.unique(idx, return_index=True, return_counts=True)
    singles = counts == 1
    out_idx, out_det = [uniq[singles]], [det[starts[singles]]]
    n_multi = int(np.sum(~singles))
    n_discarded = 0
    if n_multi:
        if policy == DISCARD:
            n_discarded = n_multi
        else:
            m_idx, m_det = [], []
            for s, c, u in zip(starts[~singles], counts[~singles], uniq[~singles]):
                choices = np.unique(det[s:s + c])
                m_idx.append(u)
                m_det.append(choices[rng.integers(0, len(choices))])
            out_idx.append(np.asarray(m_idx, dtype=np.int64))
            out_det.append(np.asarray(m_det, dtype=np.uint8))
    idx_out, det_out = np.concatenate(out_idx), np.concatenate(out_det)
    order = np.argsort(idx_out, kind="stable")
    return idx_out[order], det_out[order], n_multi, n_discarded


# --- analyzer table -------------------------------------------------------------

@pytest.mark.parametrize("m", [0.0, 3.0, 7.0])
def test_analyzer_table_matches_malus(m):
    q = np.asarray(analyzer_table(m))
    assert np.allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    for s in range(4):
        for b in range(2):
            p_first = malus_first(STATE_ANGLES_DEG[s], b, m)
            assert q[s, 2 * b] == pytest.approx(0.5 * p_first, abs=1e-15)
            assert q[s, 2 * b + 1] == pytest.approx(0.5 * (1.0 - p_first), abs=1e-15)


def test_project_matched_basis_deterministic():
    # at zero misalignment a photon that reaches its own basis' APDs lands
    # on its state's APD
    arr = _bench(4_000, _quiet(), mu=(1.0, 1.0, 1.0, 1.0), seed=0)
    matched = arr.detector >> 1 == arr.state >> 1
    for s in (DET_H, DET_V, DET_D, DET_A):
        assert np.sum(matched & (arr.state == s)) >= 30
    assert np.array_equal(arr.detector[matched], arr.state[matched])


def test_project_conjugate_basis_splits_evenly():
    arr = _bench(200_000, _quiet(), seed=1)
    diag = arr.detector[arr.detector >> 1 == 1]
    n = len(diag)
    hits = np.sum(diag == DET_D)
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 3 * sigma


def test_project_misalignment_error_rate():
    # 5.6 deg misalignment: wrong detector with probability sin^2(5.6 deg)
    arr = _bench(400_000, _quiet(misalignment_deg=5.6), seed=2)
    rect = arr.detector[arr.detector >> 1 == 0]
    n = len(rect)
    wrong = np.sum(rect == DET_V)
    e_pol = math.sin(math.radians(5.6)) ** 2  # ~0.95%
    sigma = math.sqrt(e_pol * (1 - e_pol) / n)
    assert abs(wrong / n - e_pol) < 4 * sigma


# --- detection chain ----------------------------------------------------------

def test_background_only_rate():
    # 700 c/s x 4 APDs x 10 s -> 28 000 +- 3 sigma
    arr = _arrivals([], [])
    cfg = _quiet(background_rate_cps_per_apd=700.0, rng_seed=3)
    tags = detect(arr, cfg, session_duration_s=10.0, window_ps=(0, 10**13))
    expected = 28_000
    assert abs(len(tags) - expected) < 3 * math.sqrt(expected)
    # per-APD rates individually consistent
    for det, count in tags.per_detector_counts().items():
        assert abs(count - 7_000) < 3 * math.sqrt(7_000), det


def test_ideal_chain_tags_equal_arrivals():
    # no jitter, noise or dead time: every photon tags, on its own APD
    dets = np.tile(np.array([0, 1, 2, 3], dtype=np.uint8), 2_500)
    times = np.arange(10_000, dtype=np.int64) * 10_000
    tags = detect(_arrivals(dets, times), _quiet(rng_seed=4), 1e-4, (0, 10**8))
    assert np.array_equal(tags.time_ps, times)
    assert np.array_equal(tags.detector, dets)


def test_pulse_ordered_arrivals_tag_as_time_sorted():
    # 9 ns pulses on a 10 ns grid come out of the channel in pulse order,
    # their times unsorted; the tagger's one sort makes the same tags of
    # them as of the same photons sorted by time
    cfg = _quiet(dead_time_ns=50.0, background_rate_cps_per_apd=2e5, tag_resolution_ps=1_000)
    n = 400_000
    arr = transmit_stream(SourceConfig(mu_per_state=(0.05,) * 4, pulse_fwhm_ps=9_000.0,
                                       rng_seed=71),
                          _LOSSLESS, n, cfg.efficiency, analyzer_table(cfg.misalignment_deg))
    assert np.any(np.diff(arr.arrival_time_ps) < 0)
    by_time = np.argsort(arr.arrival_time_ps, kind="stable")
    sorted_arr = PhotonArrivals(arr.pulse_index[by_time], arr.state[by_time],
                                arr.detector[by_time], arr.arrival_time_ps[by_time])
    a, b = (detect(x, cfg, n * 1e-8, (0, n * 10_000)) for x in (arr, sorted_arr))
    assert np.array_equal(a.time_ps, b.time_ps)
    assert np.array_equal(a.detector, b.detector)
    assert np.all(np.diff(a.time_ps) >= 0)


def test_efficiency_thinning():
    # 10 dB of receiver efficiency: a tenth of the source's n * mu photons tag
    n = 1_000_000
    tags = _tags(n, _quiet(efficiency_db=10.0), mu=(1.0, 1.0, 1.0, 1.0), seed=5)
    p = 0.1
    assert abs(len(tags) - n * p) < 3 * math.sqrt(n * p)


def test_passive_basis_choice_balanced():
    tags = _tags(1_000_000, _quiet(), seed=6)
    n = len(tags)
    rect = np.sum(tags.detector <= DET_V)
    sigma = math.sqrt(0.25 / n)
    assert abs(rect / n - 0.5) < 3 * sigma


def test_misalignment_matched_error_fraction():
    m = 7.0
    tags = _tags(1_000_000, _quiet(misalignment_deg=m), seed=7)
    rect = tags.detector <= DET_V
    err = np.sum(tags.detector[rect] == DET_V) / rect.sum()
    e_pol = math.sin(math.radians(m)) ** 2
    sigma = math.sqrt(e_pol * (1 - e_pol) / rect.sum())
    assert abs(err - e_pol) < 3 * sigma


def test_jitter_spread():
    n = 200_000
    arr = _arrivals(np.zeros(n, dtype=np.uint8),
                    np.arange(n, dtype=np.int64) * 100_000)
    cfg = _quiet(jitter_fwhm_ps=350.0, rng_seed=8)
    tags = detect(arr, cfg, n * 1e-7, (0, n * 100_000), with_truth=True)
    resid = tags.time_ps - tags.truth_pulse_index * 100_000
    expected = 350.0 / (2 * math.sqrt(2 * math.log(2)))
    assert abs(resid.std() - expected) / expected < 0.02


def test_tag_quantization():
    arr = _arrivals([0] * 5, [103, 1_222, 2_387, 9_601, 12_049])
    cfg = _quiet(tag_resolution_ps=16, rng_seed=9)
    tags = detect(arr, cfg, 1e-7, (0, 10**5))
    assert np.all(tags.time_ps % 16 == 0)


def test_dead_time_suppresses_close_tags():
    # two arrivals 10 ns apart at one APD with 50 ns dead time: one tag
    arr = _arrivals([DET_H, DET_H], [0, 10_000])
    cfg = _quiet(dead_time_ns=50.0)
    assert len(detect(arr, cfg, 1e-6, (0, 10**6))) == 1
    # exactly at the dead-time boundary the second tag survives (gap >= dead)
    assert len(detect(_arrivals([DET_H, DET_H], [0, 50_000]), cfg, 1e-6, (0, 10**6))) == 2


def test_dead_time_is_per_detector():
    # a V tag 10 ns before an H tag under 50 ns dead time: both survive,
    # since each APD has its own dead time
    arr = _arrivals([DET_V, DET_H], [0, 10_000])
    tags = detect(arr, _quiet(dead_time_ns=50.0), 1e-6, (0, 10**6))
    assert list(tags.detector) == [DET_V, DET_H]


def test_dead_time_enforced_on_noisy_stream():
    cfg = _quiet(background_rate_cps_per_apd=200_000.0, dead_time_ns=50.0,
                 rng_seed=11)
    tags = detect(_arrivals([], []), cfg, 0.05, (0, 5 * 10**10))
    for d in range(4):
        t = tags.time_ps[tags.detector == d]
        if len(t) > 1:
            assert np.diff(t).min() >= 50_000


_GAPS = st.lists(st.one_of(st.integers(0, 120), st.integers(0, 10**9)), max_size=80)


@settings(max_examples=300, deadline=None, database=None)
@given(start=st.integers(-10**12, 10**12), gaps=_GAPS, dead_ps=st.integers(0, 100))
@example(start=0, gaps=[], dead_ps=50)
@example(start=-7, gaps=[3], dead_ps=50)
@example(start=-500, gaps=[0, 0, 5, 0, 49, 1, 50], dead_ps=0)
@example(start=-500, gaps=[0, 0, 5, 0, 49, 1, 50], dead_ps=50)
def test_dead_time_filter_matches_reference_loop(start, gaps, dead_ps):
    # sorted int64 times with ties, negative times and dense clusters
    times = start + np.cumsum(np.asarray(gaps, dtype=np.int64))
    assert np.array_equal(_dead_time_filter(times, dead_ps),
                          dead_time_filter_loop(times, dead_ps))


def test_dead_time_saturated_stream_keeps_every_fifth():
    # a tag every 10 ns under 50 ns dead time is one cluster: every 5th survives
    times = np.arange(20_000, dtype=np.int64) * 10_000
    keep = _dead_time_filter(times, 50_000)
    assert np.array_equal(np.flatnonzero(keep), np.arange(0, 20_000, 5))
    assert np.array_equal(keep, dead_time_filter_loop(times, 50_000))


def test_detect_dead_time_matches_reference_per_detector():
    # Dead time only removes tags, and draws nothing: the stream with it
    # equals the stream without it, filtered per detector by the reference
    # loop. A 1 ns tag resolution makes ties within and across detectors.
    n = 20_000
    times = np.sort(np.random.default_rng(14).integers(0, 2 * 10**9, n))
    arr = _arrivals(np.random.default_rng(15).integers(0, 4, n), times)
    kw = dict(background_rate_cps_per_apd=2e6, jitter_fwhm_ps=350.0,
              tag_resolution_ps=1_000, rng_seed=16)
    free = detect(arr, _quiet(**kw), 2e-3, (0, 2 * 10**9), with_truth=True)
    keep = np.zeros(len(free), dtype=bool)
    for d in range(4):
        sel = np.flatnonzero(free.detector == d)
        keep[sel] = dead_time_filter_loop(free.time_ps[sel], 50_000)
    tags = detect(arr, _quiet(dead_time_ns=50.0, **kw), 2e-3, (0, 2 * 10**9), with_truth=True)
    assert 0 < keep.sum() < len(free)
    assert np.array_equal(tags.time_ps, free.time_ps[keep])
    assert np.array_equal(tags.detector, free.detector[keep])
    assert np.array_equal(tags.truth_pulse_index, free.truth_pulse_index[keep])


def _detect_rebuilt(arr, cfg, duration_s, window_ps):
    """Reference: detect's stream rebuilt from its draws, block by block.

    Jitter from ``STREAM_RECEIVER``, then each APD's background block from
    ``STREAM_BACKGROUND``, each block quantized on its own; one stable
    (time, detector) sort, and the reference loop's dead time per APD.
    """
    res = cfg.tag_resolution_ps
    jitter = spawn(cfg.rng_seed, STREAM_RECEIVER).normal(0.0, cfg.jitter_sigma_ps, len(arr))
    bg = spawn(cfg.rng_seed, STREAM_BACKGROUND)
    times = [np.rint((arr.arrival_time_ps + jitter) / res) * res]
    dets, truth = [arr.detector], [arr.pulse_index]
    for d in range(4):
        n = bg.poisson(cfg.background_rate_cps_per_apd * duration_s)
        times.append(np.rint(bg.integers(*window_ps, size=n, dtype=np.int64) / res) * res)
        dets.append(np.full(n, d, dtype=np.uint8))
        truth.append(np.full(n, -1, dtype=np.int64))
    t, det, truth = (np.concatenate(x) for x in (times, dets, truth))
    t = t.astype(np.int64)
    order = np.lexsort((det, t))
    t, det, truth = t[order], det[order], truth[order]
    keep = np.zeros(len(t), dtype=bool)
    for d in range(4):
        sel = np.flatnonzero(det == d)
        keep[sel] = dead_time_filter_loop(t[sel], round(cfg.dead_time_ns * 1000))
    return t, det, truth, keep


@pytest.mark.parametrize("dead_ns", [0.0, 50.0])
@pytest.mark.parametrize("jitter_ps", [0.0, 350.0])
def test_detect_draws_and_tie_order_match_rebuild(dead_ns, jitter_ps):
    # 5,000 photons and 4 x 1,000 background counts in 0.5 ms at 1 ns
    # resolution: equal times within one APD and across APDs
    n, window = 5_000, (0, 5 * 10**8)
    times = np.sort(np.random.default_rng(21).integers(*window, n))
    arr = _arrivals(np.random.default_rng(22).integers(0, 4, n), times)
    cfg = _quiet(background_rate_cps_per_apd=2e6, jitter_fwhm_ps=jitter_ps,
                 dead_time_ns=dead_ns, tag_resolution_ps=1_000, rng_seed=23)
    t, det, truth, keep = _detect_rebuilt(arr, cfg, 5e-4, window)
    tie = np.diff(t) == 0
    same = det[1:] == det[:-1]
    assert np.any(tie & same) and np.any(tie & ~same)
    tags = detect(arr, cfg, 5e-4, window, with_truth=True)
    assert np.array_equal(tags.time_ps, t[keep])
    assert np.array_equal(tags.detector, det[keep])
    assert np.array_equal(tags.truth_pulse_index, truth[keep])


@pytest.mark.parametrize("res", [1, 1_000])
def test_detect_key_path_equals_truth_path_at_equal_keys(res):
    # Zero jitter, 4 x ~2,000 background counts against 1,500 photons, 500 of
    # them on a background count's time and APD: signal and background share
    # (time, APD) keys. Without truth the keys alone are sorted; with truth
    # a stable argsort puts signal first at an equal key, in pulse order.
    window, duration = (0, 10**9), 1e-3
    cfg = _quiet(background_rate_cps_per_apd=2e6, tag_resolution_ps=res, rng_seed=31)
    bg = spawn(31, STREAM_BACKGROUND)
    bg_t, bg_det = [], []
    for d in range(4):
        n = bg.poisson(2e6 * duration)
        bg_t.append(bg.integers(*window, size=n, dtype=np.int64))
        bg_det.append(np.full(n, d))
    bg_t, bg_det = np.concatenate(bg_t), np.concatenate(bg_det)
    rng = np.random.default_rng(32)
    on_bg = rng.choice(len(bg_t), 500, replace=False)
    times = np.concatenate([bg_t[on_bg], rng.integers(*window, 1_000)])
    dets = np.concatenate([bg_det[on_bg], rng.integers(0, 4, 1_000)])
    order = np.argsort(times, kind="stable")
    arr = _arrivals(dets[order], times[order], indices=3 * np.arange(len(times)))

    plain = detect(arr, cfg, duration, window)
    tags = detect(arr, cfg, duration, window, with_truth=True)
    t, det, truth, keep = _detect_rebuilt(arr, cfg, duration, window)
    assert keep.all()
    for got in (plain, tags):
        assert np.array_equal(got.time_ps, t) and np.array_equal(got.detector, det)
    assert np.array_equal(tags.truth_pulse_index, truth)
    key = 4 * t + det
    tie, signal = key[1:] == key[:-1], truth >= 0
    assert np.any(tie & (signal[:-1] != signal[1:]))
    assert not np.any(tie & ~signal[:-1] & signal[1:])
    both = tie & signal[:-1] & signal[1:]
    assert np.all(truth[1:][both] > truth[:-1][both])


def test_detect_tags_the_largest_exact_times_as_they_arrived():
    # the largest times float64 holds exactly; times past them never reach
    # detect (Scenario's reach rule and load_tags refuse them)
    tags = detect(_arrivals([DET_H, DET_V], [2**53 - 3, 2**53 - 1]), _quiet(), 1e-6, (0, 10**6))
    assert tags.time_ps.tolist() == [2**53 - 3, 2**53 - 1]


def test_merged_stream_sorted():
    n = 10_000
    arr = _arrivals(np.zeros(n, dtype=np.uint8), np.arange(n) * 10_000)
    cfg = _quiet(background_rate_cps_per_apd=5_000.0, jitter_fwhm_ps=350.0,
                 rng_seed=12)
    tags = detect(arr, cfg, n * 1e-8, (0, n * 10_000))
    assert np.all(np.diff(tags.time_ps) >= 0)


def test_truth_labels():
    n = 1_000
    arr = _arrivals(np.zeros(n, dtype=np.uint8), np.arange(n) * 10_000,
                    indices=np.arange(n) + 7)
    cfg = _quiet(background_rate_cps_per_apd=100_000.0, rng_seed=13)
    tags = detect(arr, cfg, 1e-5, (0, 10**7), with_truth=True)
    assert set(np.unique(tags.truth_pulse_index[tags.truth_pulse_index >= 0])) <= set(range(7, n + 7))
    assert np.sum(tags.truth_pulse_index == -1) > 0


def test_config_validation():
    with pytest.raises(ConfigError):
        ReceiverConfig(efficiency_db=-1.0)
    with pytest.raises(ConfigError):
        ReceiverConfig(tag_resolution_ps=0)
    with pytest.raises(ConfigError):
        ReceiverConfig(double_click_policy="flip_coin")


# --- click classification -----------------------------------------------------

def test_classify_single_clicks_pass_through():
    rng = np.random.default_rng(0)
    idx, det, n_multi, n_disc = classify_clicks(
        np.array([3, 9]), np.array([DET_H, DET_A]), RANDOM_BIT, rng)
    assert list(idx) == [3, 9]
    assert list(det) == [DET_H, DET_A]
    assert n_multi == 0 and n_disc == 0


def test_classify_empty():
    rng = np.random.default_rng(0)
    idx, det, n_multi, n_disc = classify_clicks(np.array([]), np.array([]), DISCARD, rng)
    assert len(idx) == 0 and n_multi == 0


def test_classify_discard_policy():
    rng = np.random.default_rng(0)
    idx, det, n_multi, n_disc = classify_clicks(
        np.array([3, 7, 7, 9]), np.array([DET_H, DET_D, DET_V, DET_A]), DISCARD, rng)
    assert list(idx) == [3, 9]
    assert n_multi == 1 and n_disc == 1


def test_classify_random_bit_uniform_over_clicked():
    # exhaustive over all 2-detector combinations: chosen detector is
    # uniform over the pair (and deterministic when both tags agree)
    for a in range(4):
        for b in range(4):
            rng = np.random.default_rng(a * 4 + b)
            picks = []
            for trial in range(2_000):
                idx, det, n_multi, _ = classify_clicks(
                    np.array([5, 5]), np.array([a, b], dtype=np.uint8),
                    RANDOM_BIT, rng)
                assert list(idx) == [5]
                assert n_multi == 1
                picks.append(det[0])
            picks = np.asarray(picks)
            if a == b:
                assert np.all(picks == a)
            else:
                frac = np.mean(picks == a)
                assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / len(picks))
                assert set(np.unique(picks)) == {a, b}


def test_classify_output_sorted_by_pulse():
    # gated tags arrive in pulse order; each pulse is reported once, in that order
    rng = np.random.default_rng(3)
    idx, det, _, _ = classify_clicks(
        np.array([1, 3, 7, 7, 9]), np.array([2, 1, 2, 3, 0], dtype=np.uint8),
        RANDOM_BIT, rng)
    assert list(idx) == [1, 3, 7, 9]
    assert list(det[[0, 1, 3]]) == [2, 1, 0] and det[2] in (2, 3)


def test_array_bounded_draws_equal_scalar_draws():
    # classify_clicks draws every multi-click pulse's pick in one call with
    # an array of bounds: the values and the generator's end state must
    # equal one scalar call per pulse, in order (bound 1 draws nothing).
    highs = np.random.default_rng(0).integers(1, 5, size=1_000)
    g_arr, g_one = np.random.default_rng(7), np.random.default_rng(7)
    assert np.array_equal(g_arr.integers(0, highs),
                          [g_one.integers(0, int(h)) for h in highs])
    assert g_arr.bit_generator.state == g_one.bit_generator.state


def _click_stream(seed, n_pulses=400):
    """Tags of pulses with 1-6 tags from 1-4 distinct detectors, in pulse order.

    Shuffled, then sorted stably by pulse as gating delivers them, so each
    pulse's detectors come in a random order.
    """
    rng = np.random.default_rng(seed)
    pulses = rng.choice(10**9, n_pulses, replace=False)
    mult = rng.integers(1, 7, n_pulses)
    det = np.concatenate([rng.choice(rng.choice(4, rng.integers(1, 5), replace=False), m)
                          for m in mult]).astype(np.uint8)
    idx = np.repeat(pulses, mult)
    perm = rng.permutation(len(det))
    perm = perm[np.argsort(idx[perm], kind="stable")]
    return idx[perm], det[perm]


@pytest.mark.parametrize("policy", [RANDOM_BIT, DISCARD])
def test_classify_matches_reference_loop(policy):
    streams = [_click_stream(seed) for seed in range(10)]
    streams.append((np.array([3, 5, 9]), np.array([DET_H, DET_A, DET_D], dtype=np.uint8)))
    for idx, det in streams:
        g_new, g_ref = np.random.default_rng(99), np.random.default_rng(99)
        out = classify_clicks(idx, det, policy, g_new)
        ref = classify_clicks_loop(idx, det, policy, g_ref)
        for a, b in zip(out[:2], ref[:2]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert out[2:] == ref[2:]
        assert g_new.bit_generator.state == g_ref.bit_generator.state
    # seed 0 alone holds repeats of one detector and 2, 3 and 4 distinct ones
    idx, det = streams[0]
    pulses, counts = np.unique(idx, return_counts=True)
    assert {len(np.unique(det[idx == u])) for u in pulses[counts > 1]} == {1, 2, 3, 4}


# --- dump/replay ---------------------------------------------------------------

def test_tag_dump_roundtrip(tmp_path):
    tags = TimeTags(detector=np.array([0, 2, 3], dtype=np.uint8),
                    time_ps=np.array([10, 20, 30], dtype=np.int64))
    path = tmp_path / "tags.bin"
    dump_tags(tags, path)
    assert path.stat().st_size == 9 * 3
    back = load_tags(path)
    assert np.array_equal(back.detector, tags.detector)
    assert np.array_equal(back.time_ps, tags.time_ps)


def test_load_tags_rejects_partial_record(tmp_path):
    path = tmp_path / "tags.bin"
    dump_tags(TimeTags(detector=np.array([0, 1], dtype=np.uint8),
                       time_ps=np.array([10, 20], dtype=np.int64)), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ConfigError, match="17 bytes") as e:
        load_tags(path)
    assert str(path) in str(e.value)


def test_load_tags_rejects_unknown_detector(tmp_path):
    path = tmp_path / "tags.bin"
    dump_tags(TimeTags(detector=np.array([0, 4, 1], dtype=np.uint8),
                       time_ps=np.array([10, 20, 30], dtype=np.int64)), path)
    with pytest.raises(ConfigError, match="record 1 has a detector outside 0-3") as e:
        load_tags(path)
    assert str(path) in str(e.value)


def test_load_tags_rejects_decreasing_times(tmp_path):
    path = tmp_path / "tags.bin"
    dump_tags(TimeTags(detector=np.array([0, 1, 2, 3], dtype=np.uint8),
                       time_ps=np.array([10, 20, 20, 15], dtype=np.int64)), path)
    with pytest.raises(ConfigError, match="record 3 has time_ps below") as e:
        load_tags(path)
    assert str(path) in str(e.value)


@pytest.mark.parametrize("times, record", [([10, 2**53], 1), ([-2**53, 10], 0),
                                           ([-2**63, 10], 0)],
                         ids=["2^53", "-2^53", "-2^63"])
def test_load_tags_refuses_times_past_2_53_ps(tmp_path, times, record):
    # a replayed dump once loaded them, and float64 rounded 2^53 + 1 ps to 2^53
    path = tmp_path / "tags.bin"
    dump_tags(TimeTags(detector=np.zeros(len(times), dtype=np.uint8),
                       time_ps=np.array(times, dtype=np.int64)), path)
    with pytest.raises(ConfigError, match=f"record {record} has \\|time_ps\\| >= 2\\^53") as e:
        load_tags(path)
    assert str(path) in str(e.value)


def test_load_tags_keeps_times_just_inside_2_53_ps(tmp_path):
    times = [-(2**53 - 1), 0, 2**53 - 1]
    path = tmp_path / "tags.bin"
    dump_tags(TimeTags(detector=np.zeros(3, dtype=np.uint8),
                       time_ps=np.array(times, dtype=np.int64)), path)
    assert load_tags(path).time_ps.tolist() == times
