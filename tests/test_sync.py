"""Sync module: folding, clock recovery, gating and assignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fsbb84.analysis import gate_acceptance
from fsbb84.errors import ConfigError, SyncFailureError
from fsbb84.receiver import TimeTags
from fsbb84.scenario import BUNDLED_NAMES, DRIFT_GUARD_PPM, TrueClock, bundled_scenario
from fsbb84.simulate import expected_offset_ps, simulate_quantum_phase
from fsbb84.sync import (PHASE_BLOCKS, REFIT_BAND, REFIT_HALF_WIDTHS, REFIT_MAX_TAGS, ClockModel,
                         _acquire_drift, _block_regression, _refit_peak, assign_and_gate,
                         fold_histogram, recover_clock)
import reference_chain

PERIOD = 10_000.0
_CLICK_CHUNK = 1 << 20  # pulses per block of click uniforms in _synthetic_stream


def _tags(times, detectors=None, truth=None):
    t = np.asarray(times, dtype=np.int64)
    det = (np.asarray(detectors, dtype=np.uint8) if detectors is not None
           else np.zeros(len(t), dtype=np.uint8))
    return TimeTags(detector=det, time_ps=t,
                    truth_pulse_index=None if truth is None
                    else np.asarray(truth, dtype=np.int64))


def _synthetic_stream(n_pulses, p_click, offset, drift_ppm, bg_rate_cps,
                      sigma_ps, seed, period=PERIOD):
    """Ground-truth tag stream: clicked pulses + uniform background.

    The click uniforms are drawn in chunks; successive draws give the same
    values, and leave the generator in the same state, as one draw of
    ``n_pulses``, so the stream equals the single-draw one.
    """
    rng = np.random.default_rng(seed)
    clicked = np.concatenate([
        np.flatnonzero(rng.random(min(_CLICK_CHUNK, n_pulses - s)) < p_click) + s
        for s in range(0, n_pulses, _CLICK_CHUNK)])
    t_src = clicked * period + rng.normal(0.0, sigma_ps, size=clicked.size)
    rate = 1.0 + drift_ppm * 1e-6
    t_sig = offset + rate * t_src
    span = n_pulses * period * rate
    n_bg = rng.poisson(bg_rate_cps * (n_pulses * period * 1e-12))
    t_bg = offset + rng.random(n_bg) * span
    times = np.concatenate([t_sig, t_bg])
    truth = np.concatenate([clicked, np.full(n_bg, -1, dtype=np.int64)])
    order = np.argsort(times)
    return _tags(np.rint(times[order]).astype(np.int64), truth=truth[order])


# --- fold_histogram ------------------------------------------------------------

def test_fold_on_grid_single_bin():
    times = np.arange(1_000, dtype=np.int64) * 10_000
    hist = fold_histogram(times, PERIOD, 20)
    assert hist[0] == 1_000
    assert hist.sum() == 1_000
    assert np.count_nonzero(hist) == 1


def test_fold_offset_peak_position():
    # 3 ns offset on a 10 ns grid: peak at phase 0.3
    times = np.arange(2_000, dtype=np.int64) * 10_000 + 3_000
    hist = fold_histogram(times, PERIOD, 10)
    assert hist.argmax() == 3


def test_fold_uniform_background_flat():
    rng = np.random.default_rng(5)
    times = rng.integers(0, 10**12, size=100_000)
    hist = fold_histogram(times, PERIOD, 50)
    _, p = stats.chisquare(hist)
    assert p > 0.01
    assert hist.sum() == 100_000


def test_fold_empty_stream():
    hist = fold_histogram(np.array([], dtype=np.int64), PERIOD, 16)
    assert hist.shape == (16,)
    assert hist.sum() == 0


@pytest.mark.parametrize("period", [PERIOD, 12_500.0, 3_000.0])
def test_fold_bin_edges_at_multiples_of_the_period(period):
    # exact multiples open bin 0; one ps earlier is the end of the last bin
    k = np.unique(np.random.default_rng(16).integers(1, 10**9, size=5_000))
    times = (k * int(period)).astype(np.int64)
    assert fold_histogram(times, period, 20)[0] == len(k)
    assert fold_histogram(times - 1, period, 20)[-1] == len(k)


def test_fold_argument_validation():
    with pytest.raises(ValueError):
        fold_histogram(np.array([1]), PERIOD, 1)
    with pytest.raises(ValueError):
        fold_histogram(np.array([1]), 0.0, 8)


# --- recover_clock ---------------------------------------------------------------

def test_recover_clean_zero_clock():
    tags = _synthetic_stream(2_000_000, 0.01, 0.0, 0.0, 0.0, 170.0, seed=1)
    clock = recover_clock(tags.time_ps, PERIOD, coarse_reference_ps=0.0)
    assert abs(clock.offset_ps) < 20.0
    assert abs(clock.drift_ppm) < 0.05
    assert clock.residual_rms_ps < 600.0


def test_recover_drift_and_offset_at_link_snr():
    # +20 ppm, offset 1234 ps, rates as in the 780 m beam-expander run
    # (p_click ~ 3.2e-4, 1500 c/s noise x4), 1 s of stream
    tags = _synthetic_stream(100_000_000, 3.2e-4, 1234.0, 20.0, 6_000.0,
                             171.0, seed=2)
    clock = recover_clock(tags.time_ps, PERIOD, coarse_reference_ps=1234.0)
    assert abs(clock.drift_ppm - 20.0) < 0.5
    assert abs(clock.offset_ps - 1234.0) < 50.0


def test_recover_centres_gate_at_low_signal_to_background():
    # table2_collimators at 0.1 s: ~320 signal tags under ~1000 background
    # tags, 200 ps pulses and 350 ps jitter, 400 ps gate. A clock offset
    # error comparable to the timing sigma shows as lost acceptance.
    sigma = math.hypot(200.0, 350.0) / (2 * math.sqrt(2 * math.log(2)))
    expected = gate_acceptance(400.0, 200.0, 350.0)
    acc = []
    for seed in range(32):
        tags = _synthetic_stream(10_000_000, 3.17e-5, -9_021.0, -5.0, 10_000.0,
                                 sigma, seed=1_000 + seed)
        clock = recover_clock(tags.time_ps, PERIOD, coarse_reference_ps=-9_021.0)
        asg = assign_and_gate(tags, clock, 400.0)
        sig = tags.truth_pulse_index >= 0
        hit = (asg.truth_pulse_index >= 0) & (asg.pulse_index == asg.truth_pulse_index)
        acc.append(hit.sum() / sig.sum())
    assert abs(np.mean(acc) / expected - 1.0) < 0.02, (np.mean(acc), expected)


def test_recover_refined_stream_passes_significance_guard():
    # Folded at a drift 0.02 ppm off (one step of a coarse drift grid) this
    # stream's peak is 2.5-2.8x the median, under the guard's 3x; the FFT
    # acquisition, whose first sub-span holds this whole 0.1 s stream, stops
    # 0.008 ppm off (4.3x), and the guard judges the refined mapping
    # (0.0003 ppm off, 8x).
    sc = bundled_scenario("table2_collimators", seed=500015).override({"duration_s": 0.1})
    qp = simulate_quantum_phase(sc)
    assert abs(qp.clock.drift_ppm - sc.sync.true_clock.drift_ppm) < 0.5


def test_recover_background_only_fails():
    rng = np.random.default_rng(3)
    times = np.sort(rng.integers(0, 10**12, size=60_000))
    with pytest.raises(SyncFailureError):
        recover_clock(times, PERIOD, coarse_reference_ps=0.0)


def test_recover_needs_enough_tags():
    with pytest.raises(SyncFailureError):
        recover_clock(np.arange(999) * 10_000, PERIOD, coarse_reference_ps=0.0)


def test_recover_beacon_assisted_skips_search():
    tags = _synthetic_stream(5_000_000, 1e-3, -777.0, -20.0, 1_000.0, 171.0, seed=4)
    clock = recover_clock(tags.time_ps, PERIOD, known_drift_ppm=-20.0,
                          coarse_reference_ps=-777.0)
    assert abs(clock.drift_ppm + 20.0) < 0.1
    assert abs(clock.offset_ps + 777.0) < 50.0


def test_recover_negative_drift():
    tags = _synthetic_stream(20_000_000, 3.2e-4, 55_555.0, -20.0, 6_000.0,
                             171.0, seed=5)
    clock = recover_clock(tags.time_ps, PERIOD, coarse_reference_ps=55_555.0)
    assert abs(clock.drift_ppm + 20.0) < 0.5
    assert abs(clock.offset_ps - 55_555.0) < 50.0


def _coherence(tau, period_ps, drifts):
    """Reference acquisition: |mean phasor| of tau folded at P(1+d), per d."""
    scores = np.empty(len(drifts))
    step = max(1, int(4e6 // len(tau)))  # keeps the outer product small
    for i in range(0, len(drifts), step):
        d = drifts[i:i + step]
        ph = 2.0 * np.pi * (tau[None, :] / (period_ps * (1.0 + d[:, None])))
        scores[i:i + step] = np.abs(np.exp(1j * ph).mean(axis=1))
    return scores


_ACQUISITION_CASES = [
    (1_000_000, 1e-2, 37.3, 1_500.0, 11),  # dense
    (10_000_000, 3.2e-4, -20.0, 6_000.0, 12),  # 780 m link SNR
    (10_000_000, 3.17e-5, -5.0, 10_000.0, 13),  # ~300 signal under ~1000 background
]


@pytest.mark.parametrize("n_pulses, p_click, drift_ppm, bg_cps, seed", _ACQUISITION_CASES)
def test_fft_acquisition_matches_brute_force_coherence(n_pulses, p_click, drift_ppm,
                                                       bg_cps, seed):
    tags = _synthetic_stream(n_pulses, p_click, 2_468.0, drift_ppm, bg_cps, 171.0,
                             seed=seed)
    t = tags.time_ps.astype(np.float64)
    tau = t - t[0]
    # the grid of the finest resolution acquisition needs: a quarter period
    # of slip across the stream per step
    step = PERIOD / (4.0 * tau[-1])
    k = int(DRIFT_GUARD_PPM * 1e-6 / step)
    grid = np.arange(-k, k + 1) * step
    ref = grid[np.argmax(_coherence(tau, PERIOD, grid))]
    assert abs(ref - drift_ppm * 1e-6) <= step
    assert abs(_acquire_drift(tau, PERIOD) - ref) <= step


@pytest.mark.parametrize("drift_ppm", [95.0, -95.0])
def test_acquire_drift_near_guard_on_long_stream(drift_ppm):
    # 1 s of stream: mapping the tone frequency f to drift linearly (d = fP)
    # instead of by d = fP / (1 - fP) is d^2 = 0.009 ppm, ~3.6 steps, off.
    n_pulses = 100_000_000
    rng = np.random.default_rng(14)
    clicked = np.cumsum(rng.geometric(3.2e-4, size=40_000)) - 1
    clicked = clicked[clicked < n_pulses]
    t_sig = (1.0 + drift_ppm * 1e-6) * (clicked * PERIOD + rng.normal(0.0, 171.0, clicked.size))
    t_bg = rng.random(6_000) * n_pulses * PERIOD
    t = np.sort(np.rint(np.concatenate([t_sig, t_bg])))
    tau = t - t[0]
    step = PERIOD / (4.0 * tau[-1])
    assert abs(_acquire_drift(tau, PERIOD) - drift_ppm * 1e-6) <= step
    clock = recover_clock(t.astype(np.int64), PERIOD, coarse_reference_ps=0.0)
    assert abs(clock.drift_ppm - drift_ppm) < 0.5
    assert abs(clock.offset_ps) < 50.0


def _long_stream(seconds, p_click, drift_ppm, bg_rate_cps, seed, offset=2_468.0):
    """Tag times of a long stream: clicked pulses drawn by geometric gaps, plus background."""
    n_pulses = round(seconds * 1e12 / PERIOD)
    rng = np.random.default_rng(seed)
    clicked = np.cumsum(rng.geometric(p_click, size=int(1.2 * n_pulses * p_click) + 100)) - 1
    clicked = clicked[clicked < n_pulses]
    rate = 1.0 + drift_ppm * 1e-6
    t_sig = offset + rate * (clicked * PERIOD + rng.normal(0.0, 171.0, clicked.size))
    t_bg = offset + rng.random(rng.poisson(bg_rate_cps * seconds)) * n_pulses * PERIOD * rate
    return np.sort(np.rint(np.concatenate([t_sig, t_bg])).astype(np.int64))


def _record_fft_lengths(mp):
    """Patch np.fft.fft through ``mp`` to record each transform's length; returns the list."""
    lengths = []
    fft = np.fft.fft

    def recording_fft(a, *args, **kwargs):
        lengths.append(len(a))
        return fft(a, *args, **kwargs)

    mp.setattr(np.fft, "fft", recording_fft)
    return lengths


@pytest.mark.parametrize("n_pulses, p_click, drift_ppm, bg_cps, seed", _ACQUISITION_CASES)
def test_acquisition_past_first_sub_span(n_pulses, p_click, drift_ppm, bg_cps, seed):
    # the acquisition cases' SNRs over 1 s: FFT on a leading sub-span, then
    # the regressions hand the drift on to the whole stream
    t = _long_stream(1.0, p_click, drift_ppm, bg_cps, seed=seed + 10)
    tau = t - t[0].astype(np.float64)
    assert abs(_acquire_drift(tau, PERIOD) - drift_ppm * 1e-6) <= PERIOD / (4.0 * tau[-1])


@pytest.mark.parametrize("signal_cps, bg_cps, drift_ppm, seed", [(300, 1_000, -5.0, 40),
                                                                 (200, 1_500, 20.0, 41)])
def test_weak_stream_tries_at_most_half_a_whole_stream_fft(monkeypatch, signal_cps, bg_cps,
                                                           drift_ppm, seed):
    # a background-level peak on the first sub-span of these 10 s streams
    # points 64-fold past it, to a 2^19-point sub-span that would take the
    # sub-spans past half the whole stream's 2^20 points, so the whole
    # stream is transformed next
    lengths = _record_fft_lengths(monkeypatch)
    t = _long_stream(10.0, signal_cps * PERIOD * 1e-12, drift_ppm, bg_cps, seed=seed)
    clock = recover_clock(t, PERIOD, coarse_reference_ps=2_468.0)
    assert lengths == [1 << 13, 1 << 20]
    assert abs(clock.drift_ppm - drift_ppm) < 0.5


@pytest.mark.parametrize("signal_cps, bg_cps, drift_ppm", [(300, 1_000, -5.0),
                                                           (200, 1_500, 20.0)])
@pytest.mark.parametrize("seed", range(5))
def test_recover_sparse_long_stream(monkeypatch, signal_cps, bg_cps, drift_ppm, seed):
    # no leading sub-span of these 1 s streams reaches the acquisition's
    # peak-to-median threshold; the first one's background-level peak
    # points past the stream's end, so the whole stream is transformed next
    lengths = _record_fft_lengths(monkeypatch)
    t = _long_stream(1.0, signal_cps * PERIOD * 1e-12, drift_ppm, bg_cps, seed=30 + seed)
    clock = recover_clock(t, PERIOD, coarse_reference_ps=2_468.0)
    assert lengths == [1 << 13, 1 << 17]
    assert abs(clock.drift_ppm - drift_ppm) < 0.5


def test_acquisition_fft_length_does_not_follow_session_length(monkeypatch):
    # 60 s of 3000 signal under 1000 background tags/s: the whole stream
    # would take a 2^23-point FFT; a 0.2 s sub-span (2^14 points) reaches
    # the peak-to-median threshold
    lengths = _record_fft_lengths(monkeypatch)
    t = _long_stream(60.0, 3e-5, -37.3, 1_000.0, seed=50)
    clock = recover_clock(t, PERIOD, coarse_reference_ps=2_468.0)
    assert lengths and max(lengths) <= 1 << 15, lengths
    assert abs(clock.drift_ppm + 37.3) < 0.5
    assert abs(clock.offset_ps - 2_468.0) < 50.0


# --- agreement with the reference clock recovery ----------------------------------

def _assert_matches_reference(tags, period, gate_width_ps, **kwargs):
    """recover_clock against reference_recover_clock: same clock, same gating.

    The float32 phasors move the block regression's intercept by ~2e-4 ps
    (at most 2.4e-7 rad, 4e-4 ps, per tag); the refit takes the final
    clock to the same fixed point within ~3e-5 ps.
    """
    tau = tags.time_ps - tags.time_ps[0].astype(np.float64)
    if kwargs.get("known_drift_ppm") is None:
        with pytest.MonkeyPatch.context() as mp:
            lengths = _record_fft_lengths(mp)
            d0 = reference_chain._acquire_drift(tau, period)
            d = _acquire_drift(tau, period)
        # ended on the reference's whole-stream FFT, acquisition is the
        # reference's arithmetic; ended on a sub-span's, the regressions'
        # drift is within one resolution step of it
        whole = lengths[-1] == lengths[0]
        assert abs(d - d0) <= (1e-12 if whole else period / (4.0 * tau[-1]))
    else:
        d0 = kwargs["known_drift_ppm"] * 1e-6
    u = tau / (1.0 + d0)
    slope, a = _block_regression(tau, 1.0 + d0, period)
    ref_slope, ref_a = reference_chain._block_regression(u, period, PHASE_BLOCKS)
    assert abs(slope - ref_slope) <= 1e-14 and abs(a - ref_a) <= 1e-3

    clock = recover_clock(tags.time_ps, period, **kwargs)
    ref = reference_chain.reference_recover_clock(tags.time_ps, period,
                                                  block_count=PHASE_BLOCKS, **kwargs)
    assert abs(clock.drift_ppm - ref.drift_ppm) <= 1e-6
    assert abs(clock.offset_ps - ref.offset_ps) <= 1e-3
    assert abs(clock.residual_rms_ps - ref.residual_rms_ps) <= 1e-3
    got, want = (assign_and_gate(tags, c, gate_width_ps) for c in (clock, ref))
    assert np.array_equal(got.pulse_index, want.pulse_index)
    assert np.array_equal(got.detector, want.detector)
    assert got.rejected_count == want.rejected_count


@pytest.mark.parametrize("end", [19_326_174_793, 19_089_178_413])
def test_block_regression_scales_run_by_run_bit_for_bit(end):
    # At these stream ends, a time next to some edge * scale divides to the
    # edge's other side (the float just below it to the edge or past, or
    # edge * scale itself to below it), so a search on tau alone would put
    # that tag in the wrong block. Placed by the division, the blocks and
    # their sums are the divided stream's bit for bit.
    scale = 1.0 + 37.3e-6
    edges = np.linspace(0.0, end / scale + 1e-9, PHASE_BLOCKS + 1)[1:-1]
    at = edges * scale
    below = np.nextafter(at, 0.0)
    assert np.any(below / scale >= edges) or np.any(at / scale < edges)
    k = np.sort(np.random.default_rng(24).choice(end // 10_010, 40_000, replace=False))
    tau = np.sort(np.concatenate([np.rint(k * PERIOD * scale), below, at, [0.0, end]]))
    assert _block_regression(tau, scale, PERIOD) == _block_regression(tau / scale, 1.0, PERIOD)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_recover_clock_matches_reference_on_bundled_streams(name):
    sc = bundled_scenario(name, seed=7).override({"protocol.n_pulses": 20_000_000})
    tags = simulate_quantum_phase(sc).tags
    known = sc.sync.true_clock.drift_ppm if sc.sync.beacon_assisted else None
    _assert_matches_reference(tags, sc.source.period_ps, sc.sync.gate_width_ps,
                              known_drift_ppm=known,
                              coarse_reference_ps=expected_offset_ps(sc))


@pytest.mark.parametrize("n_pulses, p_click, drift_ppm, bg_cps, seed", _ACQUISITION_CASES)
def test_recover_clock_matches_reference_on_synthetic_streams(n_pulses, p_click, drift_ppm,
                                                              bg_cps, seed):
    tags = _synthetic_stream(n_pulses, p_click, 2_468.0, drift_ppm, bg_cps, 171.0, seed=seed)
    _assert_matches_reference(tags, PERIOD, 500.0, coarse_reference_ps=2_468.0)


def test_recover_clock_matches_reference_past_refit_stride():
    # A dense_short_link-sized stream (~2e5 tags): over 2 * REFIT_MAX_TAGS
    # signal tags lie near the peak, so the refit keeps every third or so.
    tags = _synthetic_stream(2_000_000, 0.1, 2_468.0, 60.0, 1e6, 171.0, seed=17)
    assert np.count_nonzero(tags.truth_pulse_index >= 0) > 2 * REFIT_MAX_TAGS
    _assert_matches_reference(tags, PERIOD, 500.0, coarse_reference_ps=2_468.0)


def _assert_refit_matches_reference(t, offset, rate, gate_width_ps=500.0):
    """_refit_peak against the reference's re-selecting refit from one start.

    Within _assert_matches_reference's tolerances on the clock, and the same gating.
    """
    got, want = (ClockModel(offset_ps=float(o), drift_ppm=(r - 1.0) * 1e6,
                            residual_rms_ps=0.0, period_ps=PERIOD)
                 for o, r in (_refit_peak(t, offset, rate, PERIOD),
                              reference_chain._refit_peak(t.astype(np.float64), offset, rate,
                                                          PERIOD)))
    assert abs(got.drift_ppm - want.drift_ppm) <= 1e-6
    assert abs(got.offset_ps - want.offset_ps) <= 1e-3
    tags = _tags(t)
    a, b = (assign_and_gate(tags, c, gate_width_ps) for c in (got, want))
    assert np.array_equal(a.pulse_index, b.pulse_index) and a.rejected_count == b.rejected_count
    return want


def test_band_refit_matches_reference_from_far_start():
    # 0.2 s of stream started 300 ps and 1e-9 in rate off its clock: the
    # first P/8 pass moves the line by ~400 ps at the stream's ends, past
    # that window's band, so the tags are counted again under the new line
    t = _long_stream(0.2, 5e-4, 0.0, 20_000.0, seed=70)
    offset, rate = 2_468.0 + 300.0, 1.0 + 1e-9
    assert 300.0 + 1e-9 * (t[-1] - t[0]) / 2 > REFIT_BAND * REFIT_HALF_WIDTHS[0] * PERIOD
    clock = _assert_refit_matches_reference(t, offset, rate)
    assert abs(clock.offset_ps - 2_468.0) < 10.0 and abs(clock.drift_ppm) < 1e-3


def test_band_refit_matches_reference_when_narrowest_window_is_empty():
    # 150 pulses, each with one tag 450-1,200 ps early and one as late: the
    # fitted line stays near the grid, the P/8 and P/16 windows keep tags
    # and the P/32 one fewer than 2, so its passes stop at the first
    rng = np.random.default_rng(71)
    k = np.sort(rng.choice(10**7, 150, replace=False))
    r = rng.uniform(450.0, 1_200.0, k.size)
    t = np.sort(np.rint(2_468.0 + np.concatenate([k * PERIOD - r, k * PERIOD + r]))
                .astype(np.int64))
    clock = _assert_refit_matches_reference(t, 2_468.0, 1.0)
    res = (t - clock.offset_ps) / clock.rate
    res -= np.rint(res / PERIOD) * PERIOD
    assert np.count_nonzero(np.abs(res) <= REFIT_HALF_WIDTHS[-1] * PERIOD) < 2
    assert np.count_nonzero(np.abs(res) <= REFIT_HALF_WIDTHS[1] * PERIOD) >= 2


@pytest.mark.parametrize("name, duration_s", [
    ("table2_collimators", 2.0), ("table1_run2_retro", 2.0),
    ("table2_beam_expanders", 0.5), ("table1_run1_retro", 0.5),
    ("table2_beam_expanders", 2.0), ("table1_run1_retro", 2.0)])
def test_refit_ends_at_a_fixed_point(monkeypatch, name, duration_s):
    # One more P/32 refit from the recovered clock leaves it where it was:
    # each window ran until its selection repeated, and the tags it fits
    # are fixed by their place in the stream, not by the starting mapping.
    # The last two streams keep every second near tag or fewer.
    sc = bundled_scenario(name).override({"duration_s": duration_s})
    quantum = simulate_quantum_phase(sc)
    clock, t = quantum.clock, quantum.tags.time_ps
    monkeypatch.setattr("fsbb84.sync.REFIT_HALF_WIDTHS", (1 / 32,))
    offset, _ = _refit_peak(t, clock.offset_ps, clock.rate, sc.source.period_ps)
    assert abs(offset - clock.offset_ps) < 1e-3


# --- assign_and_gate ---------------------------------------------------------------

def _clock(offset=0.0, drift=0.0):
    return ClockModel(offset_ps=offset, drift_ppm=drift, residual_rms_ps=0.0,
                      period_ps=PERIOD)


def test_gate_full_period_rejects_nothing():
    rng = np.random.default_rng(6)
    times = np.sort(rng.integers(0, 10**9, size=10_000))
    asg = assign_and_gate(_tags(times), _clock(), 10_000.0)
    assert asg.rejected_count == 0
    assert len(asg) == 10_000


def test_gate_background_acceptance_fraction():
    # 500 ps gate on a 10 ns period accepts 5% of uniform background
    rng = np.random.default_rng(7)
    n = 400_000
    times = np.sort(rng.integers(0, 10**12, size=n))
    asg = assign_and_gate(_tags(times), _clock(), 500.0)
    frac = len(asg) / n
    sigma = math.sqrt(0.05 * 0.95 / n)
    assert abs(frac - 0.05) < 3 * sigma


def test_gate_erf_acceptance_of_jittered_signal():
    # 350 ps FWHM Gaussian, 500 ps gate: erf-based ~90.7% acceptance
    rng = np.random.default_rng(8)
    n = 500_000
    sigma_t = 350.0 / (2 * math.sqrt(2 * math.log(2)))
    times = np.rint(np.arange(n) * 10_000 + rng.normal(0, sigma_t, n)).astype(np.int64)
    asg = assign_and_gate(_tags(np.sort(times)), _clock(), 500.0)
    expected = math.erf(250.0 / (sigma_t * math.sqrt(2)))
    assert abs(expected - 0.9074) < 5e-4  # oracle sanity pin
    frac = len(asg) / n
    s = math.sqrt(expected * (1 - expected) / n)
    assert abs(frac - expected) < 3 * s


def test_assignment_exact_without_noise():
    idx = np.arange(5_000, dtype=np.int64)
    times = idx * 10_000
    asg = assign_and_gate(_tags(times, truth=idx), _clock(), 500.0)
    assert np.array_equal(asg.pulse_index, idx)
    assert np.array_equal(asg.truth_pulse_index, idx)
    assert asg.rejected_count == 0


def test_assignment_under_recovered_clock():
    clk = TrueClock(offset_ps=12_345.0, drift_ppm=15.0)
    idx = np.arange(100_000, dtype=np.int64)
    times = np.rint(clk.to_receiver(idx * 10_000.0)).astype(np.int64)
    model = ClockModel(offset_ps=12_345.0, drift_ppm=15.0, residual_rms_ps=0.0,
                       period_ps=PERIOD)
    asg = assign_and_gate(_tags(times), model, 500.0)
    assert np.array_equal(asg.pulse_index, idx)


def test_tie_breaks_to_lower_index():
    # exactly half a period off the grid: goes to the lower slot (only the
    # full-period gate can accept such a tag at all)
    times = np.array([5_000, 15_000], dtype=np.int64)
    asg = assign_and_gate(_tags(times), _clock(), 10_000.0)
    assert list(asg.pulse_index) == [0, 1]


def test_assignment_order_preserving_and_unique_mapping():
    rng = np.random.default_rng(9)
    times = np.sort(rng.integers(0, 10**10, size=50_000))
    asg = assign_and_gate(_tags(times), _clock(), 2_000.0)
    # one output per accepted tag, in input order
    assert np.all(np.diff(asg.pulse_index) >= 0)
    again = assign_and_gate(_tags(times), _clock(), 2_000.0)
    assert np.array_equal(asg.pulse_index, again.pulse_index)


@st.composite
def _gate_inputs(draw):
    """Sorted tag times (ties, points next to half a period) under a clock and a gate."""
    P = draw(st.sampled_from([PERIOD, 9_973.0]))
    offset = draw(st.one_of(st.integers(-10**6, 10**6).map(float), st.floats(-1e6, 1e6)))
    drift = draw(st.one_of(st.just(0.0), st.floats(-DRIFT_GUARD_PPM, DRIFT_GUARD_PPM)))
    rate = 1.0 + drift * 1e-6
    half = st.integers(-3, 10**9).map(lambda k: round(offset + rate * (k + 0.5) * P))
    near_half = st.tuples(half, st.integers(-2, 2)).map(sum)
    times = draw(st.lists(st.one_of(st.integers(-10**6, 10**13), half, near_half),
                          max_size=200))
    times += times[:draw(st.integers(0, len(times)))]  # repeats make ties
    gate = draw(st.floats(0.0, P, exclude_min=True, exclude_max=True))
    clock = ClockModel(offset_ps=offset, drift_ppm=drift, residual_rms_ps=0.0, period_ps=P)
    return np.sort(np.array(times, dtype=np.int64)), clock, gate


@settings(max_examples=300, deadline=None, database=None)
@given(_gate_inputs())
def test_gate_keeps_pulse_order(inputs):
    # click resolution, the in-train prefix and Bob's report all take this
    # order as given
    times, clock, gate = inputs
    asg = assign_and_gate(_tags(times), clock, gate)
    assert asg.pulse_index.dtype == np.int64
    assert np.all(asg.pulse_index[1:] >= asg.pulse_index[:-1])
    assert len(asg) + asg.rejected_count == len(times)


def test_negative_slots_rejected():
    times = np.array([-20_000, 0, 10_000], dtype=np.int64)
    asg = assign_and_gate(_tags(times), _clock(), 500.0)
    assert asg.pulse_index.min() >= 0
    assert asg.rejected_count == 1


def test_true_clock_guard():
    with pytest.raises(ConfigError):
        TrueClock(drift_ppm=150.0)
