"""Seeded sessions pinned to their exact integer outcomes.

A refactor that claims byte-identical reports must leave every count
below unchanged. Only integers are pinned (no libm-dependent floats), so
a failure names the count that moved. The sessions cover multi-clicks
resolved by ``random_bit`` and dropped by ``discard``, beacon-assisted
sync, the retro link's weak V emitter under acquired drift, and a faded
daylight link. The block size of the chain's elementwise passes moves
none of them.
"""

import numpy as np
import pytest

from conftest import make_fast_scenario
from fsbb84 import analysis, channel, receiver, seeds, source, sync
from fsbb84.protocol import framing, session, transport
from fsbb84.runner import run_in_process
from fsbb84.scenario import DISCARD, RANDOM_BIT, bundled_scenario


def _dense(policy=RANDOM_BIT):
    # 0 m link, lossless receiver: ~4.5e-2 tags per pulse, hundreds of
    # multi-click pulses; a sampled QBER keeps three quarters of the key.
    return bundled_scenario("table2_beam_expanders", seed=5).override({
        "channel.distance_m": 0.0, "channel.extra_loss_db": 3.0,
        "receiver.efficiency_db": 0.0, "receiver.misalignment_deg": 6.0,
        "receiver.double_click_policy": policy,
        "protocol.n_pulses": 1_000_000, "protocol.sample_fraction": 0.25})


def _bundled(name, seed, beacon=False, **channel):
    return bundled_scenario(name, seed=seed).override({
        **{f"channel.{k}": v for k, v in channel.items()},
        "sync.beacon_assisted": beacon, "protocol.n_pulses": 20_000_000})


def _counts(arrivals, tags, per_detector, accepted, rejected, multi, discarded, reported):
    return {"arrivals": arrivals, "tags_total": tags,
            "tags_per_detector": dict(zip("HVDA", per_detector)),
            "tags_gate_accepted": accepted, "tags_gate_rejected": rejected,
            "multi_click_pulses": multi, "multi_click_discarded": discarded,
            "reported_pulses": reported}


# name -> (scenario, Bob's counts, sifted, remaining, (disclosed, errors))
CASES = {
    "dense_random_bit": (
        lambda: _dense(),
        _counts(47553, 44753, (11103, 11309, 11157, 11184), 38311, 6442, 452, 0, 37858),
        19029, 14271, (4758, 65)),
    "dense_discard": (
        lambda: _dense(DISCARD),
        _counts(47553, 44753, (11103, 11309, 11157, 11184), 38311, 6442, 452, 452, 37406),
        18842, 14131, (4711, 52)),
    "daylight_beacon": (
        lambda: _bundled("table2_beam_expanders", 6, beacon=True),
        _counts(6519, 7710, (1910, 1860, 2042, 1898), 5638, 2072, 1, 0, 5637),
        2784, 0, (2784, 54)),
    "retro_weak_v": (
        lambda: _bundled("table1_run1_retro", 7),
        _counts(3810, 6999, (2058, 1455, 1682, 1804), 3405, 3594, 0, 0, 3405),
        1732, 0, (1732, 72)),
    # 1 ms fading blocks: each shard spans 42 blocks (factors 0.41-1.96),
    # so every pulse is re-thinned to its own block's survival
    "daylight_faded": (
        lambda: _bundled("table2_beam_expanders", 8, fading_sigma=0.3, fading_block_ms=1.0),
        _counts(6395, 7537, (1873, 1871, 1866, 1927), 5558, 1979, 0, 0, 5558),
        2773, 0, (2773, 64)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_seeded_session_outcome_is_pinned(name):
    make, counts, sifted, remaining, (disclosed, errors) = CASES[name]
    bob, alice, _ = run_in_process(make())
    assert bob.counts == counts
    for party in (bob, alice):
        assert not party.abort
        assert (party.sifted_key_length, party.remaining_key_length) == (sifted, remaining)
        assert (party.qber.disclosed_count, party.qber.error_count) == (disclosed, errors)


def _chain_outputs(sc, monkeypatch):
    """The photons at the APDs, and the session run on them with every frame it sends."""
    rx, frames = sc.receiver, []
    monkeypatch.setattr(transport, "encode_frame",
                        lambda message: frames.append(framing.encode_frame(message)) or frames[-1])
    photons = channel.transmit_stream(sc.source, sc.channel, sc.n_pulses, rx.efficiency,
                                      analysis.analyzer_table(rx.misalignment_deg),
                                      true_clock=sc.sync.true_clock)
    bob, alice, quantum = run_in_process(sc)
    return photons, bob, alice, quantum, frames


def test_outputs_do_not_depend_on_block(monkeypatch):
    # Two shards of 2^22 pulses each, with jitter, dead time and background;
    # the second run fades and flips retro states too.
    plain = make_fast_scenario(duration_s=0.05, jitter_fwhm_ps=350.0, dead_time_ns=50.0,
                               background_cps=20_000.0)
    faded = make_fast_scenario(duration_s=0.05, jitter_fwhm_ps=350.0, dead_time_ns=50.0,
                               background_cps=20_000.0, fading_sigma=0.5, retro=True
                               ).override({"channel.retro_flip_prob": 0.05})
    assert plain.n_pulses > source.SHARD_SIZE
    for sc in (plain, faded):
        runs = []
        for block in (seeds.BLOCK, 1_000, 1 << 20):
            for module in (source, channel, receiver, sync, session):
                monkeypatch.setattr(module, "BLOCK", block)
            runs.append(_chain_outputs(sc, monkeypatch))
        photons, bob, alice, quantum, frames = runs[0]
        assert not bob.abort and len(frames) > 5
        for got_photons, got_bob, got_alice, got, got_frames in runs[1:]:
            for column in ("pulse_index", "state", "detector", "arrival_time_ps"):
                assert np.array_equal(getattr(got_photons, column), getattr(photons, column))
            assert np.array_equal(got.tags.time_ps, quantum.tags.time_ps)
            assert np.array_equal(got.tags.detector, quantum.tags.detector)
            assert got.clock == quantum.clock
            assert got_bob.canonical_json() == bob.canonical_json()
            assert got_alice.canonical_json() == alice.canonical_json()
            assert got_frames == frames
