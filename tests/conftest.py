"""Shared fixtures: compact scenarios that run in milliseconds."""

import struct
import zlib

import pytest

from fsbb84.protocol.framing import VERSION
from fsbb84.scenario import (ChannelConfig, ReceiverConfig, Scenario, SessionParams, SourceConfig,
                             SyncSettings, TrueClock)


def make_fast_scenario(name="fast", duration_s=0.002, seed=100, *,
                       mu=0.1, extra_loss_db=6.0, efficiency_db=3.0,
                       misalignment_deg=0.0, background_cps=0.0,
                       jitter_fwhm_ps=0.0, dead_time_ns=0.0,
                       offset_ps=4321.0, drift_ppm=5.0, gate_width_ps=500.0,
                       qber_abort_threshold=0.10, sample_fraction=1.0,
                       fading_sigma=0.0, retro=False) -> Scenario:
    """High-rate, low-loss scenario: plenty of clicks from few pulses."""
    return Scenario(
        name=name,
        duration_s=duration_s,
        source=SourceConfig(mu_per_state=(mu, mu, mu, mu), rng_seed=seed),
        channel=ChannelConfig(
            distance_m=0.0, tx_beam_diameter_e2_cm=3.48,
            rx_aperture_diameter_e2_cm=500.0, visibility_km=1e6,
            extra_loss_db=extra_loss_db, retro_mode=retro,
            splitter_penalty_db=6.0 if retro else 0.0,
            fading_sigma=fading_sigma, propagation_delay_ps=1_000_000,
            rng_seed=seed + 1),
        receiver=ReceiverConfig(
            efficiency_db=efficiency_db, misalignment_deg=misalignment_deg,
            background_rate_cps_per_apd=background_cps,
            jitter_fwhm_ps=jitter_fwhm_ps, dead_time_ns=dead_time_ns,
            tag_resolution_ps=1, rng_seed=seed + 2),
        sync=SyncSettings(gate_width_ps=gate_width_ps,
                          true_clock=TrueClock(offset_ps=offset_ps, drift_ppm=drift_ppm)),
        protocol=SessionParams(
            session_id=1, qber_abort_threshold=qber_abort_threshold,
            sample_fraction=sample_fraction, rng_seed=seed + 3),
        metadata={"purpose": "test"},
    )


def crc_valid_frame(mtype, payload: bytes, version: int = VERSION) -> bytes:
    """A frame that passes the checksum whatever its header and payload hold."""
    header = struct.pack("<4sBBI", b"QKD1", version, int(mtype), len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(header + payload))


@pytest.fixture
def fast_scenario():
    return make_fast_scenario()
