"""Reference pulses-to-APD chain, photon by photon.

This is the model that :func:`fsbb84.channel.transmit_stream` folds into
one Poisson thinning, kept as an independent reference:

* :func:`build_pulse_train` materializes every pulse of a source: its
  state, its photon number and its emission time;
* :func:`transmit` thins a materialized pulse train photon by photon
  through the link (binomial survival per fading block), flips the state
  of a retro pulse, and applies the propagation delay and Bob's clock;
* :func:`analyze` then gives each photon at the aperture the lumped
  receiver efficiency as one Bernoulli trial, a passive 50/50 basis choice
  and a Malus-law projection onto the misaligned analyzer.

:func:`transmit` and :func:`analyze` draw from their own generators, so
they share no random numbers with the library.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fsbb84.channel import PhotonArrivals, fading_factor, total_link_loss_db
from fsbb84.errors import ConfigError
from fsbb84.seeds import STREAM_CHANNEL, STREAM_EMIT_JITTER, spawn
from fsbb84.source import (SHARD_SIZE, STATE_ANGLES_DEG, SourceConfig, emit_jitter_ps,
                           generate_shard, pulse_states)


@dataclass
class PulseTrain:
    """Materialized pulse train (struct of arrays, index = 0..n-1)."""

    config: SourceConfig
    basis: np.ndarray
    bit: np.ndarray
    photon_count: np.ndarray
    emit_time_ps: np.ndarray

    @property
    def state(self) -> np.ndarray:
        return (2 * self.basis + self.bit).astype(np.uint8)


def build_pulse_train(config: SourceConfig, n_pulses: int) -> PulseTrain:
    """Materialize a full pulse train.

    States are the hash that :func:`fsbb84.source.pulse_states` computes
    and photon numbers come from :func:`fsbb84.source.generate_shard`.
    Emission jitter has its own stream per shard, so emission times do not
    depend on mu. A session (:func:`fsbb84.channel.transmit_stream`) shares
    these states but draws its own photon numbers and jitter.
    """
    if n_pulses <= 0:
        raise ConfigError("must be > 0 (empty train)", "n_pulses")
    index = np.arange(n_pulses, dtype=np.int64)
    states = pulse_states(config, index)
    counts = np.zeros(n_pulses, dtype=np.uint16)
    jitter = np.empty(n_pulses)
    for start in range(0, n_pulses, SHARD_SIZE):
        n = min(SHARD_SIZE, n_pulses - start)
        shard = generate_shard(config, start // SHARD_SIZE, n)
        counts[start + shard.position] = shard.photon_count
        jg = spawn(config.rng_seed, STREAM_EMIT_JITTER, start // SHARD_SIZE)
        jitter[start:start + n] = emit_jitter_ps(config, jg, n)
    return PulseTrain(
        config=config,
        basis=states >> 1,
        bit=states & 1,
        photon_count=counts,
        emit_time_ps=np.rint(index * config.period_ps + jitter).astype(np.int64),
    )


class ApertureArrivals(NamedTuple):
    """Photons at Bob's aperture, before his bench."""

    pulse_index: np.ndarray  # int64
    state: np.ndarray  # uint8, after any retro flip
    arrival_time_ps: np.ndarray  # int64


def transmit(train, config, true_clock=None) -> ApertureArrivals:
    """Propagate a materialized pulse train, photon by photon.

    Output is sorted by arrival time with pulse order preserved on ties.
    """
    g = spawn(config.rng_seed, STREAM_CHANNEL)
    pos = np.nonzero(train.photon_count)[0]
    block = pos * int(train.config.period_ps) // int(config.fading_block_ms * 1e9)
    n_blocks = int(block.max()) + 1 if pos.size else 0
    factors = np.array([fading_factor(config, b) for b in range(n_blocks)])
    transmittance = 10.0 ** (-total_link_loss_db(config, train.config.wavelength_nm) / 10.0)
    p = np.minimum(transmittance * factors, 1.0)
    n_phot = g.binomial(train.photon_count[pos].astype(np.int64), p[block])
    pos, n_phot = pos[n_phot > 0], n_phot[n_phot > 0]
    states = train.state[pos]
    if config.retro_mode and config.retro_flip_prob > 0.0:
        states[g.random(pos.size) < config.retro_flip_prob] ^= 1
    t = train.emit_time_ps[pos].astype(np.float64) + config.delay_ps()
    if true_clock is not None:
        t = true_clock.to_receiver(t)
    t = np.rint(t).astype(np.int64)
    index, states, t = np.repeat(pos, n_phot), np.repeat(states, n_phot), np.repeat(t, n_phot)
    order = np.argsort(t, kind="stable")
    return ApertureArrivals(pulse_index=index[order], state=states[order],
                            arrival_time_ps=t[order])


def analyze(arrivals: ApertureArrivals, efficiency: float, misalignment_deg: float,
            seed: int) -> PhotonArrivals:
    """The photons at the aperture that reach an APD, each with its APD."""
    g = np.random.default_rng(seed)
    passed = g.random(len(arrivals.state)) < efficiency
    states = arrivals.state[passed]
    bases = g.integers(0, 2, size=states.size)
    axis = 45.0 * bases + misalignment_deg
    p_first = np.cos(np.radians(STATE_ANGLES_DEG[states] - axis)) ** 2
    detector = (2 * bases + (g.random(states.size) >= p_first)).astype(np.uint8)
    return PhotonArrivals(pulse_index=arrivals.pulse_index[passed], state=states,
                          detector=detector, arrival_time_ps=arrivals.arrival_time_ps[passed])


def malus_first(angle_deg: float, analyzer_basis: int, misalignment_deg: float) -> float:
    """Probability that a photon at ``angle_deg`` leaves by the basis' first APD."""
    return math.cos(math.radians(angle_deg - 45.0 * analyzer_basis - misalignment_deg)) ** 2
