"""Free-space propagation: Monte-Carlo photon survival.

Each photon of a pulse survives independently with probability
``T = 10^(-total/10)``, ``total`` the link budget of
:func:`fsbb84.analysis.loss_breakdown`, times a slow log-normal fading
factor resampled every ``fading_block_ms`` (mean 1, so fading
redistributes but does not change average loss), clipped at 1. Bob's
lumped receiver efficiency ``eta`` and his passive analyzer act here too,
because thinning composes and so does Poisson splitting: the photons of a
Poisson(mu) pulse that reach a live APD are Poisson(mu * min(T * f_b, 1)
* eta), and each of them picks APD ``d`` with probability ``q[s, d]``
(:func:`fsbb84.analysis.analyzer_table`, ``s`` the state after any retro
flip).
:func:`transmit_stream` draws exactly those photons, as the non-vacuum
pulses of a source at that folded mean, and never touches a pulse that
delivers nothing to an APD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import source
from .analysis import loss_breakdown
from .scenario import ChannelConfig, SourceConfig, TrueClock
from .seeds import STREAM_FADING, STREAM_STATE, counter_key, spawn
from .source import SHARD_SIZE, emit_jitter_ps

# Candidate pulses that close a group of consecutive shards in
# transmit_stream. It bounds the group's transient arrays (a few MB at
# 2^16), not the output; a 60 s collimator stream runs in three groups.
GROUP_CANDIDATES = 1 << 16


@dataclass
class PhotonArrivals:
    """Photons reaching Bob's APDs, on Bob's (pre-tagger) clock.

    ``detector`` is the APD each photon reaches (H=0, V=1, D=2, A=3).
    ``pulse_index`` and ``state`` (the polarization state after any retro
    flip) are simulation-only provenance for ground-truth checks. Photons
    come in pulse order, so pulses wide enough to overlap leave their times
    out of order: :func:`fsbb84.receiver.detect` sorts them.
    """

    pulse_index: np.ndarray  # int64
    state: np.ndarray  # uint8
    detector: np.ndarray  # uint8
    arrival_time_ps: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.pulse_index)


def fading_factor(config: ChannelConfig, block_index: int) -> float:
    """Log-normal transmittance factor for one fading block (mean 1)."""
    s2 = math.log1p(config.fading_sigma**2)
    g = spawn(config.rng_seed, STREAM_FADING, block_index)
    return float(np.exp(g.normal(-0.5 * s2, math.sqrt(s2))))


def _fading_block(index, period_ps: float, config: ChannelConfig):
    """Fading block holding each pulse index."""
    return index * int(period_ps) // int(config.fading_block_ms * 1e9)


def _block_survival(first_block: int, last_block: int, transmittance: float,
                    config: ChannelConfig) -> list[float]:
    """Photon survival probability ``min(T * f_b, 1)`` of each block in range,
    or one ``min(T, 1)`` for them all when the link does not fade."""
    if config.fading_sigma == 0.0:
        return [min(transmittance, 1.0)]
    return [min(transmittance * fading_factor(config, b), 1.0)
            for b in range(first_block, last_block + 1)]


def _arrivals(group: list, state_key: np.uint64, source_config: SourceConfig,
              config: ChannelConfig, true_clock: TrueClock, analyzer_cdf: np.ndarray):
    """(pulse_index, state, detector, arrival_time_ps) per photon at an APD.

    ``group`` holds ``(shard, b0, p, p_max)`` per shard: its candidates
    from :func:`fsbb84.source.generate_shard`, its first fading block, the
    survival ``p`` of its blocks and their largest value. One entry per
    photon of each pulse. Each shard's generator draws, after the source's
    draws: the fading binomial (where ``p`` varies), then emission jitter
    and the retro flip per pulse, then one uniform ``u`` per photon. The
    APD is the number of entries of the photon's state's cumulative
    analyzer row that are <= ``u``, with ``analyzer_cdf[d, s]`` =
    P(APD <= d | state s) for d = 0, 1, 2.
    """
    shards = [sh for sh, _, _, _ in group]
    pulses = source.non_vacuum(shards, state_key)
    index, states, n_phot, bounds = (pulses.index, pulses.states, pulses.photon_count,
                                     pulses.bounds)
    period = source_config.period_ps
    faded = [(k, b0, p, p_max) for k, (_, b0, p, p_max) in enumerate(group) if min(p) < p_max]
    for k, b0, p, p_max in faded:
        a, b = bounds[k], bounds[k + 1]
        block = _fading_block(index[a:b], period, config) - b0
        n_phot[a:b] = shards[k].rng.binomial(n_phot[a:b], np.array(p)[block] / p_max)
    if faded:
        alive = np.flatnonzero(n_phot)
        index, states, n_phot = index.take(alive), states.take(alive), n_phot.take(alive)
        bounds = [*np.searchsorted(index, [sh.start for sh in shards]).tolist(), index.size]
    photon_bounds = np.append(0, np.cumsum(n_phot))[bounds].tolist()
    flips = config.retro_mode and config.retro_flip_prob > 0.0
    jitter, u = np.empty(index.size), np.empty(photon_bounds[-1])
    flip = np.empty(index.size) if flips else None
    for sh, a, b, pa, pb in zip(shards, bounds, bounds[1:], photon_bounds, photon_bounds[1:]):
        jitter[a:b] = emit_jitter_ps(source_config, sh.rng, b - a)
        if flips:
            sh.rng.random(out=flip[a:b])
        sh.rng.random(out=u[pa:pb])
    if flips:
        states[flip < config.retro_flip_prob] ^= 1
    t = np.rint(true_clock.to_receiver(index * period + jitter + config.delay_ps()))
    t = t.astype(np.int64)
    del jitter, flip  # scratch is freed before each larger array it makes way for
    states = np.repeat(states, n_phot)
    k = states.astype(np.intp)
    detector = np.zeros(u.size, dtype=np.uint8)
    for column in analyzer_cdf:
        detector += u >= column.take(k)
    del u, k
    return np.repeat(index, n_phot), states, detector, np.repeat(t, n_phot)


def transmit_stream(source_config: SourceConfig, config: ChannelConfig, n_pulses: int,
                    efficiency: float, analyzer,
                    true_clock: TrueClock = TrueClock()) -> PhotonArrivals:
    """Source, channel and Bob's analyzer in one pass: the photons at his APDs.

    ``efficiency`` is the receiver's lumped efficiency ``eta`` and
    ``analyzer`` its 4x4 table ``q[s][d]`` (rows sum to 1). Per shard, the
    non-vacuum pulses of the source at ``mu * min(T * f_max, 1) * eta``
    (``f_max`` the largest fading factor in the shard) are exactly the
    pulses with at least one photon at an APD, with their photon counts.
    Under fading each is then thinned binomially to its own block's
    ``min(T * f_b, 1)``, which is exact because thinning composes. Emission
    jitter, retro flips and APD picks are drawn from the shard's generator,
    in that order, for these pulses only. States are the source's, so
    Alice's lookup agrees with every arrival. Arrival times are read on
    ``true_clock``, the receiver clock; photons come in pulse order, not
    time order (:class:`PhotonArrivals`).

    Only the draws run per shard. Everything else runs once per group of
    consecutive shards, closed once it holds GROUP_CANDIDATES candidates,
    so its transient arrays stay bounded however long the stream.
    """
    transmittance = 10.0 ** (-loss_breakdown(config, source_config.wavelength_nm).total_db / 10.0)
    analyzer_cdf = np.cumsum(analyzer, axis=1)[:, :3].T.copy()
    period = source_config.period_ps
    state_key = counter_key(source_config.rng_seed, STREAM_STATE)
    folded = {}  # p_max -> the source at mu * p_max * eta
    parts, group, n_candidates = [], [], 0
    for start in range(0, n_pulses, SHARD_SIZE):
        n = min(SHARD_SIZE, n_pulses - start)
        b0 = _fading_block(start, period, config)
        p = _block_survival(b0, _fading_block(start + n - 1, period, config), transmittance, config)
        p_max = max(p)
        if p_max not in folded:
            folded[p_max] = replace(source_config, mu_per_state=tuple(
                m * p_max * efficiency for m in source_config.mu_per_state))
        shard = source.generate_shard(folded[p_max], start // SHARD_SIZE, n)
        group.append((shard, b0, p, p_max))
        n_candidates += shard.position.size
        if n_candidates >= GROUP_CANDIDATES or start + n == n_pulses:
            parts.append(_arrivals(group, state_key, source_config, config, true_clock,
                                   analyzer_cdf))
            group, n_candidates = [], 0
    return PhotonArrivals(*(np.concatenate(column) for column in zip(*parts)))
