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

Memory: the photons come back as 18 bytes each (int64 pulse index and
arrival time, a state byte and a detector byte). A group of shards holds
its candidates' 8-byte indices, which the kept pulses take over in place,
a state byte and an 8-byte photon count per kept pulse, then the photon
columns, expanded one at a time, while the hash, the keep test and the
draws run in BLOCK-entry scratch (:data:`fsbb84.seeds.BLOCK`). The groups'
columns are joined one column at a time. On the benchmark's
dense_short_link the traced peak is about 1.45 times the photons returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import source
from .analysis import loss_breakdown
from .scenario import ChannelConfig, SourceConfig, TrueClock
from .seeds import BLOCK, STREAM_FADING, spawn
from .source import SHARD_SIZE, emit_jitter_ps, shard_draw

# Candidate pulses that close a group of consecutive shards in
# transmit_stream. It bounds the group's per-pulse arrays (17 bytes a pulse
# beside the photons), not the output; a 60 s collimator stream runs in
# three groups.
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
    survival ``p`` of its blocks and their largest value. It is consumed:
    emptied once the candidates are read, which frees their positions.
    Each shard's generator draws, after the source's draws: the fading
    binomial (where ``p`` varies), then emission jitter and the retro flip
    per pulse, then one uniform ``u`` per photon. The APD is the number of
    entries of the photon's state's cumulative analyzer row that are <= ``u``,
    with ``analyzer_cdf[d, s]`` = P(APD <= d | state s) for d = 0, 1, 2.

    Each pulse's index, state and photon count expand into one entry per photon,
    a column at a time; the jitter, flip and APD passes run BLOCK pulses or photons
    at a time, drawing from the shards they meet (:func:`fsbb84.source.shard_draw`).
    """
    shards = [sh for sh, _, _, _ in group]
    pulses = source.non_vacuum(shards, state_key)
    index, states, n_phot, bounds = (pulses.index, pulses.states, pulses.photon_count,
                                     pulses.bounds)
    rngs, starts = [sh.rng for sh in shards], [sh.start for sh in shards]
    faded = [(k, b0, p, p_max) for k, (_, b0, p, p_max) in enumerate(group) if min(p) < p_max]
    del pulses, shards
    group.clear()
    period = source_config.period_ps
    for k, b0, p, p_max in faded:
        a, b = bounds[k], bounds[k + 1]
        block = _fading_block(index[a:b], period, config) - b0
        n_phot[a:b] = rngs[k].binomial(n_phot[a:b], np.array(p)[block] / p_max)
    if faded:
        alive = np.flatnonzero(n_phot)
        index, states, n_phot = index.take(alive), states.take(alive), n_phot.take(alive)
        bounds = [*np.searchsorted(index, starts).tolist(), index.size]
    per_shard = np.zeros(len(rngs), dtype=np.int64)
    if n_phot.size:
        held = np.diff(bounds) > 0
        per_shard[held] = np.add.reduceat(n_phot, np.array(bounds[:-1])[held])
    photon_bounds = [0, *itertools.accumulate(per_shard.tolist())]
    pulse_index = np.repeat(index, n_phot)
    del index
    scratch = np.empty(min(BLOCK, max(n_phot.size, pulse_index.size)))

    def jitter(g, out):
        out[:] = emit_jitter_ps(source_config, g, len(out))

    # Arrival times per photon from its pulse's emission jitter, BLOCK pulses at a time.
    time = np.empty(pulse_index.size, dtype=np.int64)
    delay, pa = config.delay_ps(), 0
    for a in range(0, n_phot.size, BLOCK):
        counts = n_phot[a:a + BLOCK]
        emit = scratch[:counts.size]
        shard_draw(rngs, bounds, a, emit, jitter)
        pb = pa + int(counts.sum())
        t = pulse_index[pa:pb] * period
        t += np.repeat(emit, counts)
        t += delay
        time[pa:pb] = np.rint(true_clock.to_receiver(t))
        pa = pb
    if config.retro_mode and config.retro_flip_prob > 0.0:
        for a in range(0, states.size, BLOCK):
            flip = scratch[:min(BLOCK, states.size - a)]
            shard_draw(rngs, bounds, a, flip)
            states[a:a + BLOCK][flip < config.retro_flip_prob] ^= 1
    state = np.repeat(states, n_phot)
    del states, n_phot
    detector = np.zeros(state.size, dtype=np.uint8)
    for a in range(0, state.size, BLOCK):
        u = scratch[:min(BLOCK, state.size - a)]
        shard_draw(rngs, photon_bounds, a, u)
        k = state[a:a + BLOCK].astype(np.intp)
        d = detector[a:a + BLOCK]
        for column in analyzer_cdf:
            d += u >= column.take(k)
    return pulse_index, state, detector, time


def _joined(parts: list) -> np.ndarray:
    """The concatenation of ``parts``, which it empties: one column's parts are
    freed before the next column is joined."""
    column = parts[0] if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    return column


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
    BLOCK entries at a time, so its transient arrays stay bounded however
    long the stream.
    """
    transmittance = 10.0 ** (-loss_breakdown(config, source_config.wavelength_nm).total_db / 10.0)
    analyzer_cdf = np.cumsum(analyzer, axis=1)[:, :3].T.copy()
    period = source_config.period_ps
    state_key = source.state_key(source_config)
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
        del shard  # the group holds it, until _arrivals frees its candidates
        if n_candidates >= GROUP_CANDIDATES or start + n == n_pulses:
            parts.append(_arrivals(group, state_key, source_config, config, true_clock,
                                   analyzer_cdf))
            group, n_candidates = [], 0
    columns = [list(column) for column in zip(*parts)]
    del parts
    return PhotonArrivals(*map(_joined, columns))
