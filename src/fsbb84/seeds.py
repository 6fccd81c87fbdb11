"""Deterministic RNG derivation.

Every stochastic stage owns an integer seed; independent streams (shards,
fading blocks, background generation, ...) are derived with stable spawn
keys so that runs are reproducible and shardable at the same time.

Draws that must be recomputable one at a time are counter-based instead
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11):
draw ``i`` of a stream is the SplitMix64 finaliser (Steele, Lea & Flood,
OOPSLA'14) of ``key + i * 0x9E3779B97F4A7C15``, with ``key`` derived from
the seed like any other stream. Nothing is stored or replayed, so any
subset of draws costs time in its own size. The source uses this for the
per-pulse polarization states, which Alice looks up by pulse index.

Reproducibility contract (version 3): outputs depend on the seeds, the
stream tags below, the SplitMix64 constants, the source's shard size and
the order in which each generator is drawn from. Each shard of
:func:`fsbb84.channel.transmit_stream` has one generator, which draws, in
this order: the geometric gaps between candidate pulses, a keep uniform
per candidate, a photon-number uniform per kept pulse (the source's
draws, :mod:`fsbb84.source`), a fading binomial per pulse where fading
varies within the shard, then emission jitter and the retro flip per
surviving pulse, and the APD-pick uniform per photon. Steps that draw
nothing (the state hash, the keep test, the photon-number inversion,
arrival times, the APD pick itself) run over several shards at once, so
how shards are grouped is not part of the contract. ``STREAM_RECEIVER``
draws only detector jitter: one normal per photon at any jitter width,
zero included. Version 1 drew a 32-bit integer per pulse for state and
photon number; version 2 drew photons at the receiver aperture and left
the receiver efficiency, basis choice and Malus projection to
``STREAM_RECEIVER``. Every seeded output changed with each version.
"""

from __future__ import annotations

import numpy as np

# Spawn-key stream tags, one per consumer. Values are part of the
# reproducibility contract: changing them changes every simulation output.
# Tags 1 and 6 are reserved: the tests' photon-by-photon reference chain
# draws its link thinning and its emission jitter from them.
STREAM_SOURCE = 0
STREAM_FADING = 2
STREAM_RECEIVER = 3
STREAM_BACKGROUND = 4
STREAM_PROTOCOL = 5
STREAM_STATE = 7

# Entries per block of the elementwise passes that run in block-sized
# scratch (the source's state hash, and passes in the channel, the
# receiver, clock recovery and the protocol), so a pass's transients do not
# follow the stream's length. Not part of the contract: only the last bits of
# the clock's residual_rms_ps, whose squares are summed per block, depend on it.
BLOCK = 1 << 14

_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def spawn(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for stream ``key`` derived from ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key)))


def counter_key(seed: int, *key: int) -> np.uint64:
    """64-bit key of the counter-based stream ``key`` derived from ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return ss.generate_state(1, dtype=np.uint64)[0]


def splitmix64(key: np.uint64, counter) -> np.ndarray:
    """Draw ``counter`` (any non-negative integers) of the stream ``key``, as uint64."""
    z = np.array(counter, dtype=np.uint64)
    z *= _GOLDEN_GAMMA
    z += key
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z
