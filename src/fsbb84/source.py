"""Alice's pulsed polarization source.

One pulse per period of the repetition clock, each carrying a uniformly
random basis/bit choice and a Poisson-distributed photon number whose
mean may differ per polarization state (a weak emitter for one state is a
real failure mode of multi-laser sources). Nothing here stores a value
per pulse.

State encoding used throughout the package::

    state = 2 * basis + bit      H=0  V=1  D=2  A=3
    basis: 0 = rectilinear (H/V), 1 = diagonal (D/A)

States are counter-based: the state of pulse ``i`` is the top two bits of
the SplitMix64 hash of ``i`` under a key derived from ``rng_seed`` (see
:mod:`fsbb84.seeds`). Any pulse's state is one hash away
(:func:`pulse_states`), so Alice looks up the states Bob reports without
regenerating anything.

Photon numbers are drawn only where they are not zero, by exact Poisson
thinning. Each shard of ``SHARD_SIZE`` pulses has its own generator
derived from ``(rng_seed, shard_index)``, and the pulses come in stages:

* :func:`generate_shard` draws candidate positions from geometric gaps at
  ``p_max = 1 - exp(-max_s mu_s)``;
* :func:`non_vacuum` has each shard's generator draw a keep uniform per
  candidate, and keeps a candidate of state ``s`` with probability
  ``(1 - exp(-mu_s)) / p_max``;
* it then has the generator draw a uniform per kept pulse, and inverts it
  into a zero-truncated Poisson(mu_s) photon number.

Only the draws run shard by shard. The state hash, the keep test and the
inversion run over a list of consecutive shards, BLOCK entries at a time
(:data:`fsbb84.seeds.BLOCK`), each block drawing from the shards it
meets, and read a 4-entry table per shard instead of evaluating ``exp``
per pulse.

The cost follows ``mu * n``, not ``n``. Loss thins a Poisson pulse into a
Poisson pulse, so the channel draws the pulses that reach Bob's APDs with
the same functions at ``mu_s * T * eta`` (:func:`fsbb84.channel.transmit_stream`).

Reproducibility: a seed fixes every output for a given ``n_pulses``. The
states of a seed never depend on ``n_pulses``; the photon numbers of its
last shard do. This is version 3 of the contract in :mod:`fsbb84.seeds`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import SourceConfig
from .seeds import BLOCK, STREAM_SOURCE, STREAM_STATE, counter_key, spawn, splitmix64

# Pulses per generator of the photon-number draw. Part of the
# reproducibility contract.
SHARD_SIZE = 1 << 22


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _hashed_states(key: np.uint64, indices) -> np.ndarray:
    """Top two bits of each index's hash (uint8), hashed BLOCK indices at a time."""
    indices = np.asarray(indices)
    flat = indices.reshape(-1)
    states = np.empty(flat.size, dtype=np.uint8)
    for a in range(0, flat.size, BLOCK):
        z = splitmix64(key, flat[a:a + BLOCK])
        z >>= np.uint64(62)
        states[a:a + BLOCK] = z
    return states.reshape(indices.shape)


def pulse_states(config: SourceConfig, indices) -> np.ndarray:
    """State (0..3, uint8) of each pulse index: top two bits of its hash."""
    return _hashed_states(counter_key(config.rng_seed, STREAM_STATE), indices)


@dataclass
class PulseShard:
    """A shard's generator and its candidate pulses, the first of its draws."""

    start: int  # global index of the shard's first pulse
    position: np.ndarray  # int64, increasing candidate positions within the shard
    mu: tuple[float, float, float, float]  # mean photon number per state
    p_max: float  # 1 - exp(-max mu), the candidates' Bernoulli rate
    rng: np.random.Generator = field(repr=False)


@dataclass
class Pulses:
    """The non-vacuum pulses of consecutive shards, in pulse order."""

    index: np.ndarray  # int64, global pulse index
    states: np.ndarray  # uint8, 0..3
    photon_count: np.ndarray  # int64, >= 1
    bounds: list[int]  # shard k's pulses are [bounds[k], bounds[k + 1])


def _success_positions(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Positions of the successes among ``n`` Bernoulli(p) trials."""
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    # n + 1 gaps always pass n; the usual batch covers it at 6 sigma.
    batch = min(int(n * p + 6.0 * math.sqrt(n * p)) + 16, n + 1)
    pos = rng.geometric(p, size=batch)
    np.cumsum(pos, out=pos)
    pos -= 1
    while pos[-1] < n:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, size=batch))])
    return pos[: np.searchsorted(pos, n)]


def _zero_truncated_poisson(mu: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Poisson(mu[row]) draw per entry, conditioned on >= 1, by inversion.

    ``mu`` is a flat per-state table and ``u`` holds one uniform per entry;
    it is scaled in place onto [0, P(N >= 1)).
    """
    u *= (-np.expm1(-mu))[row]
    cdf = (mu * np.exp(-mu))[row]  # P(N = 1), raised below to P(N <= count)
    count = np.ones(row.size, dtype=np.int64)
    todo = np.flatnonzero(u >= cdf)
    pmf = cdf[todo]
    k = 1
    while todo.size:  # ends at the latest where the pmf underflows
        k += 1
        pmf *= mu[row[todo]] / k
        cdf[todo] += pmf
        count[todo] = k
        more = (u[todo] >= cdf[todo]) & (pmf > 0.0)
        todo, pmf = todo[more], pmf[more]
    return count


def generate_shard(config: SourceConfig, shard_index: int, n: int) -> PulseShard:
    """The candidate pulses among the ``n`` pulses of shard ``shard_index``.

    Spawns the shard's generator and draws the first of its stages: the
    geometric gaps between candidates at ``p_max``. ``n`` may be smaller
    than SHARD_SIZE only for the final shard. The generator's next draws,
    in order, are a keep uniform per candidate and a photon-number uniform
    per kept pulse (:func:`non_vacuum`), then the channel's
    (:func:`fsbb84.channel.transmit_stream`).
    """
    g = spawn(config.rng_seed, STREAM_SOURCE, shard_index)
    p_max = -math.expm1(-max(config.mu_per_state))
    return PulseShard(start=shard_index * SHARD_SIZE, position=_success_positions(n, p_max, g),
                      mu=config.mu_per_state, p_max=p_max, rng=g)


def shard_pieces(bounds: list[int], a: int, b: int):
    """(k, lo, hi) for each shard k with entries among [a, b), as ``bounds`` splits them.

    Shard k holds entries ``[bounds[k], bounds[k + 1])``. A pass over
    consecutive shards in blocks draws each block from the generators of
    the shards it meets, in order, so each generator draws what it would
    in one call.
    """
    k = bisect.bisect_right(bounds, a) - 1
    while k + 1 < len(bounds) and bounds[k] < b:
        lo, hi = max(a, bounds[k]), min(b, bounds[k + 1])
        if lo < hi:
            yield k, lo, hi
        k += 1


def non_vacuum(shards: list[PulseShard], state_key: np.uint64) -> Pulses:
    """The non-vacuum pulses of consecutive shards from :func:`generate_shard`.

    ``state_key`` is the state stream's key,
    ``counter_key(rng_seed, STREAM_STATE)``. Each shard's generator draws
    a keep uniform per candidate, then a photon-number uniform per kept
    pulse; the state hash, the keep test and the inversion run over all the
    shards, on per-state tables, BLOCK entries at a time. Beside the
    candidates' index (8 bytes each), which the kept pulses take over in
    place, they hold a state byte and an 8-byte photon count per kept pulse.
    """
    bounds = [0, *itertools.accumulate(sh.position.size for sh in shards)]
    index = np.empty(bounds[-1], dtype=np.int64)
    for sh, a, b in zip(shards, bounds, bounds[1:]):
        np.add(sh.position, sh.start, out=index[a:b])
    # Entry 4 k + s of the flat per-state tables is state s of shard k.
    mu = np.array([sh.mu for sh in shards], dtype=np.float64).ravel()
    p_keep, p_max = -np.expm1(-mu), np.array([sh.p_max for sh in shards])
    states = np.empty(index.size, dtype=np.uint8)
    u = np.empty(min(BLOCK, index.size))

    def draw(bounds, a, n):
        """A uniform per entry [a, a + n) from its shard's generator, and the entries' shards."""
        pieces = list(shard_pieces(bounds, a, a + n))
        for k, lo, hi in pieces:
            shards[k].rng.random(out=u[lo - a:hi - a])
        return u[:n], np.repeat([k for k, _, _ in pieces], [hi - lo for _, lo, hi in pieces])

    n_kept = 0
    for a in range(0, index.size, BLOCK):
        block = index[a:a + BLOCK]
        keep_u, k = draw(bounds, a, block.size)
        keep_u *= p_max[k]
        s = _hashed_states(state_key, block)
        k *= 4
        k += s
        kept = np.flatnonzero(keep_u < p_keep[k])
        index[n_kept:n_kept + len(kept)] = block.take(kept)
        states[n_kept:n_kept + len(kept)] = s.take(kept)
        n_kept += len(kept)
    index, states = index[:n_kept], states[:n_kept]
    bounds = [*np.searchsorted(index, [sh.start for sh in shards]).tolist(), n_kept]
    count = np.empty(n_kept, dtype=np.int64)
    for a in range(0, n_kept, BLOCK):
        n_u, k = draw(bounds, a, min(BLOCK, n_kept - a))
        k *= 4
        k += states[a:a + BLOCK]
        count[a:a + BLOCK] = _zero_truncated_poisson(mu, k, n_u)
    return Pulses(index=index, states=states, photon_count=count, bounds=bounds)


def emit_jitter_ps(config: SourceConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian emission-time offsets around the grid, in ps (float64)."""
    if config.pulse_fwhm_ps == 0.0 or n == 0:
        return np.zeros(n)
    return rng.normal(0.0, config.emit_sigma_ps, size=n)
