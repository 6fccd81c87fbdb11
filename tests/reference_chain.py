"""Reference implementations the library is checked against.

The first is the pulses-to-APD chain, photon by photon.

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

The second is :func:`reference_transmit_stream`, the folded chain one
shard at a time: every step of a shard, the state hash and the photon-number
inversion included, runs before the next shard starts.
:func:`fsbb84.channel.transmit_stream` runs only the draws per shard and
everything else once per group of shards; both must give the same arrays.

The third is :func:`reference_recover_clock`, the clock recovery that
:func:`fsbb84.sync.recover_clock` computes in fewer passes: here every
fold is ``np.mod``, the phasors are float64, and each tag searches for
its phase block.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from fsbb84.analysis import STATE_ANGLES_DEG, loss_breakdown
from fsbb84.channel import PhotonArrivals, fading_factor
from fsbb84.errors import ConfigError, SyncFailureError
from fsbb84.scenario import DRIFT_GUARD_PPM, ChannelConfig, SourceConfig, TrueClock
from fsbb84.seeds import STREAM_SOURCE, spawn
from fsbb84.source import SHARD_SIZE, emit_jitter_ps, pulse_states, state_key
from fsbb84.sync import MIN_TAGS, ClockModel

# The photon-by-photon chain's own spawn-key streams, at the two tags
# fsbb84.seeds reserves for it; no library stage draws from them, and their
# values keep its draws fixed. STREAM_CHANNEL draws the link thinning (a
# binomial per non-vacuum pulse), then the retro flips; STREAM_EMIT_JITTER
# draws the emission jitter of each shard of the pulse train it materializes.
STREAM_CHANNEL = 1
STREAM_EMIT_JITTER = 6


def _transmittance(config: ChannelConfig, wavelength_nm: float) -> float:
    return 10.0 ** (-loss_breakdown(config, wavelength_nm).total_db / 10.0)


class ReferenceShard(NamedTuple):
    """The non-vacuum pulses of one shard and the generator that drew them."""

    position: np.ndarray  # int64, positions within the shard
    states: np.ndarray  # uint8
    photon_count: np.ndarray  # int64, >= 1
    rng: np.random.Generator


def _success_positions(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    batch = min(int(n * p + 6.0 * math.sqrt(n * p)) + 16, n + 1)
    pos = np.cumsum(rng.geometric(p, size=batch)) - 1
    while pos[-1] < n:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, size=batch))])
    return pos[: np.searchsorted(pos, n)]


def _zero_truncated_poisson(mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Poisson(mu) draw per entry, conditioned on >= 1, with exp per entry."""
    u = rng.random(mu.size) * -np.expm1(-mu)
    pmf = mu * np.exp(-mu)
    cdf = pmf.copy()
    count = np.ones(mu.size, dtype=np.int64)
    todo = np.nonzero(u >= cdf)[0]
    k = 1
    while todo.size:
        k += 1
        pmf[todo] *= mu[todo] / k
        cdf[todo] += pmf[todo]
        count[todo] = k
        todo = todo[(u[todo] >= cdf[todo]) & (pmf[todo] > 0.0)]
    return count


def reference_shard(config: SourceConfig, shard_index: int, n: int) -> ReferenceShard:
    """Shard ``shard_index`` of the source, hashed and inverted on its own.

    The same draws as the library's shard generator: geometric gaps at
    ``p_max``, a keep uniform per candidate, a photon-number uniform per
    kept pulse.
    """
    g = spawn(config.rng_seed, STREAM_SOURCE, shard_index)
    mu = np.asarray(config.mu_per_state, dtype=np.float64)
    p_max = -math.expm1(-mu.max())
    pos = _success_positions(n, p_max, g)
    states = pulse_states(state_key(config), shard_index * SHARD_SIZE + pos)
    keep = g.random(pos.size) * p_max < -np.expm1(-mu)[states]
    pos, states = pos[keep], states[keep]
    return ReferenceShard(pos, states, _zero_truncated_poisson(mu[states], g), g)


def reference_transmit_stream(source_config: SourceConfig, config: ChannelConfig,
                              n_pulses: int, efficiency: float, analyzer: np.ndarray,
                              true_clock: TrueClock = TrueClock()) -> PhotonArrivals:
    """:func:`fsbb84.channel.transmit_stream`, one whole shard after another."""
    transmittance = _transmittance(config, source_config.wavelength_nm)
    analyzer_cdf = np.cumsum(analyzer, axis=1)[:, :3].T.copy()
    period = source_config.period_ps
    block_ps = int(config.fading_block_ms * 1e9)
    parts = []
    for start in range(0, n_pulses, SHARD_SIZE):
        n = min(SHARD_SIZE, n_pulses - start)
        b0 = start * int(period) // block_ps
        b1 = (start + n - 1) * int(period) // block_ps
        p = np.minimum(transmittance * np.array([fading_factor(config, b)
                                                 for b in range(b0, b1 + 1)]), 1.0)
        p_max = float(p.max())
        mu = tuple(m * p_max * efficiency for m in source_config.mu_per_state)
        shard = reference_shard(replace(source_config, mu_per_state=mu), start // SHARD_SIZE, n)
        g, index = shard.rng, start + shard.position
        states, n_phot = shard.states, shard.photon_count
        if p.min() < p_max:
            n_phot = g.binomial(n_phot, p[index * int(period) // block_ps - b0] / p_max)
            index, states, n_phot = index[n_phot > 0], states[n_phot > 0], n_phot[n_phot > 0]
        emit = index * period + emit_jitter_ps(source_config, g, index.size)
        states = states.copy()
        if config.retro_mode and config.retro_flip_prob > 0.0:
            states[g.random(index.size) < config.retro_flip_prob] ^= 1
        t = np.rint(true_clock.to_receiver(emit + config.delay_ps())).astype(np.int64)
        states = np.repeat(states, n_phot)
        u = g.random(states.size)
        k = states.astype(np.intp)
        detector = np.zeros(u.size, dtype=np.uint8)
        for column in analyzer_cdf:
            detector += u >= column.take(k)
        parts.append((np.repeat(index, n_phot), states, detector, np.repeat(t, n_phot)))
    return PhotonArrivals(*(np.concatenate(column) for column in zip(*parts)))


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
    and photon numbers come from :func:`reference_shard`.
    Emission jitter has its own stream per shard, so emission times do not
    depend on mu. A session (:func:`fsbb84.channel.transmit_stream`) shares
    these states but draws its own photon numbers and jitter.
    """
    if n_pulses <= 0:
        raise ConfigError("must be > 0 (empty train)", "n_pulses")
    index = np.arange(n_pulses, dtype=np.int64)
    states = pulse_states(state_key(config), index)
    counts = np.zeros(n_pulses, dtype=np.uint16)
    jitter = np.empty(n_pulses)
    for start in range(0, n_pulses, SHARD_SIZE):
        n = min(SHARD_SIZE, n_pulses - start)
        shard = reference_shard(config, start // SHARD_SIZE, n)
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
    transmittance = _transmittance(config, train.config.wavelength_nm)
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
    p_first = np.cos(np.radians(np.asarray(STATE_ANGLES_DEG)[states] - axis)) ** 2
    detector = (2 * bases + (g.random(states.size) >= p_first)).astype(np.uint8)
    return PhotonArrivals(pulse_index=arrivals.pulse_index[passed], state=states,
                          detector=detector, arrival_time_ps=arrivals.arrival_time_ps[passed])


def malus_first(angle_deg: float, analyzer_basis: int, misalignment_deg: float) -> float:
    """Probability that a photon at ``angle_deg`` leaves by the basis' first APD."""
    return math.cos(math.radians(angle_deg - 45.0 * analyzer_basis - misalignment_deg)) ** 2


# ---------------------------------------------------------------------------
# Reference clock recovery: np.mod folds, float64 phasors, per-tag blocks
# ---------------------------------------------------------------------------

def fold_histogram(times_ps: np.ndarray, period_ps: float, n_bins: int) -> np.ndarray:
    """Counts of (time mod period) per bin; sums to the number of tags."""
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if period_ps <= 0:
        raise ValueError("period_ps must be > 0")
    t = np.asarray(times_ps, dtype=np.float64)
    if t.size == 0:
        return np.zeros(n_bins, dtype=np.int64)
    phase = np.mod(t, period_ps)
    bins = np.minimum((phase / period_ps * n_bins).astype(np.int64), n_bins - 1)
    return np.bincount(bins, minlength=n_bins).astype(np.int64)


def _acquire_drift(tau: np.ndarray, period_ps: float) -> float:
    """Drift (absolute) of the strongest grid tone within the guard (step 1)."""
    P = period_ps
    g = DRIFT_GUARD_PPM * 1e-6
    # |f| peaks at d = -g; its quarter period keeps the guard within bins
    # |k| <= m/4 and attenuates the band edge by sinc(1/4) = 0.9 at most.
    dt = P * (1.0 - g) / (4.0 * g)
    cell = np.rint(tau / dt).astype(np.int64)
    m = 1 << math.ceil(math.log2(2 * (int(cell[-1]) + 1)))
    ph = (2.0 * np.pi / P) * np.mod(tau, P)
    mag = np.abs(np.fft.fft(np.bincount(cell, weights=np.cos(ph), minlength=m)
                            + 1j * np.bincount(cell, weights=np.sin(ph), minlength=m)))
    bin_fp = P / (m * dt)  # bin spacing of f, in units of 1/P
    k = np.arange(-(m // 4), m // 4 + 1)
    k = k[np.abs(k * bin_fp / (1.0 - k * bin_fp)) <= g]
    i = int(k[np.argmax(mag[k])])
    a, b, c = mag[i - 1], mag[i], mag[i + 1]
    curv = a - 2.0 * b + c
    fp = (i + (0.5 * (a - c) / curv if curv < 0 else 0.0)) * bin_fp
    return fp / (1.0 - fp)


def _block_regression(u: np.ndarray, period_ps: float, block_count: int) -> tuple[float, float]:
    """Weighted line through per-block circular-mean phases of ``u``.

    Returns (slope, intercept): the grid sits at ``intercept + slope * u``
    (mod one period) in the coordinates of ``u``.
    """
    P = period_ps
    edges = np.linspace(u[0], u[-1] + 1e-9, block_count + 1)
    block = np.minimum(np.searchsorted(edges, u, side="right") - 1, block_count - 1)
    two_pi = 2.0 * np.pi
    cyc = u / P
    ph = two_pi * (cyc - np.floor(cyc))  # whole periods dropped: cos/sin of huge arguments is slow
    nb = np.bincount(block, minlength=block_count)
    z = (np.bincount(block, weights=np.cos(ph), minlength=block_count)
         + 1j * np.bincount(block, weights=np.sin(ph), minlength=block_count))
    mids = np.bincount(block, weights=u, minlength=block_count)
    used = nb >= 5
    z[used] /= nb[used]
    mids[used] /= nb[used]
    r = np.abs(z)
    used &= r >= 0.05

    if not used.any():
        raise SyncFailureError("no usable phase blocks")
    # Phases relative to the stream's circular mean, not unwrapped block to
    # block: the drift handed in leaves at most ~P/8 of excursion across
    # the stream, while one noisy block half a period from its neighbour
    # would turn a sequential unwrap into a whole-period step for every
    # block after it.
    z, nb = z[used], nb[used]
    ref = np.angle(np.dot(z, nb))
    psi = (np.angle(z * np.exp(-1j * ref)) + ref) / two_pi * P
    if len(psi) == 1:
        return 0.0, float(psi[0])
    m = mids[used]
    w = nb * r[used] ** 2
    W = w.sum()
    mw = (w * m).sum() / W
    pw = (w * psi).sum() / W
    var = (w * (m - mw) ** 2).sum()
    slope = 0.0 if var == 0 else float((w * (m - mw) * (psi - pw)).sum() / var)
    return slope, float(pw - slope * mw)


# Half-widths of the peak windows for the final refit, in periods. Wide
# first, so a coarse mapping a few hundred ps off still has its peak
# inside the window; narrow last, so little background enters the fit.
# Each window is refitted until a pass selects tags it selected before.
REFIT_HALF_WIDTHS = (1 / 8, 1 / 16, 1 / 32)
# Tags the refit keeps, about: the near tags at every stride-th position
# of the stream; at 2^15 signal tags its statistical error is already
# below 1 ps.
REFIT_MAX_TAGS = 1 << 15


def _refit_peak(t: np.ndarray, offset: float, rate: float,
                period_ps: float) -> tuple[float, float]:
    """Refit offset and rate on the tags near the folded peak.

    Each pass takes the tags whose wrapped residual under the current
    mapping lies within a window around zero and fits a line (offset and
    rate correction) to those residuals versus time. Background inside a
    symmetric window adds no bias at the fixed point, only noise, which
    the narrowing windows keep small. A window's passes stop at the first
    to select tags the window selected before.
    """
    P = period_ps
    ta = (t - offset) / rate
    res = np.mod(ta + P / 2.0, P) - P / 2.0
    near = np.abs(res) <= P / 4.0
    stride = max(1, math.ceil(np.count_nonzero(near) / REFIT_MAX_TAGS))
    near = np.flatnonzero(near[::stride]) * stride
    ta, res = ta[near], res[near]
    # Corrections are far below P/4, so residuals are updated in place
    # rather than re-wrapped; the mapping moves by t_src -= A + B t_src.
    A = B = 0.0
    for half_width in REFIT_HALF_WIDTHS:
        seen = set()
        while True:
            sel = np.abs(res) <= half_width * P
            if (key := sel.tobytes()) in seen:
                break
            seen.add(key)
            if np.count_nonzero(sel) < 2:
                break
            x, y = ta[sel], res[sel]
            xm = x.mean()
            dx = x - xm
            var = float(np.dot(dx, dx))
            b = float(np.dot(dx, y) / var) if var > 0 else 0.0
            a = float(y.mean())
            res -= a + b * (ta - xm)
            A += a - b * xm
            B += b
    rate = rate / (1.0 - B)
    return offset + A * rate, rate


def reference_recover_clock(times_ps: np.ndarray, nominal_period_ps: float, block_count: int,
                  known_drift_ppm: Optional[float] = None,
                  coarse_reference_ps: Optional[float] = None) -> ClockModel:
    """Estimate offset and drift from a tag stream.

    ``known_drift_ppm`` skips acquisition (beacon-assisted mode); like an
    acquired drift, it must keep the grid within a fraction of a period
    across the stream. ``coarse_reference_ps`` resolves the whole-period offset ambiguity to
    the grid numbering nearest the given expected offset.
    """
    t = np.asarray(times_ps, dtype=np.float64)
    n = len(t)
    if n < MIN_TAGS:
        raise SyncFailureError(f"need >= {MIN_TAGS} tags for clock recovery, got {n}")
    if block_count < 1:
        raise ValueError("block_count must be >= 1")
    P = float(nominal_period_ps)
    t0 = t[0]
    tau = t - t0

    if known_drift_ppm is None:
        d0 = _acquire_drift(tau, P)
    else:
        d0 = known_drift_ppm * 1e-6

    u = tau / (1.0 + d0)
    slope, a = _block_regression(u, P, block_count)
    rate = (1.0 + d0) * (1.0 + slope)
    offset, rate = _refit_peak(t, t0 + a * rate, rate, P)

    # Significance guard on the final mapping, so a stream whose coarse
    # drift is a fraction of a grid step off is judged after refinement.
    ta = (t - offset) / rate
    hist = fold_histogram(ta, P, 64)
    if hist.max() < 3.0 * np.median(hist):
        raise SyncFailureError("no significant pulse-grid peak in folded histogram")
    # Residuals of the final mapping, wrapped to one period.
    res = np.mod(ta + P / 2.0, P) - P / 2.0
    residual_rms = float(np.sqrt(np.mean(res**2)))

    if coarse_reference_ps is not None:
        k = round((coarse_reference_ps - offset) / (rate * P))
        offset += k * rate * P

    return ClockModel(offset_ps=float(offset), drift_ppm=float((rate - 1.0) * 1e6),
                      residual_rms_ps=residual_rms, period_ps=P)


