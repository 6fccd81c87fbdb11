"""Free-space propagation: link budget and Monte-Carlo photon survival.

Loss model
----------
Three physical contributions plus a calibration residual:

* geometric capture of a Gaussian beam by a circular aperture:
  ``loss = -10 log10(1 - exp(-2 a^2 / w(z)^2))`` with ``w(z)`` the 1/e^2
  beam radius after propagating ``z`` from a waist ``w0 = tx_diameter/2``,
  ``w(z) = w0 sqrt(1 + (z/z_R)^2)``, ``z_R = pi w0^2 / lambda``;
* atmospheric extinction from meteorological visibility (Kim model):
  ``sigma = (3.91/V) (lambda_nm/550)^-q`` per km (natural units), with the
  piecewise size parameter ``q(V)``; in dB: ``4.343 sigma d_km``;
* ``extra_loss_db``: optics train, filter insertion, pointing residual --
  whatever the calibrated scenario needs to match the measured total.

In retro-reflected mode the beam traverses the path twice, so geometric
and atmospheric legs double and the beam-splitter penalty is added.

Each photon of a pulse survives independently with probability
``T = 10^(-total/10)`` times a slow log-normal fading factor resampled
every ``fading_block_ms`` (mean 1, so fading redistributes but does not
change average loss), clipped at 1. Bob's lumped receiver efficiency
``eta`` and his passive analyzer act here too, because thinning composes
and so does Poisson splitting: the photons of a Poisson(mu) pulse that
reach a live APD are Poisson(mu * min(T * f_b, 1) * eta), and each of
them picks APD ``d`` with probability ``q[s, d]`` (the receiver's
analyzer table, ``s`` the state after any retro flip).
:func:`transmit_stream` draws exactly those photons, as the non-vacuum
pulses of a source at that folded mean, and never touches a pulse that
delivers nothing to an APD.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import source
from .errors import ConfigError
from .seeds import STREAM_FADING, STREAM_STATE, counter_key, spawn
from .source import SHARD_SIZE, SourceConfig, emit_jitter_ps
from .sync import TrueClock

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Candidate pulses that close a group of consecutive shards in
# transmit_stream. It bounds the group's transient arrays (a few MB at
# 2^16), not the output; a 60 s collimator stream runs in three groups.
GROUP_CANDIDATES = 1 << 16


@dataclass(frozen=True)
class ChannelConfig:
    """Free-space link description.

    Beam sizes are 1/e^2 *diameters* in cm, as usually quoted for
    collimators and beam expanders. ``propagation_delay_ps`` defaults to
    the geometric value (doubled path in retro mode) when left as None.
    """

    distance_m: float
    tx_beam_diameter_e2_cm: float
    rx_aperture_diameter_e2_cm: float
    visibility_km: float = 10.0
    extra_loss_db: float = 0.0
    retro_mode: bool = False
    splitter_penalty_db: float = 6.0
    retro_flip_prob: float = 0.0
    fading_sigma: float = 0.0
    fading_block_ms: float = 10.0
    propagation_delay_ps: Optional[int] = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.distance_m < 0:
            raise ConfigError("must be >= 0", "channel.distance_m")
        if self.tx_beam_diameter_e2_cm <= 0:
            raise ConfigError("must be > 0", "channel.tx_beam_diameter_e2_cm")
        if self.rx_aperture_diameter_e2_cm <= 0:
            raise ConfigError("must be > 0", "channel.rx_aperture_diameter_e2_cm")
        if self.visibility_km <= 0:
            raise ConfigError("must be > 0", "channel.visibility_km")
        if self.splitter_penalty_db < 0:
            raise ConfigError("must be >= 0", "channel.splitter_penalty_db")
        if self.fading_sigma < 0:
            raise ConfigError("must be >= 0", "channel.fading_sigma")
        if self.fading_block_ms <= 0:
            raise ConfigError("must be > 0", "channel.fading_block_ms")
        if not 0.0 <= self.retro_flip_prob <= 1.0:
            raise ConfigError("must be in [0, 1]", "channel.retro_flip_prob")

    @property
    def path_length_m(self) -> float:
        return 2.0 * self.distance_m if self.retro_mode else self.distance_m

    def delay_ps(self) -> int:
        if self.propagation_delay_ps is not None:
            return int(self.propagation_delay_ps)
        return int(round(self.path_length_m / SPEED_OF_LIGHT_M_S * 1e12))


def beam_radius_m(waist_radius_m: float, distance_m: float, wavelength_m: float) -> float:
    """1/e^2 Gaussian beam radius after free propagation from the waist."""
    z_r = math.pi * waist_radius_m**2 / wavelength_m
    return waist_radius_m * math.sqrt(1.0 + (distance_m / z_r) ** 2)


def geometric_loss_db(config: ChannelConfig, wavelength_nm: float) -> float:
    """One-way aperture-capture loss in dB at ``config.distance_m``."""
    w0 = config.tx_beam_diameter_e2_cm / 200.0  # cm diameter -> m radius
    a = config.rx_aperture_diameter_e2_cm / 200.0
    w = beam_radius_m(w0, config.distance_m, wavelength_nm * 1e-9)
    captured = 1.0 - math.exp(-2.0 * a * a / (w * w))
    return -10.0 * math.log10(captured)


def _kim_q(visibility_km: float) -> float:
    v = visibility_km
    if v > 50.0:
        return 1.6
    if v > 6.0:
        return 1.3
    if v > 1.0:
        return 0.16 * v + 0.34
    if v > 0.5:
        return v - 0.5
    return 0.0


def atmospheric_loss_db(visibility_km: float, wavelength_nm: float, distance_m: float) -> float:
    """Kim-model extinction over ``distance_m`` in dB."""
    sigma_per_km = (3.91 / visibility_km) * (wavelength_nm / 550.0) ** (-_kim_q(visibility_km))
    return 10.0 / math.log(10.0) * sigma_per_km * (distance_m / 1000.0)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-contribution link loss, already including path doubling."""

    geometric_db: float
    atmospheric_db: float
    extra_db: float
    splitter_db: float

    @property
    def total_db(self) -> float:
        return self.geometric_db + self.atmospheric_db + self.extra_db + self.splitter_db

    def to_dict(self) -> dict:
        return {**asdict(self), "total_db": self.total_db}


def loss_breakdown(config: ChannelConfig, wavelength_nm: float) -> LossBreakdown:
    legs = 2.0 if config.retro_mode else 1.0
    return LossBreakdown(
        geometric_db=legs * geometric_loss_db(config, wavelength_nm),
        atmospheric_db=legs * atmospheric_loss_db(config.visibility_km, wavelength_nm, config.distance_m),
        extra_db=config.extra_loss_db,
        splitter_db=config.splitter_penalty_db if config.retro_mode else 0.0,
    )


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
    if config.fading_sigma == 0.0:
        return 1.0
    s2 = math.log1p(config.fading_sigma**2)
    g = spawn(config.rng_seed, STREAM_FADING, block_index)
    return float(np.exp(g.normal(-0.5 * s2, math.sqrt(s2))))


def _fading_block(index, period_ps: float, config: ChannelConfig):
    """Fading block holding each pulse index."""
    return index * int(period_ps) // int(config.fading_block_ms * 1e9)


def _block_survival(first_block: int, last_block: int, transmittance: float,
                    config: ChannelConfig) -> list[float]:
    """Photon survival probability ``min(T * f_b, 1)`` of each block in range."""
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
                    efficiency: float, analyzer: np.ndarray,
                    true_clock: TrueClock = TrueClock()) -> PhotonArrivals:
    """Source, channel and Bob's analyzer in one pass: the photons at his APDs.

    ``efficiency`` is the receiver's lumped efficiency ``eta`` and
    ``analyzer`` its 4x4 table ``q[s, d]`` (rows sum to 1). Per shard, the
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
