"""Alice's pulsed polarization source.

Generates the transmitter pulse train: one pulse per period of the
repetition clock, each carrying a uniformly random basis/bit choice, the
matching polarization angle, and a Poisson-distributed photon number whose
mean may differ per polarization state (a weak emitter for one state is a
real failure mode of multi-laser sources).

State encoding used throughout the package::

    state = 2 * basis + bit      H=0  V=1  D=2  A=3
    basis: 0 = rectilinear (H/V), 1 = diagonal (D/A)

States are counter-based: the state of pulse ``i`` is the top two bits of
the SplitMix64 hash of ``i`` under a key derived from ``rng_seed`` (see
:mod:`fsbb84.seeds`). Any pulse's state is one hash away, so Alice looks
up the states Bob reports without regenerating anything
(:class:`LazyPulseTrain`).

Photon numbers are drawn only where they are not zero. Each shard of
``SHARD_SIZE`` pulses has its own generator derived from
``(rng_seed, shard_index)``, and :func:`generate_shard` draws its
non-vacuum pulses by exact Poisson thinning:

* candidate positions come from geometric gaps at
  ``p_max = 1 - exp(-max_s mu_s)``;
* a candidate of state ``s`` is kept with probability
  ``(1 - exp(-mu_s)) / p_max``;
* its photon number comes from a zero-truncated Poisson(mu_s), by
  inversion.

The cost follows ``mu * n``, not ``n``. Loss thins a Poisson pulse into a
Poisson pulse, so the channel draws the pulses that reach Bob's APDs with
the same function at ``mu_s * T * eta`` (:func:`fsbb84.channel.transmit_stream`).

Reproducibility: a seed fixes every output for a given ``n_pulses``. The
states of a seed never depend on ``n_pulses``; the photon numbers of its
last shard do. This is version 3 of the contract in :mod:`fsbb84.seeds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .seeds import (STREAM_EMIT_JITTER, STREAM_SOURCE, STREAM_STATE, counter_key, spawn,
                    splitmix64)

RECTILINEAR = 0
DIAGONAL = 1

STATE_H, STATE_V, STATE_D, STATE_A = 0, 1, 2, 3
STATE_NAMES = "HVDA"

# Polarizer orientations per state, degrees.
STATE_ANGLES_DEG = np.array([0.0, 90.0, 45.0, -45.0])

# Gaussian FWHM -> sigma.
FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Largest mean photon number per pulse: the photon-number inversion in
# generate_shard starts from exp(-mu), which underflows near mu = 745.
MAX_MU = 100.0

# Pulses per generator of the photon-number draw. Part of the
# reproducibility contract.
SHARD_SIZE = 1 << 22


def polarization_angle(basis: int, bit: int) -> float:
    """Polarizer angle in degrees for a basis/bit choice."""
    if basis not in (RECTILINEAR, DIAGONAL) or bit not in (0, 1):
        raise ValueError(f"invalid basis/bit: {basis}/{bit}")
    return float(STATE_ANGLES_DEG[2 * basis + bit])


def sample_photon_count(mu: float, rng: np.random.Generator) -> int:
    """Draw one Poisson photon number with mean ``mu``."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    return int(rng.poisson(mu))


@dataclass(frozen=True)
class SourceConfig:
    """Transmitter parameters.

    mu_per_state holds the mean photon number per pulse for the H, V, D, A
    states in that order; pulse_fwhm_ps is the optical pulse duration and
    sets the emission-time spread around the repetition grid.
    """

    rep_rate_hz: float = 100e6
    pulse_fwhm_ps: float = 200.0
    wavelength_nm: float = 852.0
    mu_per_state: tuple[float, float, float, float] = (0.1, 0.1, 0.1, 0.1)
    rng_seed: int = 0

    def __post_init__(self):
        if self.rep_rate_hz <= 0:
            raise ConfigError("must be > 0", "source.rep_rate_hz")
        if self.wavelength_nm <= 0:
            raise ConfigError("must be > 0", "source.wavelength_nm")
        if len(self.mu_per_state) != 4:
            raise ConfigError("needs exactly 4 entries (H, V, D, A)", "source.mu_per_state")
        if any(not 0 <= m <= MAX_MU for m in self.mu_per_state):
            raise ConfigError(f"entries must be in [0, {MAX_MU:g}]", "source.mu_per_state")
        if self.pulse_fwhm_ps < 0:
            raise ConfigError("must be >= 0", "source.pulse_fwhm_ps")
        if self.pulse_fwhm_ps >= self.period_ps:
            raise ConfigError("pulse duration must be shorter than the period", "source.pulse_fwhm_ps")

    @property
    def period_ps(self) -> float:
        return 1e12 / self.rep_rate_hz

    @property
    def emit_sigma_ps(self) -> float:
        return self.pulse_fwhm_ps / FWHM_TO_SIGMA


@dataclass(frozen=True)
class PulseRecord:
    """One emitted pulse (Alice-side ground truth)."""

    index: int
    basis: int
    bit: int
    photon_count: int
    emit_time_ps: int

    @property
    def state(self) -> int:
        return 2 * self.basis + self.bit

    @property
    def angle_deg(self) -> float:
        return float(STATE_ANGLES_DEG[self.state])


@dataclass
class PulseTrain:
    """Materialized pulse train (struct of arrays, index = 0..n-1)."""

    config: SourceConfig
    basis: np.ndarray
    bit: np.ndarray
    photon_count: np.ndarray
    emit_time_ps: np.ndarray

    def __len__(self) -> int:
        return len(self.basis)

    @property
    def n_pulses(self) -> int:
        return len(self.basis)

    @property
    def state(self) -> np.ndarray:
        return (2 * self.basis + self.bit).astype(np.uint8)

    def record(self, i: int) -> PulseRecord:
        return PulseRecord(
            index=i,
            basis=int(self.basis[i]),
            bit=int(self.bit[i]),
            photon_count=int(self.photon_count[i]),
            emit_time_ps=int(self.emit_time_ps[i]),
        )

    def states_at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(basis, bit) arrays for the given pulse indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return self.basis[idx], self.bit[idx]


class LazyPulseTrain:
    """Pulse-train view that computes basis/bit choices on demand.

    Stores nothing per pulse; a lookup hashes the requested indices. Used
    by Alice, who only ever inspects the pulses Bob reports.
    """

    def __init__(self, config: SourceConfig, n_pulses: int):
        if n_pulses <= 0:
            raise ConfigError("must be > 0", "n_pulses")
        self.config = config
        self.n_pulses = n_pulses

    def __len__(self) -> int:
        return self.n_pulses

    def states_at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_pulses):
            raise IndexError("pulse index out of range")
        states = pulse_states(self.config, idx)
        return states >> 1, states & 1


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def pulse_states(config: SourceConfig, indices) -> np.ndarray:
    """State (0..3, uint8) of each pulse index: top two bits of its hash."""
    z = splitmix64(counter_key(config.rng_seed, STREAM_STATE), indices)
    return (z >> np.uint64(62)).astype(np.uint8)


@dataclass
class PulseShard:
    """The pulses of one shard that carry at least one photon."""

    start: int  # global index of the shard's first pulse
    position: np.ndarray  # int64, increasing positions within the shard
    states: np.ndarray  # uint8, 0..3
    photon_count: np.ndarray  # int64, >= 1
    rng: np.random.Generator = field(repr=False)


def _success_positions(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Positions of the successes among ``n`` Bernoulli(p) trials."""
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    # n + 1 gaps always pass n; the usual batch covers it at 6 sigma.
    batch = min(int(n * p + 6.0 * math.sqrt(n * p)) + 16, n + 1)
    pos = np.cumsum(rng.geometric(p, size=batch)) - 1
    while pos[-1] < n:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, size=batch))])
    return pos[: np.searchsorted(pos, n)]


def _zero_truncated_poisson(mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Poisson(mu) draw per entry, conditioned on >= 1, by inversion."""
    u = rng.random(mu.size) * -np.expm1(-mu)  # uniform on [0, P(N >= 1))
    pmf = mu * np.exp(-mu)
    cdf = pmf.copy()
    count = np.ones(mu.size, dtype=np.int64)
    todo = np.nonzero(u >= cdf)[0]
    k = 1
    while todo.size:  # ends at the latest where the pmf underflows
        k += 1
        pmf[todo] *= mu[todo] / k
        cdf[todo] += pmf[todo]
        count[todo] = k
        todo = todo[(u[todo] >= cdf[todo]) & (pmf[todo] > 0.0)]
    return count


def generate_shard(config: SourceConfig, shard_index: int, n: int) -> PulseShard:
    """The non-vacuum pulses among the ``n`` pulses of shard ``shard_index``.

    ``n`` may be smaller than SHARD_SIZE only for the final shard. The
    returned generator has drawn nothing else; consumers continue from it
    (emission jitter, channel draws).
    """
    g = spawn(config.rng_seed, STREAM_SOURCE, shard_index)
    start = shard_index * SHARD_SIZE
    mu = np.asarray(config.mu_per_state, dtype=np.float64)
    p_max = -math.expm1(-mu.max())
    pos = _success_positions(n, p_max, g)
    states = pulse_states(config, start + pos)
    keep = g.random(pos.size) * p_max < -np.expm1(-mu)[states]
    pos, states = pos[keep], states[keep]
    return PulseShard(start=start, position=pos, states=states,
                      photon_count=_zero_truncated_poisson(mu[states], g), rng=g)


def emit_jitter_ps(config: SourceConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian emission-time offsets around the grid, in ps (float64)."""
    if config.pulse_fwhm_ps == 0.0 or n == 0:
        return np.zeros(n)
    return rng.normal(0.0, config.emit_sigma_ps, size=n)


def build_pulse_train(config: SourceConfig, n_pulses: int) -> PulseTrain:
    """Materialize a full pulse train.

    States are the same hash that :class:`LazyPulseTrain` computes and
    photon numbers come from :func:`generate_shard`. Emission jitter has
    its own stream per shard, so emission times do not depend on mu. A
    session (:func:`fsbb84.channel.transmit_stream`) shares these states
    but draws its own photon numbers and jitter.
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


# ---------------------------------------------------------------------------
# Binary dump (index u64, basis u8, bit u8, count u8, emit_time_ps i64; LE)
# ---------------------------------------------------------------------------

_DUMP_DTYPE = np.dtype([
    ("index", "<u8"),
    ("basis", "u1"),
    ("bit", "u1"),
    ("count", "u1"),
    ("emit_time_ps", "<i8"),
])


def dump_pulse_train(train: PulseTrain, path) -> None:
    """Write the replay/debug record stream for a train."""
    rec = np.empty(len(train), dtype=_DUMP_DTYPE)
    rec["index"] = np.arange(len(train), dtype=np.uint64)
    rec["basis"] = train.basis
    rec["bit"] = train.bit
    rec["count"] = np.minimum(train.photon_count, 255).astype(np.uint8)
    rec["emit_time_ps"] = train.emit_time_ps
    with open(path, "wb") as f:
        f.write(rec.tobytes())


def load_pulse_train(path, config: SourceConfig) -> PulseTrain:
    with open(path, "rb") as f:
        rec = np.frombuffer(f.read(), dtype=_DUMP_DTYPE)
    return PulseTrain(
        config=config,
        basis=rec["basis"].copy(),
        bit=rec["bit"].copy(),
        photon_count=rec["count"].astype(np.uint16),
        emit_time_ps=rec["emit_time_ps"].copy(),
    )
