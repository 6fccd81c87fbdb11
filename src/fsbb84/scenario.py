"""Scenario files: one JSON document describing a full experiment.

A scenario bundles source, channel, receiver, sync, and protocol
parameters plus a free-form metadata block mirroring the logged
experimental conditions (weather, visibility, reported figures). Metadata
is carried verbatim and has no physical effect.

The parameter classes of all five sections live here, the protocol's
two-party contract (``SessionParams``) included, so that a scenario and
the oracle load no numpy and nothing of ``fsbb84.protocol``. They are the
document's schema: a field's annotation is its kind and range rule
(``errors.check_fields``, run first by each class), and a field annotated
with a parameter class is a section, built from its object.

A field's path is its dotted key path, a section's included (``sync.true_clock``);
:func:`field_paths` lists them. ``Scenario.override({path: value})`` writes each
value into the scenario's document and loads that, so a change is checked and
named as a file's field is; a section or ``metadata`` is replaced whole.

The canonical serialization (sorted keys, fixed separators) defines the
scenario hash used by the two-party handshake and by prediction/report
comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cached_property, reduce
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional

from .errors import ConfigError, Count, NonNegative, Positive, Probability, Seed, check_fields

# Gaussian FWHM -> sigma.
FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Largest mean photon number per pulse: the source's photon-number
# inversion starts from exp(-mu), which underflows near mu = 745.
MAX_MU = 100.0
MAX_SPAN = 2**60  # ps of a dead time or fading block, background tags; clamps train and delay
# receiver.detect quantizes tag times in float64, exact for whole numbers below
# 2^53, and keys them as 4 (t - t_min) + APD in int64: tag times must stay under
# 2^53 ps (2.5 h). The reach rule holds a simulated run to it, load_tags a dump.
MAX_TAG_PS = 2**53
# Fading blocks a faded run may span: the channel seeds one generator per
# block (20-30 us each), so at most 21-31 s of seeding; a 60 s run at
# 0.1 ms blocks spans 6e5.
MAX_FADING_BLOCKS = 1 << 20


@dataclass(frozen=True)
class SourceConfig:
    """Transmitter parameters.

    mu_per_state holds the mean photon number per pulse for the H, V, D, A
    states in that order; pulse_fwhm_ps is the optical pulse duration and
    sets the emission-time spread around the repetition grid.
    """

    rep_rate_hz: Positive = 100e6
    pulse_fwhm_ps: NonNegative = 200.0
    wavelength_nm: Positive = 852.0
    mu_per_state: tuple[float, float, float, float] = (0.1, 0.1, 0.1, 0.1)
    rng_seed: Seed = 0

    def __post_init__(self):
        check_fields(self, "source")
        object.__setattr__(self, "mu_per_state", tuple(map(float, self.mu_per_state)))
        if len(self.mu_per_state) != 4:
            raise ConfigError("needs exactly 4 entries (H, V, D, A)", "source.mu_per_state")
        if any(not 0 <= m <= MAX_MU for m in self.mu_per_state):
            raise ConfigError(f"entries must be in [0, {MAX_MU:g}]", "source.mu_per_state")
        if self.pulse_fwhm_ps >= self.period_ps:
            raise ConfigError("pulse duration must be shorter than the period", "source.pulse_fwhm_ps")

    @property
    def period_ps(self) -> float:
        return 1e12 / self.rep_rate_hz

    @property
    def emit_sigma_ps(self) -> float:
        return self.pulse_fwhm_ps / FWHM_TO_SIGMA


SPEED_OF_LIGHT_M_S = 299_792_458.0


@dataclass(frozen=True)
class ChannelConfig:
    """Free-space link description.

    Beam sizes are 1/e^2 *diameters* in cm, as usually quoted for
    collimators and beam expanders. ``propagation_delay_ps`` defaults to
    the geometric value (doubled path in retro mode) when left as None.
    """

    distance_m: NonNegative
    tx_beam_diameter_e2_cm: Positive
    rx_aperture_diameter_e2_cm: Positive
    visibility_km: Positive = 10.0
    extra_loss_db: float = 0.0
    retro_mode: bool = False
    splitter_penalty_db: NonNegative = 6.0
    retro_flip_prob: Probability = 0.0
    fading_sigma: NonNegative = 0.0
    fading_block_ms: Positive = 10.0
    propagation_delay_ps: Optional[int] = None
    rng_seed: Seed = 0

    def __post_init__(self):
        check_fields(self, "channel")

    @property
    def path_length_m(self) -> float:
        return 2.0 * self.distance_m if self.retro_mode else self.distance_m

    def delay_ps(self) -> int:
        if self.propagation_delay_ps is not None:
            return int(self.propagation_delay_ps)
        return int(round(self.path_length_m / SPEED_OF_LIGHT_M_S * 1e12))


RANDOM_BIT = "random_bit"
DISCARD = "discard"


@dataclass(frozen=True)
class ReceiverConfig:
    efficiency_db: NonNegative = 12.0  # a loss
    misalignment_deg: float = 0.0
    background_rate_cps_per_apd: NonNegative = 0.0
    jitter_fwhm_ps: NonNegative = 350.0
    dead_time_ns: NonNegative = 50.0
    tag_resolution_ps: Count = 1
    double_click_policy: str = RANDOM_BIT
    rng_seed: Seed = 0

    def __post_init__(self):
        check_fields(self, "receiver")
        if self.double_click_policy not in (RANDOM_BIT, DISCARD):
            raise ConfigError(f"unknown policy {self.double_click_policy!r}",
                              "receiver.double_click_policy")

    @property
    def efficiency(self) -> float:
        return 10.0 ** (-self.efficiency_db / 10.0)

    @property
    def jitter_sigma_ps(self) -> float:
        return self.jitter_fwhm_ps / FWHM_TO_SIGMA


# Largest |drift| a simulated clock may have (TrueClock) and the band the
# FFT acquisition searches.
DRIFT_GUARD_PPM = 100.0


@dataclass(frozen=True)
class TrueClock:
    """Ground-truth receiver-clock disturbance (simulation input)."""

    offset_ps: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self):
        check_fields(self, "sync.true_clock")
        if abs(self.drift_ppm) > DRIFT_GUARD_PPM:
            raise ConfigError(f"|drift| must be <= {DRIFT_GUARD_PPM} ppm", "sync.true_clock.drift_ppm")

    @property
    def rate(self) -> float:
        return 1.0 + self.drift_ppm * 1e-6

    def to_receiver(self, t_source_ps):
        """Map transmitter-side times onto the receiver clock."""
        return self.offset_ps + self.rate * t_source_ps


@dataclass(frozen=True)
class SyncSettings:
    """The gate, whether the beacon supplies the drift, and the simulated clock disturbance."""

    gate_width_ps: Positive = 500.0
    beacon_assisted: bool = False
    true_clock: TrueClock = field(default_factory=TrueClock)

    def __post_init__(self):
        check_fields(self, "sync")


DEFAULT_QBER_ABORT_THRESHOLD = 0.10
# The two parties of a session, as the CLI's --role names them.
ROLE_ALICE, ROLE_BOB = "alice", "bob"


@dataclass(frozen=True)
class SessionParams:
    """Two-party session contract, agreed through the HELLO scenario hash.

    ``sample_fraction`` is the share of sifted bits disclosed for QBER
    estimation; 1.0 discloses everything and keeps nothing, which is how
    the reference measurements are reproduced. ``rng_seed`` drives Bob's
    sample selection.
    """

    session_id: Seed = 1
    qber_abort_threshold: float = DEFAULT_QBER_ABORT_THRESHOLD
    sample_fraction: float = 1.0
    rng_seed: Seed = 0
    n_pulses: Optional[Count] = None

    def __post_init__(self):
        check_fields(self, "protocol")
        if not 0.0 < self.qber_abort_threshold < 0.5:
            raise ConfigError("must be in (0, 0.5)", "protocol.qber_abort_threshold")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError("must be in (0, 1]", "protocol.sample_fraction")


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: Positive
    source: SourceConfig
    channel: ChannelConfig
    receiver: ReceiverConfig
    sync: SyncSettings
    protocol: SessionParams
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self, "")
        object.__setattr__(self, "duration_s", float(self.duration_s))
        if self.sync.gate_width_ps >= self.source.period_ps:
            raise ConfigError("gate must be narrower than the pulse period", "sync.gate_width_ps")
        if self.receiver.tag_resolution_ps >= self.sync.gate_width_ps:
            raise ConfigError("must be narrower than the gate", "receiver.tag_resolution_ps")
        if math.isinf(self.duration_s * self.source.rep_rate_hz):
            raise ConfigError("covers more pulses than a float can count", "duration_s")
        if self.n_pulses <= 0:
            raise ConfigError("must cover at least one pulse period", "duration_s")
        ch, rx, delay_set = self.channel, self.receiver, self.channel.propagation_delay_ps is not None
        if not 1 <= ch.fading_block_ms * 1e9 < MAX_SPAN:  # the channel's integer divisor, in ps
            raise ConfigError("must be at least 1 ps and under 2^60 ps", "channel.fading_block_ms")
        train_ps = min(self.n_pulses, MAX_SPAN) * max(1.0, self.source.period_ps)
        train_field = "duration_s" if self.protocol.n_pulses is None else "protocol.n_pulses"
        delay_field = "channel.propagation_delay_ps" if delay_set else "channel.distance_m"
        # The one tag-time rule, run before any rule that divides the pulse count:
        # a bound on |tag time|, the clock offset, then the train, the delay and
        # 32 emission sigmas at the drift guard's rate, then 32 detector sigmas.
        # The largest term is blamed.
        g = 1.0 + DRIFT_GUARD_PPM * 1e-6
        delay = (min(abs(ch.delay_ps()), MAX_SPAN)  # a link past MAX_SPAN m overflows delay_ps()
                 if delay_set or ch.distance_m < MAX_SPAN else MAX_SPAN)
        reach = {"sync.true_clock.offset_ps": abs(self.sync.true_clock.offset_ps),
                 train_field: g * train_ps, delay_field: g * delay,
                 "source.pulse_fwhm_ps": g * 32 * self.source.emit_sigma_ps,
                 "receiver.jitter_fwhm_ps": 32 * rx.jitter_sigma_ps}
        if sum(reach.values()) >= MAX_TAG_PS:
            raise ConfigError("puts the run's tag times past 2^53 ps", max(reach, key=reach.get))
        for value, name in ((rx.dead_time_ns * 1e3, "receiver.dead_time_ns"),
                            (rx.background_rate_cps_per_apd * self.simulated_duration_s,
                             "receiver.background_rate_cps_per_apd")):
            if value >= MAX_SPAN:
                raise ConfigError("puts the run's times or counts past 2^60", name)
        if ch.fading_sigma > 0 and train_ps > MAX_FADING_BLOCKS * ch.fading_block_ms * 1e9:
            raise ConfigError(f"splits a faded run into over {MAX_FADING_BLOCKS} blocks",
                              "channel.fading_block_ms")

    @property
    def n_pulses(self) -> int:
        if self.protocol.n_pulses is not None:
            return self.protocol.n_pulses
        return int(round(self.duration_s * self.source.rep_rate_hz))

    @property
    def simulated_duration_s(self) -> float:
        return self.n_pulses / self.source.rep_rate_hz

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @cached_property
    def _digest(self) -> bytes:
        """SHA-256 of the canonical JSON, taken once: nothing mutates ``metadata``."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).digest()

    def hash_bytes(self) -> bytes:
        return self._digest

    def hash_hex(self) -> str:
        return self._digest.hex()

    def override(self, changes: dict) -> "Scenario":
        """This scenario with the field at each path of ``changes`` set to its
        value; a ConfigError names a path that is not a field."""
        doc, paths = self.to_dict(), {path for path, _ in field_paths()}
        for path, value in changes.items():
            if path not in paths:
                raise ConfigError("not a scenario field", path)
            if any(path.startswith(p + ".") for p in changes):
                raise ConfigError("inside a section this override replaces", path)
            *parents, leaf = path.split(".")
            reduce(dict.__getitem__, parents, doc)[leaf] = value
        return scenario_from_dict(doc)

    def with_seed(self, master_seed: int) -> "Scenario":
        """Re-derive every module seed from one master seed."""
        s = int(master_seed)
        return self.override({f"{section}.rng_seed": _derive(s, i) for i, section
                              in enumerate(("source", "channel", "receiver", "protocol"))})


def field_paths(cls=Scenario, prefix: str = "") -> Iterator[tuple[str, str]]:
    """(dotted path, annotation) of every field of the schema, a section before its fields."""
    for f in fields(cls):
        yield prefix + f.name, f.type
        if is_dataclass(section := globals().get(f.type)):
            yield from field_paths(section, f"{prefix}{f.name}.")


def _derive(seed: int, idx: int) -> int:
    h = hashlib.sha256(f"fsbb84-seed:{seed}:{idx}".encode()).digest()
    return int.from_bytes(h[:8], "little")


def _build(cls, payload, path: str):
    """``cls`` from its JSON object at ``path``; a field annotated with a
    parameter class is built from its own object, any other value as is."""
    if not isinstance(payload, dict):
        raise ConfigError("must be an object", path)
    prefix = f"{path}." if path else ""
    for key in payload:
        if key not in cls.__dataclass_fields__:
            raise ConfigError("unknown field", prefix + key)
    values = dict(payload)
    for f in fields(cls):
        section = globals().get(f.type)
        if f.name in payload and is_dataclass(section):
            values[f.name] = _build(section, payload[f.name], prefix + f.name)
        elif f.name not in payload and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError("missing required field", prefix + f.name)
    return cls(**values)


def scenario_from_dict(doc: dict, name_hint: str = "") -> Scenario:
    """Build a Scenario from parsed JSON, naming the offending field on error."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object", "")
    return _build(Scenario, {"name": name_hint or "unnamed", **doc}, "")


BUNDLED_NAMES = (
    "table1_run1_retro",
    "table1_run2_retro",
    "table2_beam_expanders",
    "table2_collimators",
)


def bundled_scenario_text(name: str) -> str:
    """JSON text of the bundled scenario ``name``, one of :data:`BUNDLED_NAMES`."""
    return resources.files("fsbb84.scenarios").joinpath(f"{name}.json").read_text("utf-8")


def load_scenario(source, seed: Optional[int] = None) -> Scenario:
    """Load a bundled scenario by name, else a JSON file by path (optionally reseeded)."""
    if source in BUNDLED_NAMES:
        text, name = bundled_scenario_text(source), source
    else:
        p = Path(source)
        try:
            text = p.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"scenario file not found: {p}", "") from None
        name = p.stem
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"not valid JSON: {e}", str(source)) from None
    scenario = scenario_from_dict(doc, name_hint=name)
    return scenario if seed is None else scenario.with_seed(seed)


def bundled_scenario(name: str, seed: Optional[int] = None) -> Scenario:
    """Load a bundled scenario; an unknown name is an error, never a path."""
    if name not in BUNDLED_NAMES:
        raise ConfigError(f"unknown bundled scenario {name!r} "
                          f"(have: {', '.join(BUNDLED_NAMES)})", "scenario")
    return load_scenario(name, seed)
