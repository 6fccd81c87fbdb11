"""Scenario files: one JSON document describing a full experiment.

A scenario bundles source, channel, receiver, sync, and protocol
parameters plus a free-form metadata block mirroring the logged
experimental conditions (weather, visibility, reported figures). Metadata
is carried verbatim and has no physical effect.

The canonical serialization (sorted keys, fixed separators) defines the
scenario hash used by the two-party handshake and by prediction/report
comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Optional

from .channel import ChannelConfig
from .errors import ConfigError
from .protocol.params import SessionParams
from .receiver import ReceiverConfig
from .source import SourceConfig
from .sync import TrueClock


@dataclass(frozen=True)
class SyncSettings:
    """Gate + recovery knobs + the simulated clock disturbance."""

    gate_width_ps: float = 500.0
    block_count: int = 20
    beacon_assisted: bool = False
    true_clock: TrueClock = field(default_factory=TrueClock)

    def __post_init__(self):
        if self.gate_width_ps <= 0:
            raise ConfigError("must be > 0", "sync.gate_width_ps")
        if self.block_count < 1:
            raise ConfigError("must be >= 1", "sync.block_count")


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    source: SourceConfig
    channel: ChannelConfig
    receiver: ReceiverConfig
    sync: SyncSettings
    protocol: SessionParams
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError("must be > 0", "duration_s")
        if self.sync.gate_width_ps >= self.source.period_ps:
            raise ConfigError("gate must be narrower than the pulse period", "sync.gate_width_ps")
        if self.n_pulses <= 0:
            raise ConfigError("must cover at least one pulse period", "duration_s")

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

    def hash_bytes(self) -> bytes:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).digest()

    def hash_hex(self) -> str:
        return self.hash_bytes().hex()

    def with_seed(self, master_seed: int) -> "Scenario":
        """Re-derive every module seed from one master seed."""
        s = int(master_seed)
        return replace(
            self,
            source=replace(self.source, rng_seed=_derive(s, 0)),
            channel=replace(self.channel, rng_seed=_derive(s, 1)),
            receiver=replace(self.receiver, rng_seed=_derive(s, 2)),
            protocol=replace(self.protocol, rng_seed=_derive(s, 3)),
        )


def _derive(seed: int, idx: int) -> int:
    h = hashlib.sha256(f"fsbb84-seed:{seed}:{idx}".encode()).digest()
    return int.from_bytes(h[:8], "little")


def _require(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError("missing required field", f"{path}.{key}" if path else key)
    return d[key]


def _build(cls, payload: dict, path: str, **extra):
    if not isinstance(payload, dict):
        raise ConfigError("must be an object", path)
    try:
        return cls(**payload, **extra)
    except ConfigError:
        raise
    except TypeError as e:
        raise ConfigError(f"bad fields: {e}", path) from None


def scenario_from_dict(doc: dict, name_hint: str = "") -> Scenario:
    """Build a Scenario from parsed JSON, naming the offending field on error."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object", "")
    name = doc.get("name", name_hint or "unnamed")
    duration = _require(doc, "duration_s", "")

    src = _require(doc, "source", "")
    if isinstance(src, dict) and "mu_per_state" in src:
        mu = src["mu_per_state"]
        if not isinstance(mu, (list, tuple)):
            raise ConfigError("must be a 4-element array", "source.mu_per_state")
        src = dict(src, mu_per_state=tuple(float(m) for m in mu))
    source = _build(SourceConfig, src, "source")
    chan = _build(ChannelConfig, _require(doc, "channel", ""), "channel")
    recv = _build(ReceiverConfig, _require(doc, "receiver", ""), "receiver")

    sync_doc = _require(doc, "sync", "")
    if not isinstance(sync_doc, dict):
        raise ConfigError("must be an object", "sync")
    clock = _build(TrueClock, sync_doc.get("true_clock", {}), "sync.true_clock")
    sync_rest = {k: v for k, v in sync_doc.items() if k != "true_clock"}
    sync = _build(SyncSettings, sync_rest, "sync", true_clock=clock)

    proto_doc = dict(_require(doc, "protocol", ""))
    if proto_doc.get("sample_fraction") == "all":
        proto_doc["sample_fraction"] = 1.0
        proto_doc["benchmark_mode"] = True
    proto = _build(SessionParams, proto_doc, "protocol")

    return Scenario(
        name=name,
        duration_s=float(duration),
        source=source,
        channel=chan,
        receiver=recv,
        sync=sync,
        protocol=proto,
        metadata=doc.get("metadata", {}),
    )


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
