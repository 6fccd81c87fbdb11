"""Exception types shared across the simulator and protocol stack, and ``check_fields``."""

import sys
from dataclasses import fields


class ConfigError(ValueError):
    """A configuration value or scenario field is invalid.

    ``field`` carries the dotted path of the offending entry when known
    (e.g. ``channel.distance_m``).
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


# A generator seed or session id: an int in [0, 2^64), the wire's u64.
Seed = int
# Range kinds: finite and > 0, finite and >= 0, in [0, 1], and an int >= 1.
Positive = NonNegative = Probability = float
Count = int


def _finite(v) -> bool:  # int-float comparisons are exact: ints past any float fail too
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# A field's kind rule, by its annotation: (test, what a value must be).
_KINDS = {
    "float": (_finite, "a finite number"),
    "int": (lambda v: type(v) is int, "an int"),
    "Optional[int]": (lambda v: v is None or type(v) is int, "an int or null"),
    "Seed": (lambda v: type(v) is int and 0 <= v < 1 << 64, "an int in [0, 2^64)"),
    "Positive": (lambda v: _finite(v) and v > 0, "a finite number > 0"),
    "NonNegative": (lambda v: _finite(v) and v >= 0, "a finite number >= 0"),
    "Probability": (lambda v: _finite(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "Count": (lambda v: type(v) is int and v >= 1, "an int >= 1"),
    "Optional[Count]": (lambda v: v is None or type(v) is int and v >= 1, "an int >= 1 or null"),
    "bool": (lambda v: type(v) is bool, "a bool"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "tuple[float, float, float, float]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_finite, v)), "an array of finite numbers"),
}


def check_fields(config, section: str) -> None:
    """A ConfigError naming the first field of ``config`` that is not of its kind.

    A field's annotation is its kind and range rule: a key of ``_KINDS`` (a
    range kind such as ``Positive`` is one) or else a class name (annotations
    are strings under ``from __future__ import annotations``).
    ``section`` is the dotted path of ``config`` in a document, "" at its top.
    """
    for f in fields(config):
        v = getattr(config, f.name)
        rule, kind = _KINDS.get(f.type, (lambda v: type(v).__name__ == f.type, f"a {f.type}"))
        if not rule(v):
            raise ConfigError(f"must be {kind}, got {v!r}", f"{section}.{f.name}" if section else f.name)


class SyncFailureError(RuntimeError):
    """Clock recovery could not find a significant pulse-grid signature."""


class ProtocolViolationError(RuntimeError):
    """The peer sent a message that breaks the session contract."""


class InconclusiveSessionError(RuntimeError):
    """The session produced no sifted bits, so no QBER can be estimated."""


class SessionFailedError(RuntimeError):
    """Infrastructure failure mid-session: transport death or timeout."""

    def __init__(self, message: str, phase: str = "unknown"):
        self.message, self.phase = message, phase
        super().__init__(f"[phase={phase}] {message}")


class FrameError(ValueError):
    """Base class for wire-format decode problems."""


class NeedMoreBytes(FrameError):
    """The buffer ends before the frame does; read more and retry."""

    def __init__(self, needed: int = 0):
        self.needed = needed
        super().__init__(f"incomplete frame (need >= {needed} more bytes)")


class CorruptFrameError(FrameError):
    """The frame is malformed: bad magic, version, length, or checksum."""


class ComparisonRefusedError(ValueError):
    """Prediction and report come from different scenarios."""
