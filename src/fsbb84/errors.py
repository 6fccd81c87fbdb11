"""Exception types shared across the simulator and protocol stack."""


class ConfigError(ValueError):
    """A configuration value or scenario field is invalid.

    ``field`` carries the dotted path of the offending entry when known
    (e.g. ``channel.distance_m``).
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


def check_kinds(config, path: str, ints=(), seeds=(), bools=()) -> None:
    """A ConfigError naming the first listed field of ``config`` of the wrong kind.

    ``ints`` must be ints (or None where that is the default), ``seeds`` ints
    in [0, 2^64), as the wire's u64, and ``bools`` bools; a bool is no int.
    """
    for name in (*ints, *seeds, *bools):
        v = getattr(config, name)
        is_int = isinstance(v, int) and not isinstance(v, bool)
        if name in bools:
            ok, kind = isinstance(v, bool), "a bool"
        elif name in seeds:
            ok, kind = is_int and 0 <= v < 1 << 64, "an int in [0, 2^64)"
        else:
            optional = config.__dataclass_fields__[name].default is None
            ok, kind = is_int or (optional and v is None), "an int"
        if not ok:
            raise ConfigError(f"must be {kind}, got {v!r}", f"{path}.{name}")


class ContractViolationError(RuntimeError):
    """An operation received input violating its documented precondition."""


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
