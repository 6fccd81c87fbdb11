"""Exception types shared across the simulator and protocol stack."""


class ConfigError(ValueError):
    """A configuration value or scenario field is invalid.

    ``field`` carries the dotted path of the offending entry when known
    (e.g. ``channel.distance_m``).
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


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
