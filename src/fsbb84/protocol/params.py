"""Session-level protocol parameters and the sifted key."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError, Count, Seed, check_fields

DEFAULT_QBER_ABORT_THRESHOLD = 0.10
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


@dataclass
class SiftedKey:
    """Bits surviving basis reconciliation, with their pulse indices (from a checked report)."""

    bits: np.ndarray  # uint8
    pulse_indices: np.ndarray  # int64, strictly increasing

    def __len__(self) -> int:
        return len(self.bits)
