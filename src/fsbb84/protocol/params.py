"""Session-level protocol parameters and the sifted key."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError

DEFAULT_QBER_ABORT_THRESHOLD = 0.10


@dataclass(frozen=True)
class SessionParams:
    """Two-party session contract.

    ``sample_fraction`` is the share of sifted bits disclosed for QBER
    estimation; benchmark mode (off unless set, or selected in a scenario
    file by ``"sample_fraction": "all"``) discloses everything and keeps
    nothing, which is how the reference measurements are reproduced.
    ``rng_seed`` drives Bob's sample selection.
    """

    session_id: int = 1
    qber_abort_threshold: float = DEFAULT_QBER_ABORT_THRESHOLD
    sample_fraction: float = 1.0
    benchmark_mode: bool = False
    rng_seed: int = 0
    n_pulses: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.qber_abort_threshold < 0.5:
            raise ConfigError("must be in (0, 0.5)", "protocol.qber_abort_threshold")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError("must be in (0, 1]", "protocol.sample_fraction")
        if self.n_pulses is not None and self.n_pulses <= 0:
            raise ConfigError("must be > 0", "protocol.n_pulses")


@dataclass
class SiftedKey:
    """Bits surviving basis reconciliation, with their pulse indices (from a checked report)."""

    bits: np.ndarray  # uint8
    pulse_indices: np.ndarray  # int64, strictly increasing

    def __len__(self) -> int:
        return len(self.bits)
