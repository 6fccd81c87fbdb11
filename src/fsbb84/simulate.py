"""End-to-end quantum phase: source -> channel -> receiver -> sync.

Bob's side of a session is one deterministic function of the scenario:
only the pulses that deliver a photon to one of his APDs are drawn, and
those photons are time-tagged and assigned to pulse slots under the
recovered clock. Alice's side never needs more than her own basis/bit
choices, which she hashes from the source seed for the pulses Bob reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, channel, receiver, sync
from .receiver import TimeTags
from .scenario import Scenario
from .seeds import STREAM_PROTOCOL, spawn
from .sync import Assignments, ClockModel


@dataclass
class QuantumPhase:
    """Everything Bob's bench produces before the classical protocol."""

    tags: TimeTags
    clock: ClockModel
    assignments: Assignments
    classified_index: np.ndarray
    classified_detector: np.ndarray
    n_arrivals: int
    n_multi_click: int
    n_multi_discarded: int

    def counts(self) -> dict:
        """Deterministic stage counts.

        ``arrivals`` counts photons at the APD inputs, after the receiver
        efficiency: the channel draws no others (a replayed tag stream
        reports its tag count there).
        """
        return {
            "arrivals": self.n_arrivals,
            "tags_total": len(self.tags),
            "tags_per_detector": self.tags.per_detector_counts(),
            "tags_gate_accepted": len(self.assignments),
            "tags_gate_rejected": self.assignments.rejected_count,
            "multi_click_pulses": self.n_multi_click,
            "multi_click_discarded": self.n_multi_discarded,
            "reported_pulses": int(len(self.classified_index)),
        }


def expected_offset_ps(scenario: Scenario) -> float:
    """Coarse absolute-timing reference the sync beacon provides."""
    return float(scenario.sync.true_clock.to_receiver(scenario.channel.delay_ps()))


def receiver_window_ps(scenario: Scenario) -> tuple[int, int]:
    """Receiver-clock span covering the whole pulse train."""
    end = scenario.sync.true_clock.to_receiver(
        scenario.channel.delay_ps() + scenario.n_pulses * scenario.source.period_ps)
    return int(expected_offset_ps(scenario)), int(np.ceil(end))


def simulate_quantum_phase(scenario: Scenario, with_truth: bool = False,
                           replay_tags: Optional[TimeTags] = None) -> QuantumPhase:
    """Run Bob's bench for one session (or replay a recorded tag stream)."""
    src, rx = scenario.source, scenario.receiver
    n_pulses = scenario.n_pulses

    if replay_tags is None:
        arrivals = channel.transmit_stream(src, scenario.channel, n_pulses, rx.efficiency,
                                           analysis.analyzer_table(rx.misalignment_deg),
                                           true_clock=scenario.sync.true_clock)
        tags = receiver.detect(arrivals, rx,
                               session_duration_s=scenario.simulated_duration_s,
                               window_ps=receiver_window_ps(scenario),
                               with_truth=with_truth)
        n_arrivals = len(arrivals)
        del arrivals  # only its length is kept: freed before clock recovery
    else:
        tags = replay_tags
        n_arrivals = len(replay_tags)

    known_drift = scenario.sync.true_clock.drift_ppm if scenario.sync.beacon_assisted else None
    clock = sync.recover_clock(tags.time_ps, src.period_ps,
                               known_drift_ppm=known_drift,
                               coarse_reference_ps=expected_offset_ps(scenario))

    assignments = sync.assign_and_gate(tags, clock, scenario.sync.gate_width_ps)

    # Bob only reports slots inside the agreed train: a prefix, as gating keeps order.
    n_in = np.searchsorted(assignments.pulse_index, n_pulses)
    rng = spawn(rx.rng_seed, STREAM_PROTOCOL)
    idx, det, n_multi, n_discarded = receiver.classify_clicks(
        assignments.pulse_index[:n_in], assignments.detector[:n_in],
        rx.double_click_policy, rng)

    return QuantumPhase(
        tags=tags,
        clock=clock,
        assignments=assignments,
        classified_index=idx,
        classified_detector=det,
        n_arrivals=n_arrivals,
        n_multi_click=n_multi,
        n_multi_discarded=n_discarded,
    )

