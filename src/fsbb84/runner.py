"""Single-process session orchestration: Bob's party drives Alice's, inline."""

from __future__ import annotations

from .protocol.session import SessionReport, run_session, session_party
from .protocol.transport import InlinePeer, StreamTransport
from .scenario import ROLE_ALICE, ROLE_BOB, Scenario
from .simulate import QuantumPhase, simulate_quantum_phase


def run_in_process(scenario: Scenario, quantum: QuantumPhase | None = None
                   ) -> tuple[SessionReport, SessionReport, QuantumPhase]:
    """(bob_report, alice_report, quantum_phase) of a session run in one thread.

    Bob's transport wraps an :class:`InlinePeer` stepping Alice's party, so
    every message crosses the wire codec; Alice's exception leaves Bob's send."""
    if quantum is None:
        quantum = simulate_quantum_phase(scenario)
    alice = InlinePeer(session_party(ROLE_ALICE, scenario, ["handshake"]))
    bob_report = run_session(ROLE_BOB, StreamTransport(alice), scenario, quantum=quantum)
    return bob_report, alice.result, quantum
