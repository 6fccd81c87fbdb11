"""Single-process session orchestration: both parties over a loopback pair."""

from __future__ import annotations

import threading
from typing import Optional

from .errors import SessionFailedError
from .protocol.params import ROLE_ALICE, ROLE_BOB
from .protocol.session import SessionReport, run_session
from .protocol.transport import loopback_pair
from .scenario import Scenario
from .simulate import QuantumPhase, simulate_quantum_phase


def run_in_process(scenario: Scenario, timeout_s: float = 600.0,
                   quantum: Optional[QuantumPhase] = None
                   ) -> tuple[SessionReport, SessionReport, QuantumPhase]:
    """Run a full session in one process.

    The quantum phase is simulated once and shared; the two protocol
    parties then run concurrently over an in-process socket pair.
    Returns (bob_report, alice_report, quantum_phase); Alice's exception,
    if any, is the one raised.
    """
    if quantum is None:
        quantum = simulate_quantum_phase(scenario)
    t_alice, t_bob = loopback_pair(timeout_s)

    alice_out: list = [None]
    alice_err: list = [None]

    def alice_side():
        try:
            alice_out[0] = run_session(ROLE_ALICE, t_alice, scenario)
        except BaseException as e:  # re-raised on the main thread
            alice_err[0] = e
            t_alice.close()  # Bob's read then fails at once, not at timeout_s

    th = threading.Thread(target=alice_side, name="alice", daemon=True)
    th.start()
    try:
        bob_report = run_session(ROLE_BOB, t_bob, scenario, quantum=quantum)
    except SessionFailedError:  # her failure closed the transport under him
        if alice_err[0] is None:
            raise
    finally:
        # Closing Bob's end unblocks Alice if Bob bailed out mid-flow.
        t_bob.close()
        th.join(timeout=timeout_s)
        t_alice.close()
    if alice_err[0] is not None:
        raise alice_err[0]
    if th.is_alive():
        raise SessionFailedError(f"Alice did not finish within {timeout_s} s", phase="join")
    return bob_report, alice_out[0], quantum
