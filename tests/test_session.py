"""Session state machine: handshake, sifting symmetry, aborts, transports."""

import dataclasses
import socket
import struct
import threading
import time

import numpy as np
import pytest

from conftest import crc_valid_frame, make_fast_scenario
from fsbb84.errors import SessionFailedError, SyncFailureError
from fsbb84.protocol import session
from fsbb84.protocol.framing import (Abort, DetectionReport, Done, Hello, MatchMask, MsgType,
                                     QberResult, SampleBits, SampleIndices, encode_frame)
from fsbb84.protocol.session import run_session
from fsbb84.protocol.transport import InlinePeer, StreamTransport, connect, listen_accept
from fsbb84.receiver import TimeTags
from fsbb84 import runner
from fsbb84.runner import run_in_process
from fsbb84.scenario import ROLE_ALICE, ROLE_BOB, field_paths
from fsbb84.simulate import simulate_quantum_phase


def test_in_process_session_completes(fast_scenario):
    bob, alice, qp = run_in_process(fast_scenario)
    assert bob.completed and alice.completed
    assert not bob.abort
    assert bob.sifted_key_length > 0
    # a sample fraction of 1: QBER over every sifted bit, nothing kept
    assert bob.qber.disclosed_count == bob.sifted_key_length
    assert bob.remaining_key_length == 0
    assert bob.qber.qber == alice.qber.qber
    assert bob.sifted_key_length == alice.sifted_key_length


def test_sifting_symmetry_and_rate_accounting(fast_scenario):
    bob, alice, qp = run_in_process(fast_scenario)
    assert bob.sifted_key_rate_bps == pytest.approx(
        bob.sifted_key_length / fast_scenario.simulated_duration_s)
    assert bob.counts["reported_pulses"] >= bob.sifted_key_length
    assert bob.loss_accounting["total_db"] == pytest.approx(6.0)
    assert bob.scenario_hash == fast_scenario.hash_hex()


def test_session_deterministic(fast_scenario):
    r1, a1, _ = run_in_process(fast_scenario)
    r2, a2, _ = run_in_process(fast_scenario)
    assert r1.canonical_json() == r2.canonical_json()
    assert a1.canonical_json() == a2.canonical_json()


def _inline_alice(scenario):
    """Alice's party behind a socket stand-in, stepped inline by Bob's sends."""
    return InlinePeer(session.session_party(ROLE_ALICE, scenario, ["handshake"]))


# A valid value differing from the fast scenario's, for every protocol field
# and for one field of the link.
_OTHER_VALUE = {"protocol.session_id": 2, "protocol.qber_abort_threshold": 0.11,
                "protocol.sample_fraction": 0.5, "protocol.rng_seed": 7,
                "protocol.n_pulses": 1_000, "channel.extra_loss_db": 7.0}


class _Audit(StreamTransport):
    """Keeps every message it sends in ``sent``."""

    def __init__(self, sock):
        super().__init__(sock)
        self.sent = []

    def send_message(self, message):
        self.sent.append(message)
        super().send_message(message)


@pytest.mark.parametrize("path", [p for p, _ in field_paths() if p.startswith("protocol.")]
                         + ["channel.extra_loss_db"])
def test_scenario_hash_mismatch_aborts(fast_scenario, path):
    # The HELLO hash is the parties' only parameter agreement: a difference
    # in any protocol field, or in the link, ends both in the handshake,
    # before any report.
    other = fast_scenario.override({path: _OTHER_VALUE[path]})
    alice_phase = ["handshake"]
    alice = InlinePeer(session.session_party(ROLE_ALICE, fast_scenario, alice_phase))
    t_bob = _Audit(alice)
    bob = run_session(ROLE_BOB, t_bob, other)
    reason = "session-id-mismatch" if path == "protocol.session_id" else "parameter-mismatch"
    assert bob.abort_reason == alice.result.abort_reason == reason
    assert alice_phase == ["handshake"]
    assert [type(m) for m in t_bob.sent] == [Hello, Abort]  # no DETECTION_REPORT


def test_transport_death_mid_session(fast_scenario):
    a_sock, b_sock = socket.socketpair()
    a_sock.close()  # Alice never shows up
    t_bob = StreamTransport(b_sock, 5.0)
    with pytest.raises(SessionFailedError) as err:
        run_session(ROLE_BOB, t_bob, fast_scenario)
    t_bob.close()
    assert err.value.phase == "handshake"
    assert str(err.value).count("[phase=") == 1  # the phase is named once


def test_clock_recovery_failure_is_told_to_alice(fast_scenario):
    # 500 replayed tags are below clock recovery's floor: Bob cannot report
    tags = simulate_quantum_phase(fast_scenario).tags
    short = TimeTags(detector=tags.detector[:500], time_ps=tags.time_ps[:500])
    peer = _inline_alice(fast_scenario)
    with pytest.raises(SyncFailureError):
        run_session(ROLE_BOB, StreamTransport(peer), fast_scenario, replay_tags=short)
    alice = peer.result
    assert alice.abort and alice.abort_reason.startswith(
        "peer-abort: clock recovery failed: need >= 1000 tags")


def test_qber_abort_recorded_as_completed_session():
    # heavy misalignment: QBER ~ sin^2(22 deg) ~ 14% > 10% threshold
    scenario = make_fast_scenario(misalignment_deg=22.0, duration_s=0.004)
    bob, alice, _ = run_in_process(scenario)
    assert bob.completed and alice.completed
    assert bob.abort and alice.abort
    assert bob.abort_reason == "qber-above-threshold"
    assert bob.qber.qber > 0.10


_TRUE_COUNT_ERRORS = session._count_errors


@pytest.mark.parametrize("forge", [
    # the case Bob used to record as given: the parties then disagreed on
    # remaining_key_length and nothing noticed
    lambda rep: QberResult(disclosed_count=7, error_count=10**6, qber=-0.5, abort=False),
    lambda rep: dataclasses.replace(rep, disclosed_count=rep.disclosed_count + 1),
    lambda rep: dataclasses.replace(rep, error_count=rep.disclosed_count + 1),
    lambda rep: dataclasses.replace(rep, qber=rep.qber + 0.01),
    lambda rep: dataclasses.replace(rep, abort=not rep.abort),
], ids=["forged-counts", "disclosed", "errors", "qber", "abort"])
def test_bob_rejects_inconsistent_qber_result(fast_scenario, monkeypatch, forge):
    monkeypatch.setattr(session, "_count_errors",
                        lambda *args: forge(_TRUE_COUNT_ERRORS(*args)))
    bob, alice, _ = run_in_process(fast_scenario)
    assert bob.abort and bob.abort_reason.startswith("protocol-violation: QBER_RESULT")
    assert alice.abort and alice.abort_reason.startswith("peer-abort: QBER_RESULT")
    assert bob.remaining_key_length == alice.remaining_key_length == 0


class _ForeignDone(StreamTransport):
    """Sends every DONE with the session id of another session."""

    def send_message(self, message):
        if isinstance(message, Done):
            message = Done(session_id=message.session_id + 1)
        super().send_message(message)


@pytest.mark.parametrize("forger", [ROLE_ALICE, ROLE_BOB])
def test_done_for_another_session_is_a_protocol_violation(fast_scenario, forger):
    a_sock, b_sock = socket.socketpair()
    t_alice = (_ForeignDone if forger == ROLE_ALICE else StreamTransport)(a_sock, 10.0)
    t_bob = (_ForeignDone if forger == ROLE_BOB else StreamTransport)(b_sock, 10.0)
    out = {}
    th = threading.Thread(
        target=lambda: out.update(alice=run_session(ROLE_ALICE, t_alice, fast_scenario)))
    th.start()
    bob = run_session(ROLE_BOB, t_bob, fast_scenario)
    th.join(10.0)
    t_alice.close()
    t_bob.close()
    alice = out["alice"]
    checker, forged = (bob, alice) if forger == ROLE_ALICE else (alice, bob)
    assert checker.abort and checker.abort_reason == "protocol-violation: DONE for session 2"
    if forger == ROLE_BOB:  # Alice checks first and tells Bob
        assert forged.abort and forged.abort_reason.startswith("peer-abort: DONE")


class _ShortMask(StreamTransport):
    """Sends every MATCH_MASK one entry short."""

    def send_message(self, message):
        if isinstance(message, MatchMask):
            message = MatchMask(mask=message.mask[:-1])
        super().send_message(message)


def test_short_match_mask_is_a_protocol_violation(fast_scenario):
    a_sock, b_sock = socket.socketpair()
    t_alice, t_bob = _ShortMask(a_sock, 10.0), StreamTransport(b_sock, 10.0)
    out = {}
    th = threading.Thread(
        target=lambda: out.update(alice=run_session(ROLE_ALICE, t_alice, fast_scenario)))
    th.start()
    bob = run_session(ROLE_BOB, t_bob, fast_scenario)
    th.join(10.0)
    t_alice.close()
    t_bob.close()
    assert bob.abort and bob.abort_reason.startswith("protocol-violation: mask length")
    assert out["alice"].abort and out["alice"].abort_reason.startswith("peer-abort: mask length")


@pytest.mark.parametrize("role", [ROLE_ALICE, ROLE_BOB])
def test_undecodable_peer_frame_is_a_protocol_violation(fast_scenario, role):
    # A hand-driven peer sends a frame whose checksum holds but whose
    # payload breaks a decode rule: a HELLO with role byte 2 to Alice, a
    # 3-entry MATCH_MASK with a padding bit set to Bob.
    sc = fast_scenario
    a_sock, b_sock = socket.socketpair()
    party, peer = StreamTransport(a_sock, 10.0), StreamTransport(b_sock, 10.0)
    out = {}
    th = threading.Thread(target=lambda: out.update(report=run_session(role, party, sc)))
    th.start()
    assert isinstance(peer.recv_message(), Hello)
    if role == ROLE_ALICE:
        hello = Hello(session_id=sc.protocol.session_id, role=2, scenario_hash=sc.hash_bytes())
        b_sock.sendall(encode_frame(hello))  # the encoder does not check flags
        reason = "bad role flag 2"
    else:
        peer.send_message(Hello(session_id=sc.protocol.session_id, role=0,
                                scenario_hash=sc.hash_bytes()))
        assert isinstance(peer.recv_message(), DetectionReport)
        b_sock.sendall(crc_valid_frame(MsgType.MATCH_MASK,
                                        (3).to_bytes(8, "little") + bytes([0b1000_0101])))
        reason = "non-zero padding bits"
    abort = peer.recv_message()
    th.join(10.0)
    party.close()
    peer.close()
    assert not th.is_alive()
    assert isinstance(abort, Abort) and abort.reason == reason
    assert out["report"].abort
    assert out["report"].abort_reason == f"protocol-violation: {reason}"


@pytest.mark.parametrize("role, case", [(ROLE_ALICE, "report"), (ROLE_ALICE, "empty-key"),
                                        (ROLE_BOB, "sift")])
def test_wrong_message_type_is_a_protocol_violation(fast_scenario, role, case):
    # A hand-driven peer sends a well-formed message of the wrong type: a
    # MATCH_MASK where Alice waits for the report, a DONE where she waits
    # for the ABORT of an empty key, a SAMPLE_INDICES where Bob waits for
    # the mask. The honest party must end in a protocol-violation report
    # and tell the peer, which would otherwise wait out its own timeout.
    sc = fast_scenario
    a_sock, b_sock = socket.socketpair()
    party, peer = StreamTransport(a_sock, 5.0), StreamTransport(b_sock, 5.0)
    out = {}
    th = threading.Thread(target=lambda: out.update(report=run_session(role, party, sc)))
    th.start()
    assert isinstance(peer.recv_message(), Hello)
    peer.send_message(Hello(session_id=sc.protocol.session_id,
                            role=1 if role == ROLE_ALICE else 0, scenario_hash=sc.hash_bytes()))
    if role == ROLE_ALICE:
        if case == "report":
            peer.send_message(MatchMask(mask=np.ones(3, dtype=bool)))
            reason = "expected DetectionReport, got MatchMask"
        else:
            peer.send_message(DetectionReport(pulse_index=np.zeros(0, dtype=np.int64),
                                              basis=np.zeros(0, dtype=np.uint8)))
            assert len(peer.recv_message()) == 0
            peer.send_message(Done(session_id=sc.protocol.session_id))
            reason = "expected Abort on an empty key, got Done"
    else:
        assert isinstance(peer.recv_message(), DetectionReport)
        peer.send_message(SampleIndices(positions=np.arange(3, dtype=np.int64)))
        reason = "expected MatchMask, got SampleIndices"
    abort = peer.recv_message()
    th.join(10.0)
    party.close()
    peer.close()
    assert not th.is_alive()
    assert isinstance(abort, Abort) and abort.reason == reason
    assert out["report"].abort
    assert out["report"].abort_reason == f"protocol-violation: {reason}"


def test_bob_messages_never_leak_bits(fast_scenario):
    """Information-flow audit: Bob discloses bits only in the QBER sample."""
    t_bob = _Audit(_inline_alice(fast_scenario))
    qp = simulate_quantum_phase(fast_scenario)
    bob = run_session(ROLE_BOB, t_bob, fast_scenario, quantum=qp)
    captured = t_bob.sent

    allowed = {MsgType.HELLO, MsgType.DETECTION_REPORT, MsgType.SAMPLE_INDICES,
               MsgType.SAMPLE_BITS, MsgType.DONE, MsgType.ABORT}
    assert {m.TYPE for m in captured} <= allowed
    report = next(m for m in captured if isinstance(m, DetectionReport))
    assert not hasattr(report, "bits") and not hasattr(report, "bit")
    # disclosed bits cover exactly the sampled positions, nothing more
    sample_idx = next(m for m in captured if isinstance(m, SampleIndices))
    sample_bits = next(m for m in captured if isinstance(m, SampleBits))
    assert len(sample_idx.positions) == len(sample_bits.bits)
    assert len(sample_bits.bits) == bob.qber.disclosed_count


def test_tcp_session_matches_in_process(fast_scenario):
    in_proc_bob, in_proc_alice, _ = run_in_process(fast_scenario)

    out = {}

    def serve_alice():
        t = listen_accept("127.0.0.1", 0 or 43917, timeout_s=10.0)
        try:
            out["alice"] = run_session(ROLE_ALICE, t, fast_scenario)
        finally:
            t.close()

    th = threading.Thread(target=serve_alice)
    th.start()
    t = connect("127.0.0.1", 43917, timeout_s=10.0)
    try:
        net_bob = run_session(ROLE_BOB, t, fast_scenario)
    finally:
        t.close()
    th.join(10.0)

    assert net_bob.canonical_json() == in_proc_bob.canonical_json()
    assert out["alice"].canonical_json() == in_proc_alice.canonical_json()


def test_listen_timeout():
    with pytest.raises(SessionFailedError) as err:
        listen_accept("127.0.0.1", 43919, timeout_s=0.3)
    assert err.value.phase == "listen"


def test_replay_tags_path(fast_scenario):
    qp = simulate_quantum_phase(fast_scenario)
    bob_direct, _, _ = run_in_process(fast_scenario)
    # replaying the same tag stream reproduces the same session
    bob_replay, _, _ = run_in_process(
        fast_scenario,
        quantum=simulate_quantum_phase(fast_scenario, replay_tags=qp.tags))
    d1, d2 = bob_direct.to_dict(), bob_replay.to_dict()
    d1["counts"].pop("arrivals")
    d2["counts"].pop("arrivals")  # replay cannot know the arrival count
    assert d1 == d2


def test_frame_stream_reassembly():
    # messages split across arbitrary chunk boundaries decode correctly
    msgs = [Hello(session_id=5, role=0, scenario_hash=bytes(32)),
            DetectionReport(pulse_index=np.arange(100, dtype=np.int64),
                            basis=np.zeros(100, dtype=np.uint8))]
    blob = b"".join(encode_frame(m) for m in msgs)
    a, b = socket.socketpair()
    t = StreamTransport(b, 10.0)
    for i in range(0, len(blob), 7):
        a.sendall(blob[i:i + 7])
    got = [t.recv_message(), t.recv_message()]
    assert got[0] == msgs[0] and got[1] == msgs[1]
    a.close()
    t.close()


def test_run_in_process_names_bobs_phase_when_alice_stops_answering(fast_scenario,
                                                                   monkeypatch):
    def alice_goes_quiet(role, scenario, phase_box):  # her handshake, then silence
        yield Hello(session_id=scenario.protocol.session_id, role=0,
                    scenario_hash=scenario.hash_bytes())
        while True:
            yield

    quantum = simulate_quantum_phase(fast_scenario)
    monkeypatch.setattr(runner, "session_party", alice_goes_quiet)
    t0 = time.monotonic()
    with pytest.raises(SessionFailedError) as err:
        run_in_process(fast_scenario, quantum=quantum)
    assert time.monotonic() - t0 < 1.0
    assert err.value.phase == "sift" and "deadlock" in err.value.message


def test_run_in_process_raises_alice_error_at_once(fast_scenario, monkeypatch):
    # Alice fails mid-session, as a seed the wire could not pack once made
    # her do: her error, not Bob's abort or a deadlock, is the one raised.
    def alice_fails(*args):
        raise struct.error("argument out of range")

    quantum = simulate_quantum_phase(fast_scenario)
    monkeypatch.setattr(session, "alice_match", alice_fails)
    t0 = time.monotonic()
    with pytest.raises(struct.error, match="out of range"):
        run_in_process(fast_scenario, quantum=quantum)
    assert time.monotonic() - t0 < 1.0


def test_run_in_process_starts_no_thread_and_opens_no_socket(fast_scenario, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an in-process session needs no thread and no socket")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(socket, "socketpair", refuse)
    bob, alice, _ = run_in_process(fast_scenario)
    assert not bob.abort and bob.sifted_key_length == alice.sifted_key_length > 0
