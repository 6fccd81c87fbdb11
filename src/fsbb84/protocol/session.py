"""Two-party BB84 post-processing over a framed byte stream.

Each role is a sans-I/O generator (:func:`session_party`, driven over a
transport by :func:`run_session`), and both walk the same phases::

    HELLO -> (quantum phase) -> DETECTION_REPORT -> MATCH_MASK
          -> SAMPLE_INDICES + SAMPLE_BITS -> QBER_RESULT
          -> DONE (or ABORT at any decision point)

HELLO's scenario hash covers every protocol parameter, so equal hashes
are the parties' whole parameter agreement. Bob measures and reports
pulse indices with the measurement basis only. Alice answers with the
basis-match mask. Bob then discloses a random sample of his sifted bits;
Alice counts mismatches, publishes the QBER, and both abort if it
exceeds the threshold. A ``sample_fraction`` of 1.0 discloses the whole
sifted key, which reproduces the reference measurements' bookkeeping
(sifted rate counts all basis-matched bits).

A party's session ends in one of three ways:

* a report of the estimated QBER (``abort`` marks one above threshold);
* an abort report, which only :func:`session_party` builds, sending an ABORT
  unless the peer's ABORT or last DONE ended the session: a handshake
  mismatch (``role-conflict``, ``session-id-mismatch``,
  ``parameter-mismatch``), ``peer-abort``, or ``protocol-violation``, a
  peer message that breaks session semantics: for either party an
  undecodable frame, a message of the wrong type for the phase or a DONE
  for another session; for Alice a bad report or sample, or anything but
  an ABORT after an empty mask; for Bob a QBER_RESULT that does not follow
  from his sample;
* an exception: :class:`SessionFailedError`, carrying the phase, for
  transport death or timeout, or in process for a deadlock (both parties
  waiting to read); :class:`SyncFailureError` or
  :class:`InconclusiveSessionError` when Bob's clock recovery fails or he
  sifts no bit, which he tells Alice with an ABORT first (she raises the
  second too).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from ..analysis import loss_breakdown
from ..errors import (CorruptFrameError, InconclusiveSessionError, ProtocolViolationError,
                      SessionFailedError, SyncFailureError)
from ..simulate import QuantumPhase, simulate_quantum_phase
from ..scenario import ROLE_ALICE, ROLE_BOB, Scenario, SessionParams, SourceConfig
from ..seeds import BLOCK
from ..source import pulse_states, state_key
from .framing import (Abort, DetectionReport, Done, Hello, MatchMask,
                      QberResult, SampleBits, SampleIndices)

_ROLE_CODE = {ROLE_ALICE: 0, ROLE_BOB: 1}


@dataclass
class SiftedKey:
    """Bits surviving basis reconciliation, in the order of the checked report."""

    bits: np.ndarray  # uint8

    def __len__(self) -> int:
        return len(self.bits)


def _check_indices(a: np.ndarray, bound: int, what: str) -> None:
    """A protocol violation unless ``a`` is strictly increasing within ``[0, bound)``."""
    if len(a) and (np.any(a[1:] <= a[:-1]) or a[0] < 0 or a[-1] >= bound):
        raise ProtocolViolationError(f"{what} must be strictly increasing and in [0, {bound})")


def bob_detection_report(pulse_index: np.ndarray, detector: np.ndarray) -> DetectionReport:
    """Bob's report of :func:`fsbb84.receiver.classify_clicks`'s output, in its order.

    That output is strictly increasing in pulse index, the report order
    Alice checks on receipt; the bit (detector & 1) never leaves Bob.
    """
    return DetectionReport(pulse_index=pulse_index, basis=detector >> 1)


def alice_match(source_config: SourceConfig, report: DetectionReport,
                n_pulses: int) -> tuple[MatchMask, SiftedKey]:
    """Alice's basis reconciliation: mask plus her sifted key.

    Her basis and bit at each reported pulse are hashed under the source's
    state key (:func:`fsbb84.source.pulse_states`), derived once, after the
    indices are known to lie in ``[0, n_pulses)``.
    """
    idx = report.pulse_index
    _check_indices(idx, n_pulses, "report indices")
    key = state_key(source_config)
    match, bits = np.empty(len(idx), dtype=bool), []
    for a in range(0, len(idx), BLOCK):
        states = pulse_states(key, idx[a:a + BLOCK])
        np.equal(states >> 1, report.basis[a:a + BLOCK], out=match[a:a + BLOCK])
        bits.append(states.take(np.flatnonzero(match[a:a + BLOCK])))
    bits = np.concatenate(bits) if bits else np.empty(0, dtype=np.uint8)
    bits &= 1
    return MatchMask(mask=match.view(np.uint8)), SiftedKey(bits=bits)


def bob_sift(report: DetectionReport, detectors: np.ndarray, mask: MatchMask) -> SiftedKey:
    """Bob's key: the bit encoded by his detector at every kept pulse."""
    if len(mask) != len(report):
        raise ProtocolViolationError(
            f"mask length {len(mask)} != report length {len(report)}")
    # Taken block by block: numpy's boolean-mask path on uint8 is ~4x
    # slower than flatnonzero and take, and the indices stay block-sized.
    kept = mask.mask != 0
    bits = np.concatenate([detectors[a:a + BLOCK].take(np.flatnonzero(kept[a:a + BLOCK]))
                           for a in range(0, max(len(kept), 1), BLOCK)])
    bits &= 1
    return SiftedKey(bits=bits)


def sample_size(key_length: int, params: SessionParams) -> int:
    """How many sifted positions Bob discloses for QBER estimation."""
    if params.sample_fraction >= 1.0:
        return key_length
    # exact decimal ceiling: in floats 0.07 * 100 = 7.000000000000001
    return math.ceil(Fraction(str(params.sample_fraction)) * key_length)


def select_sample(key_length: int, params: SessionParams,
                  rng: np.random.Generator) -> np.ndarray:
    """Bob's disclosed positions (sorted) into the sifted key."""
    n = sample_size(key_length, params)
    if n == key_length:
        return np.arange(key_length, dtype=np.int64)
    return np.sort(rng.choice(key_length, size=n, replace=False)).astype(np.int64)


def _count_errors(alice_key: SiftedKey, positions: np.ndarray, disclosed_bits: np.ndarray,
                  params: SessionParams) -> QberResult:
    """QBER over Bob's disclosed sample, after checking it is one Bob may send.

    The sample must hold exactly :func:`sample_size` distinct in-range
    positions in increasing order; anything else is a protocol violation.
    """
    expected = sample_size(len(alice_key), params)
    if len(positions) != len(disclosed_bits):
        raise ProtocolViolationError("sample indices/bits length mismatch")
    if len(positions) != expected:
        raise ProtocolViolationError(
            f"sample holds {len(positions)} positions, expected {expected}")
    _check_indices(positions, len(alice_key), "sample positions")
    errors = int(np.sum(alice_key.bits[positions] != disclosed_bits))
    return _qber_report(int(len(positions)), errors, params)


def _qber_report(disclosed: int, errors: int, params: SessionParams) -> QberResult:
    """The QBER record of ``errors`` among ``disclosed`` bits, and its abort rule."""
    qber = errors / disclosed
    return QberResult(disclosed_count=disclosed, error_count=errors, qber=qber,
                      abort=qber > params.qber_abort_threshold)


def _check_qber_result(result: QberResult, disclosed: int,
                       params: SessionParams) -> QberResult:
    """Alice's QBER_RESULT, if it is what her counting rule gives on Bob's sample."""
    if not (0 <= result.error_count <= disclosed
            and result == _qber_report(disclosed, result.error_count, params)):
        raise ProtocolViolationError(f"QBER_RESULT {result} does not follow from "
                                     f"{disclosed} disclosed bits")
    return result


@dataclass
class SessionReport:
    """Role-independent session outcome (canonically serializable)."""

    scenario_name: str
    scenario_hash: str
    session_id: int
    role: str
    completed: bool
    abort: bool
    abort_reason: str
    n_pulses: int
    duration_s: float
    sifted_key_length: int
    sifted_key_rate_bps: float
    remaining_key_length: int
    qber: QberResult
    counts: dict = field(default_factory=dict)
    loss_accounting: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _abort_report(scenario: Scenario, scenario_hash: bytes, role: str,
                  reason: str) -> SessionReport:
    empty = QberResult(disclosed_count=0, error_count=0, qber=0.0, abort=True)
    return replace(_finish_report(scenario, scenario_hash, role, empty, 0, 0, {}),
                   abort_reason=reason)


class _Abort(Exception):
    """Ends the session in an abort report; ``notice`` is the ABORT text for the peer."""

    def __init__(self, reason: str, notice: Optional[str] = None):
        super().__init__(reason)
        self.reason, self.notice = reason, notice


def _expect(message, expected_type):
    if isinstance(message, Abort):
        raise _Abort(f"peer-abort: {message.reason}")
    if not isinstance(message, expected_type):
        raise ProtocolViolationError(
            f"expected {expected_type.__name__}, got {type(message).__name__}")
    return message


def run_session(role: str, transport, scenario: Scenario,
                replay_tags=None, quantum: Optional[QuantumPhase] = None) -> SessionReport:
    """Drive one party over ``transport``: send what it yields, feed it what
    is read (an undecodable frame is thrown in), and name its phase in a
    transport's :class:`SessionFailedError`."""
    phase_box = ["handshake"]
    party = session_party(role, scenario, phase_box, replay_tags, quantum)
    try:
        out = next(party)
        while True:
            while out is not None:
                transport.send_message(out)
                out = next(party)
            try:
                out = party.send(transport.recv_message())
            except CorruptFrameError as e:
                out = party.throw(e)
    except StopIteration as end:
        return end.value
    except SessionFailedError as e:
        if e.phase == "unknown":
            raise SessionFailedError(e.message, phase=phase_box[0]) from e
        raise


def session_party(role: str, scenario: Scenario, phase_box: list,
                  replay_tags=None, quantum: Optional[QuantumPhase] = None):
    """One party as a generator: it yields each message it sends, yields None
    to be sent the next one read, and returns its report; ``phase_box[0]`` is
    its phase. Bob simulates (or replays) the quantum phase unless ``quantum`` holds it."""
    if role not in (ROLE_ALICE, ROLE_BOB):
        raise ValueError(f"role must be '{ROLE_ALICE}' or '{ROLE_BOB}'")
    scenario_hash = scenario.hash_bytes()  # HELLO, the peer's check and the report
    try:
        # --- HELLO: equal scenario hashes are the whole parameter agreement --
        yield Hello(session_id=scenario.protocol.session_id, role=_ROLE_CODE[role],
                    scenario_hash=scenario_hash)
        peer = _expect((yield), Hello)
        if peer.role == _ROLE_CODE[role]:
            raise _Abort("role-conflict", "both parties claim the same role")
        if peer.session_id != scenario.protocol.session_id:
            raise _Abort("session-id-mismatch", "session id mismatch")
        if peer.scenario_hash != scenario_hash:
            raise _Abort("parameter-mismatch", "scenario hash mismatch")
        if role == ROLE_ALICE:
            return (yield from _run_alice(scenario, scenario_hash, phase_box))
        return (yield from _run_bob(scenario, scenario_hash, replay_tags, quantum, phase_box))
    except (ProtocolViolationError, CorruptFrameError) as e:
        end = _Abort(f"protocol-violation: {e}", str(e))
    except _Abort as e:
        end = e
    except SyncFailureError as e:  # Alice waits for a report Bob cannot make
        yield Abort(reason=f"clock recovery failed: {e}")
        raise
    if end.notice is not None:
        yield Abort(reason=end.notice)
    return _abort_report(scenario, scenario_hash, role, end.reason)


def _finish_report(scenario: Scenario, scenario_hash: bytes, role: str, qber: QberResult,
                   sifted_len: int, remaining_len: int, counts: dict) -> SessionReport:
    duration = scenario.simulated_duration_s
    return SessionReport(
        scenario_name=scenario.name,
        scenario_hash=scenario_hash.hex(),
        session_id=scenario.protocol.session_id,
        role=role,
        completed=True,
        abort=qber.abort,
        abort_reason="qber-above-threshold" if qber.abort else "",
        n_pulses=scenario.n_pulses,
        duration_s=duration,
        sifted_key_length=sifted_len,
        sifted_key_rate_bps=sifted_len / duration,
        remaining_key_length=remaining_len,
        qber=qber,
        counts=counts,
        loss_accounting={**loss_breakdown(scenario.channel, scenario.source.wavelength_nm).to_dict(),
                         "receiver_efficiency_db": scenario.receiver.efficiency_db},
    )


def _run_bob(scenario: Scenario, scenario_hash: bytes, replay_tags, quantum, phase_box):
    phase_box[0] = "quantum"
    if quantum is None:
        quantum = simulate_quantum_phase(scenario, replay_tags=replay_tags)

    phase_box[0] = "report"
    report = bob_detection_report(quantum.classified_index, quantum.classified_detector)
    yield report

    phase_box[0] = "sift"
    mask = _expect((yield), MatchMask)
    key = bob_sift(report, quantum.classified_detector, mask)
    del report, mask

    phase_box[0] = "qber"
    if len(key) == 0:
        yield Abort(reason="no sifted bits")
        raise InconclusiveSessionError("no sifted bits to estimate QBER from")
    rng = np.random.default_rng(scenario.protocol.rng_seed)
    positions = select_sample(len(key), scenario.protocol, rng)
    n_disclosed = len(positions)
    yield SampleIndices(positions=positions)
    yield SampleBits(bits=key.bits[positions])
    del positions

    result = _expect((yield), QberResult)
    qber = _check_qber_result(result, n_disclosed, scenario.protocol)

    phase_box[0] = "done"
    yield Done(session_id=scenario.protocol.session_id)
    done = _expect((yield), Done)
    if done.session_id != scenario.protocol.session_id:
        # Alice's DONE is her last message: nothing more goes on the wire.
        raise _Abort(f"protocol-violation: DONE for session {done.session_id}")

    remaining = len(key) - n_disclosed
    return _finish_report(scenario, scenario_hash, ROLE_BOB, qber, len(key), remaining,
                          quantum.counts())


def _run_alice(scenario: Scenario, scenario_hash: bytes, phase_box):
    phase_box[0] = "report"
    report = _expect((yield), DetectionReport)
    mask, key = alice_match(scenario.source, report, scenario.n_pulses)
    del report  # its indices view its frame: neither is held through the sample
    yield mask

    phase_box[0] = "qber"
    if len(key) == 0:
        msg = yield
        if isinstance(msg, Abort):
            raise InconclusiveSessionError("no sifted bits to estimate QBER from")
        raise ProtocolViolationError(f"expected Abort on an empty key, got {type(msg).__name__}")
    sample_idx = _expect((yield), SampleIndices)
    sample_bits = _expect((yield), SampleBits)
    qber = _count_errors(key, sample_idx.positions, sample_bits.bits, scenario.protocol)
    yield qber

    phase_box[0] = "done"
    done = _expect((yield), Done)
    if done.session_id != scenario.protocol.session_id:
        raise ProtocolViolationError(f"DONE for session {done.session_id}")
    yield Done(session_id=scenario.protocol.session_id)

    remaining = len(key) - qber.disclosed_count
    return _finish_report(scenario, scenario_hash, ROLE_ALICE, qber, len(key), remaining, {})
