"""Protocol module: wire format, sifting operations, session state machine."""

import dataclasses
import math
import re
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsbb84.errors import (CorruptFrameError, InconclusiveSessionError,
                           NeedMoreBytes, ProtocolViolationError)
from fsbb84.protocol import framing
from fsbb84.protocol.framing import (Abort, DetectionReport, Done, Hello, MatchMask, MsgType,
                                     QberResult, SampleBits, SampleIndices, VERSION,
                                     decode_frame, encode_frame)
from fsbb84.protocol.session import (SiftedKey, _count_errors, alice_match,
                                     bob_detection_report, bob_sift, run_session, sample_size,
                                     select_sample)
from fsbb84.protocol.transport import StreamTransport
from fsbb84.runner import run_in_process
from fsbb84.simulate import simulate_quantum_phase
from fsbb84.analysis import analyzer_table
from fsbb84.channel import transmit_stream
from fsbb84.scenario import ROLE_ALICE, ChannelConfig, SessionParams, SourceConfig
from fsbb84 import source
from fsbb84.seeds import BLOCK, STREAM_STATE
from fsbb84.source import SHARD_SIZE, pulse_states, state_key

from conftest import crc_valid_frame, make_fast_scenario


def _random_message(rng):
    t = rng.integers(0, 8)
    n = int(rng.integers(0, 50))
    if t == 0:
        return Hello(session_id=int(rng.integers(0, 2**63)), role=int(rng.integers(0, 2)),
                     scenario_hash=bytes(rng.integers(0, 256, size=32, dtype=np.uint8)))
    if t == 1:
        idx = np.sort(rng.choice(2**40, size=n, replace=False)).astype(np.int64)
        return DetectionReport(pulse_index=idx, basis=rng.integers(0, 2, n, dtype=np.uint8))
    if t == 2:
        return MatchMask(mask=rng.integers(0, 2, n, dtype=np.uint8))
    if t == 3:
        return SampleIndices(positions=np.sort(rng.choice(2**30, size=n, replace=False)).astype(np.int64))
    if t == 4:
        return SampleBits(bits=rng.integers(0, 2, n, dtype=np.uint8))
    if t == 5:
        return QberResult(disclosed_count=n, error_count=int(rng.integers(0, n + 1)),
                          qber=float(rng.random()), abort=bool(rng.integers(0, 2)))
    if t == 6:
        return Abort(reason="".join(chr(c) for c in rng.integers(32, 127, size=n)))
    return Done(session_id=int(rng.integers(0, 2**63)))


# --- wire format ---------------------------------------------------------------

def test_empty_report_roundtrip():
    msg = DetectionReport(pulse_index=np.array([], dtype=np.int64),
                          basis=np.array([], dtype=np.uint8))
    decoded, consumed = decode_frame(encode_frame(msg))
    assert decoded == msg
    assert consumed == len(encode_frame(msg))


def test_large_mask_roundtrip_and_size():
    n = 1_000_000
    bits = np.random.default_rng(1).integers(0, 2, n, dtype=np.uint8)
    frame = encode_frame(MatchMask(mask=bits))
    # header(10) + count(8) + ceil(n/8) + crc(4)
    assert len(frame) == 10 + 8 + math.ceil(n / 8) + 4
    decoded, _ = decode_frame(frame)
    assert np.array_equal(decoded.mask, bits)


def test_roundtrip_randomized_all_types():
    rng = np.random.default_rng(2)
    for _ in range(2_000):
        msg = _random_message(rng)
        decoded, consumed = decode_frame(encode_frame(msg))
        assert decoded == msg
        assert consumed == len(encode_frame(msg))


def test_truncated_frame_needs_more():
    frame = encode_frame(Done(session_id=7))
    for cut in range(len(frame)):
        with pytest.raises(NeedMoreBytes):
            decode_frame(frame[:cut])


def test_checksum_corruption_detected():
    frame = bytearray(encode_frame(Hello(session_id=1, role=0, scenario_hash=bytes(32))))
    frame[15] ^= 0xFF
    with pytest.raises(CorruptFrameError):
        decode_frame(bytes(frame))


def test_bad_magic_version_type():
    bad_magic = bytearray(encode_frame(Done(session_id=1)))
    bad_magic[0] = ord("X")
    with pytest.raises(CorruptFrameError):
        decode_frame(bytes(bad_magic))
    payload = struct.pack("<Q", 1)
    assert decode_frame(crc_valid_frame(0x31, payload))[0] == Done(session_id=1)
    # version 1 sent a parameter message (type 0x02) after HELLO: such a peer is
    # refused at its first frame
    for version, mtype in [(9, 0x31), (1, 0x31), (VERSION, 0x7F), (VERSION, 0x02)]:
        with pytest.raises(CorruptFrameError):
            decode_frame(crc_valid_frame(mtype, payload, version))


def test_fuzz_no_crashes():
    rng = np.random.default_rng(3)
    rejected = 0
    for _ in range(100_000):
        n = int(rng.integers(0, 64))
        buf = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        try:
            decode_frame(buf)
        except (NeedMoreBytes, CorruptFrameError):
            rejected += 1
    assert rejected == 100_000  # random bytes never parse as a valid frame


def test_multiple_frames_in_buffer():
    a, b = Done(session_id=1), Abort(reason="x")
    buf = encode_frame(a) + encode_frame(b)
    m1, off = decode_frame(buf)
    m2, off = decode_frame(buf, off)
    assert m1 == a and m2 == b and off == len(buf)


def test_decoded_arrays_view_a_bytes_frame_but_never_a_bytearray():
    msg = SampleIndices(positions=[3, 7, 11])
    frame = encode_frame(msg)
    view = decode_frame(frame)[0].positions
    assert view.base is not None and not view.flags.writeable  # no copy of the frame
    # a transport trims its receive buffer after each frame, so nothing
    # decoded from it, nor a failed decode's traceback, may hold it
    buf = bytearray(frame)
    copy = decode_frame(buf)[0]
    bad = bytearray(crc_valid_frame(MsgType.SAMPLE_INDICES, struct.pack("<QQ", 1, 2**63)))
    with pytest.raises(CorruptFrameError) as err:
        decode_frame(bad)
    del buf[:4], bad[:4]
    assert copy == msg and "2^63" in str(err.value)


def _assert_rejected(cls, payload: bytes):
    with pytest.raises(CorruptFrameError):
        cls.unpack(payload)
    with pytest.raises(CorruptFrameError):
        decode_frame(crc_valid_frame(cls.TYPE, payload))


# One fixed instance of each message type and its frame, byte for byte.
_GOLDEN = [
    (Hello(session_id=0x0102030405060708, role=1, scenario_hash=bytes(range(32))),
     "514b4431020129000000080706050403020101000102030405060708090a0b0c0d0e0f10111213141516"
     "1718191a1b1c1d1e1f85f157a9"),
    (DetectionReport(pulse_index=[3, 7, 2**63 - 1], basis=[1, 0, 1]),
     "514b4431021021000000030000000000000003000000000000000700000000000000ffffffffffffff7f05"
     "98599b2b"),
    (MatchMask(mask=[1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]),
     "514b443102110a0000000b000000000000004d071dff5fdc"),
    (SampleIndices(positions=[0, 5, 2**40]),
     "514b443102202000000003000000000000000000000000000000050000000000000000000000000100"
     "00e22eff64"),
    (SampleBits(bits=[0, 1, 1, 0, 1]), "514b44310221090000000500000000000000169bd9ffa4"),
    (QberResult(disclosed_count=100, error_count=3, qber=0.03, abort=False),
     "514b443102221900000064000000000000000300000000000000b81e85eb51b89e3f00c6942b97"),
    (Abort(reason="QBER_RESULT d\u00e9j\u00e0 vu"),
     "514b4431023015000000514245525f524553554c542064c3a96ac3a02076757685d4e7"),
    (Done(session_id=42), "514b44310231080000002a00000000000000191c832e"),
]


@pytest.mark.parametrize("msg, frame", _GOLDEN, ids=[type(m).__name__ for m, _ in _GOLDEN])
def test_golden_frames_and_exact_payload_sizes(msg, frame):
    assert encode_frame(msg).hex() == frame
    assert decode_frame(bytes.fromhex(frame)) == (msg, len(frame) // 2)
    if not isinstance(msg, Abort):  # every other payload has one exact size
        _assert_rejected(type(msg), msg.pack()[:-1])
        _assert_rejected(type(msg), msg.pack() + b"\0")


def test_docstring_payload_table_lists_every_message_type():
    rows = re.findall(r"^    0x([0-9a-f]{2})  ([A-Z_]+) ", framing.__doc__, re.MULTILINE)
    assert [(int(code, 16), name) for code, name in rows] == [(int(t), t.name) for t in MsgType]


def test_array_fields_of_unequal_length_do_not_encode():
    # the peer would decode this report's basis as [0, 0, 0]
    with pytest.raises(ValueError):
        encode_frame(DetectionReport(pulse_index=[1, 2, 3], basis=[0]))


def test_decoders_reject_non_canonical_encodings():
    # an index >= 2^63 would wrap negative as int64
    _assert_rejected(SampleIndices, struct.pack("<QQ", 1, 1 << 63))
    _assert_rejected(DetectionReport, struct.pack("<QQB", 1, 1 << 63, 0))
    # 3 bits in one byte: bits 3..7 are padding and must be zero
    _assert_rejected(MatchMask, struct.pack("<QB", 3, 0b0000_1000))
    _assert_rejected(SampleBits, struct.pack("<QB", 3, 0b1000_0101))
    _assert_rejected(DetectionReport, struct.pack("<QQB", 1, 5, 0b10))
    assert list(MatchMask.unpack(struct.pack("<QB", 3, 0b101)).mask) == [1, 0, 1]
    assert list(SampleIndices.unpack(struct.pack("<QQ", 1, (1 << 63) - 1)).positions) == [2**63 - 1]
    for cls in (DetectionReport, MatchMask, SampleIndices, SampleBits):
        _assert_rejected(cls, bytes(7))  # shorter than its count
    # flags are 0 or 1, and decode as bool where the field is one
    _assert_rejected(Hello, struct.pack("<QB", 1, 2) + bytes(32))
    _assert_rejected(QberResult, struct.pack("<QQdB", 4, 1, 0.25, 2))
    assert QberResult.unpack(struct.pack("<QQdB", 4, 1, 0.25, 0)).abort is False


_INDICES = st.lists(st.integers(0, 2**63 - 1), max_size=40, unique=True).map(sorted)
_BITS = st.lists(st.integers(0, 1), max_size=70)


@st.composite
def _sequence_messages(draw):
    """Messages whose payloads carry u64 indices or packed bits."""
    cls = draw(st.sampled_from([DetectionReport, MatchMask, SampleIndices, SampleBits]))
    if cls is DetectionReport:
        idx = draw(_INDICES)
        basis = draw(st.lists(st.integers(0, 1), min_size=len(idx), max_size=len(idx)))
        return DetectionReport(pulse_index=np.array(idx, dtype=np.int64), basis=basis)
    if cls is SampleIndices:
        return SampleIndices(positions=np.array(draw(_INDICES), dtype=np.int64))
    return cls(draw(_BITS))


@settings(max_examples=300, deadline=None, database=None)
@given(msg=_sequence_messages(), data=st.data())
def test_sequence_decoders_accept_only_canonical_payloads(msg, data):
    cls, payload, n = type(msg), msg.pack(), len(msg)
    assert cls.unpack(payload) == msg
    assert decode_frame(encode_frame(msg)) == (msg, len(encode_frame(msg)))
    if cls in (DetectionReport, SampleIndices) and n:
        bad = bytearray(payload)
        bad[8 + 8 * data.draw(st.integers(0, n - 1)) + 7] |= 0x80  # top bit of one index
        _assert_rejected(cls, bytes(bad))
    if cls is not SampleIndices and n % 8:
        bad = bytearray(payload)
        bad[-1] |= 1 << data.draw(st.integers(n % 8, 7))  # one padding bit
        _assert_rejected(cls, bytes(bad))


# --- sifting operations ----------------------------------------------------------

def test_detection_report_sorted_and_bases():
    # classify_clicks hands Bob his pulses in increasing order: the report keeps it
    rep = bob_detection_report(np.array([3, 7, 9]), np.array([3, 2, 0], dtype=np.uint8))
    assert list(rep.pulse_index) == [3, 7, 9]
    assert list(rep.basis) == [1, 1, 0]  # detectors A,D -> diag; H -> rect


def test_detection_report_rejects_duplicates():
    # Alice refuses a report whose indices repeat or fall back
    for idx in ([3, 3], [7, 3]):
        rep = DetectionReport(pulse_index=np.array(idx), basis=np.zeros(2, dtype=np.uint8))
        with pytest.raises(ProtocolViolationError, match="strictly increasing"):
            alice_match(SourceConfig(rng_seed=8), rep, 100)


def _basis_bit(cfg, n):
    """Alice's basis and bit for pulses 0..n-1."""
    states = pulse_states(state_key(cfg), np.arange(n, dtype=np.int64))
    return states >> 1, states & 1


def test_alice_match_all_or_none():
    cfg = SourceConfig(rng_seed=5)
    basis, bit = _basis_bit(cfg, 1_000)
    idx = np.arange(0, 1_000, 7, dtype=np.int64)
    rep = DetectionReport(pulse_index=idx, basis=basis[idx])
    mask, key = alice_match(cfg, rep, 1_000)
    assert mask.mask.all()
    assert np.array_equal(key.bits, bit[idx])
    rep2 = DetectionReport(pulse_index=idx, basis=1 - basis[idx])
    mask2, key2 = alice_match(cfg, rep2, 1_000)
    assert not mask2.mask.any()
    assert len(key2) == 0


def test_alice_match_uniform_bases_keep_half():
    n = 400_000
    idx = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(7)
    rep = DetectionReport(pulse_index=idx, basis=rng.integers(0, 2, n, dtype=np.uint8))
    mask, _ = alice_match(SourceConfig(rng_seed=6), rep, n)
    frac = mask.mask.mean()
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / n)


def test_alice_match_out_of_range_aborts():
    rep = DetectionReport(pulse_index=np.array([50, 100]),
                          basis=np.array([0, 0], dtype=np.uint8))
    with pytest.raises(ProtocolViolationError):
        alice_match(SourceConfig(rng_seed=8), rep, 100)


def test_alice_match_agrees_with_stream_states_across_shard_boundary():
    # Alice hashes her states; the channel stamps each arrival with the
    # state the source sent (no retro flip here). A report of every pulse
    # that delivered a photon, in random bases, must sift to those states,
    # on both sides of the first shard boundary and up to the last pulse.
    src = SourceConfig(rng_seed=31)
    link = ChannelConfig(distance_m=0.0, tx_beam_diameter_e2_cm=1.0,
                         rx_aperture_diameter_e2_cm=1e4, visibility_km=1e9, rng_seed=32)
    n = SHARD_SIZE + 1234
    arr = transmit_stream(src, link, n, 1.0, analyzer_table(0.0))
    idx, first = np.unique(arr.pulse_index, return_index=True)
    state = arr.state[first]
    assert np.any((idx >= SHARD_SIZE - 100) & (idx < SHARD_SIZE))
    assert np.any((idx >= SHARD_SIZE) & (idx < SHARD_SIZE + 100))
    if idx[-1] != n - 1:  # the last pulse is in range whether or not it fired
        idx, state = np.append(idx, n - 1), np.append(state, pulse_states(state_key(src), [n - 1]))
    basis = np.random.default_rng(33).integers(0, 2, idx.size, dtype=np.uint8)
    mask, key = alice_match(src, DetectionReport(pulse_index=idx, basis=basis), n)
    keep = basis == state >> 1
    assert 0.49 < keep.mean() < 0.51
    assert np.array_equal(mask.mask.astype(bool), keep)
    assert np.array_equal(key.bits, state[keep] & 1)
    # key bit i is the i-th basis-matched pulse of the report
    assert np.array_equal(key.bits, pulse_states(state_key(src), idx[mask.mask != 0]) & 1)


def test_alice_match_derives_the_state_key_once_per_report(monkeypatch):
    # a report of three blocks and a bit more: the key was once derived per block
    calls, derive = [], source.counter_key
    monkeypatch.setattr(source, "counter_key", lambda *key: calls.append(key) or derive(*key))
    src, n = SourceConfig(rng_seed=34), 3 * BLOCK + 5
    basis = np.random.default_rng(35).integers(0, 2, n, dtype=np.uint8)
    mask, key = alice_match(src, DetectionReport(pulse_index=np.arange(n) * 3, basis=basis), 3 * n)
    assert len(calls) == 1
    assert np.array_equal(mask.mask != 0, pulse_states(derive(34, STREAM_STATE),
                                                       np.arange(n) * 3) >> 1 == basis)


def test_bob_sift_bit_convention():
    # H->0, V->1, D->0, A->1
    rep = DetectionReport(pulse_index=np.array([0, 1, 2, 3]),
                          basis=np.array([0, 0, 1, 1], dtype=np.uint8))
    detectors = np.array([0, 1, 2, 3], dtype=np.uint8)
    key = bob_sift(rep, detectors, MatchMask(mask=np.ones(4, dtype=np.uint8)))
    assert list(key.bits) == [0, 1, 0, 1]


def test_bob_sift_mask_length_mismatch():
    rep = DetectionReport(pulse_index=np.array([0]), basis=np.array([0], dtype=np.uint8))
    with pytest.raises(ProtocolViolationError):
        bob_sift(rep, np.array([0], dtype=np.uint8), MatchMask(mask=np.ones(2, dtype=np.uint8)))


def test_noiseless_end_to_end_keys_identical():
    n = 200_000
    cfg = SourceConfig(rng_seed=9)
    basis, bit = _basis_bit(cfg, n)
    # Bob measures every pulse in a random basis with ideal detectors
    rng = np.random.default_rng(10)
    bob_basis = rng.integers(0, 2, n, dtype=np.uint8)
    detectors = (2 * bob_basis + np.where(bob_basis == basis, bit,
                                          rng.integers(0, 2, n))).astype(np.uint8)
    rep = bob_detection_report(np.arange(n), detectors)
    mask, alice_key = alice_match(cfg, rep, n)
    bob_key = bob_sift(rep, detectors, mask)
    assert np.array_equal(alice_key.bits, bob_key.bits)
    # both keys hold the bits of the report's basis-matched pulses, in report order
    assert np.array_equal(alice_key.bits, bit[rep.pulse_index[mask.mask != 0]])


def test_single_flip_detected():
    n = 10_000
    cfg = SourceConfig(rng_seed=11)
    detectors = pulse_states(state_key(cfg), np.arange(n))
    detectors[1234] ^= 1  # flip one outcome within its basis
    rep = bob_detection_report(np.arange(n), detectors)
    mask, alice_key = alice_match(cfg, rep, n)
    bob_key = bob_sift(rep, detectors, mask)
    mism = np.nonzero(alice_key.bits != bob_key.bits)[0]
    assert len(mism) == 1
    assert rep.pulse_index[mask.mask != 0][mism[0]] == 1234


# --- QBER estimation ----------------------------------------------------------------

def estimate_qber(alice_key, bob_key, params, rng):
    """Both halves of the QBER exchange in one call.

    Bob's sample (:func:`select_sample`) counted by Alice's rule
    (:func:`_count_errors`), as a session runs them. Returns the report
    plus both keys with the disclosed positions removed.
    """
    positions = select_sample(len(bob_key), params, rng)
    report = _count_errors(alice_key, positions, bob_key.bits[positions], params)
    keep = np.ones(len(alice_key), dtype=bool)
    keep[positions] = False
    rem_a = SiftedKey(bits=alice_key.bits[keep])
    rem_b = SiftedKey(bits=bob_key.bits[keep])
    return report, rem_a, rem_b


def _keys(bits_a, bits_b):
    return (SiftedKey(bits=np.asarray(bits_a, dtype=np.uint8)),
            SiftedKey(bits=np.asarray(bits_b, dtype=np.uint8)))


def test_qber_identical_keys():
    a, b = _keys([0, 1, 1, 0] * 50, [0, 1, 1, 0] * 50)
    params = SessionParams(sample_fraction=1.0)
    rep, rem_a, rem_b = estimate_qber(a, b, params, np.random.default_rng(0))
    assert rep.qber == 0.0 and not rep.abort
    assert len(rem_a) == 0  # a sample fraction of 1 discloses everything


def test_qber_above_threshold_aborts():
    rng = np.random.default_rng(1)
    n = 10_000
    a_bits = rng.integers(0, 2, n, dtype=np.uint8)
    flips = rng.random(n) < 0.12
    b_bits = a_bits ^ flips
    a, b = _keys(a_bits, b_bits)
    rep, _, _ = estimate_qber(a, b, SessionParams(), np.random.default_rng(2))
    assert rep.abort
    assert abs(rep.qber - flips.mean()) < 1e-12


def test_qber_exact_at_threshold_no_abort():
    # abort iff qber > threshold, strictly
    a, b = _keys([0] * 100, [1] * 10 + [0] * 90)
    rep, _, _ = estimate_qber(a, b, SessionParams(qber_abort_threshold=0.10),
                              np.random.default_rng(3))
    assert rep.qber == 0.10
    assert not rep.abort


def test_qber_known_flip_rate_counted_exactly():
    rng = np.random.default_rng(4)
    n = 20_000
    a_bits = rng.integers(0, 2, n, dtype=np.uint8)
    flip_at = rng.choice(n, size=n // 20, replace=False)  # exactly 5%
    b_bits = a_bits.copy()
    b_bits[flip_at] ^= 1
    a, b = _keys(a_bits, b_bits)
    rep, _, _ = estimate_qber(a, b, SessionParams(sample_fraction=1.0),
                              np.random.default_rng(5))
    assert rep.error_count == n // 20
    assert rep.qber == 0.05


def test_qber_sampled_mode_removes_disclosed():
    rng = np.random.default_rng(6)
    n = 10_000
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    a, b = _keys(bits, bits)
    params = SessionParams(sample_fraction=0.25, rng_seed=7)
    rep, rem_a, rem_b = estimate_qber(a, b, params, np.random.default_rng(7))
    assert rep.disclosed_count == 2_500
    assert len(rem_a) == 7_500
    assert np.array_equal(rem_a.bits, rem_b.bits)


def test_qber_empty_key_inconclusive():
    # Bob reports no pulse, so neither party has a sifted bit to estimate from
    sc = make_fast_scenario()
    qp = simulate_quantum_phase(sc)
    empty = dataclasses.replace(qp, classified_index=qp.classified_index[:0],
                                classified_detector=qp.classified_detector[:0])
    with pytest.raises(InconclusiveSessionError):
        run_in_process(sc, quantum=empty)


def test_qber_sample_must_be_unique_increasing_and_full_size():
    # ten disclosures of position 0 on a 5-bit key once gave QBER 0 and a
    # remaining key of -5 bits
    a, _ = _keys([1, 0, 1, 1, 0], [1, 0, 1, 1, 0])
    bench = SessionParams(sample_fraction=1.0)
    with pytest.raises(ProtocolViolationError):
        _count_errors(a, np.zeros(10, dtype=np.int64), np.ones(10, dtype=np.uint8), bench)
    with pytest.raises(ProtocolViolationError):  # right size, duplicated
        _count_errors(a, np.array([0, 1, 1, 2, 3]), np.ones(5, dtype=np.uint8), bench)
    with pytest.raises(ProtocolViolationError):  # unique but short
        _count_errors(a, np.array([0, 1, 2, 3]), np.ones(4, dtype=np.uint8), bench)
    sampled = SessionParams(sample_fraction=0.5)  # ceil(2.5) = 3
    with pytest.raises(ProtocolViolationError):
        _count_errors(a, np.array([0, 2]), np.ones(2, dtype=np.uint8), sampled)
    with pytest.raises(ProtocolViolationError):
        _count_errors(a, np.array([3, 1, 4]), np.ones(3, dtype=np.uint8), sampled)
    rep = _count_errors(a, np.array([0, 2, 3]), np.ones(3, dtype=np.uint8), sampled)
    assert rep.disclosed_count == 3 and rep.error_count == 0


@pytest.mark.parametrize("positions", ["duplicated", "short"])
def test_alice_aborts_on_malformed_sample(fast_scenario, positions):
    # a hand-driven Bob discloses a sample Alice must refuse
    sc = fast_scenario
    qp = simulate_quantum_phase(sc)
    a_sock, b_sock = socket.socketpair()
    t_alice, t_bob = StreamTransport(a_sock, 10.0), StreamTransport(b_sock, 10.0)
    out = {}
    th = threading.Thread(target=lambda: out.update(alice=run_session(ROLE_ALICE, t_alice, sc)))
    th.start()
    t_bob.send_message(Hello(session_id=sc.protocol.session_id, role=1,
                             scenario_hash=sc.hash_bytes()))
    assert isinstance(t_bob.recv_message(), Hello)
    t_bob.send_message(bob_detection_report(qp.classified_index, qp.classified_detector))
    key_length = int(t_bob.recv_message().mask.sum())
    n = key_length if positions == "duplicated" else key_length - 1
    pos = np.zeros(n, dtype=np.int64) if positions == "duplicated" else np.arange(n)
    t_bob.send_message(SampleIndices(positions=pos))
    t_bob.send_message(SampleBits(bits=np.zeros(n, dtype=np.uint8)))
    assert isinstance(t_bob.recv_message(), Abort)
    th.join(10.0)
    t_bob.close()
    t_alice.close()
    assert out["alice"].abort
    assert out["alice"].abort_reason.startswith("protocol-violation")


def test_select_sample_sizes():
    rng = np.random.default_rng(9)
    assert len(select_sample(100, SessionParams(sample_fraction=1.0), rng)) == 100
    params = SessionParams(sample_fraction=0.1)
    pos = select_sample(1000, params, rng)
    assert len(pos) == 100
    assert len(np.unique(pos)) == 100
    assert np.all(np.diff(pos) > 0)


def test_sample_size_is_exact_decimal_ceiling():
    # in floating point 0.07 * 100 = 7.000000000000001, whose ceiling is 8
    params = SessionParams(sample_fraction=0.07)
    assert sample_size(100, params) == 7
    assert all(sample_size(n, params) == -(-7 * n // 100) for n in range(1, 5_000))


def test_sampled_session_parties_agree_on_sample_size():
    bob, alice, _ = run_in_process(make_fast_scenario(sample_fraction=0.07))
    assert bob.completed and alice.completed and not bob.abort
    assert bob.qber == alice.qber
    assert bob.qber.disclosed_count == -(-7 * bob.sifted_key_length // 100)
    assert bob.remaining_key_length == alice.remaining_key_length
