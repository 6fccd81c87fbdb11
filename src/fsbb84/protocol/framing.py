"""Classical-channel wire format.

Frame layout (all integers little-endian)::

    magic   4 bytes  "QKD1"
    version u8       currently 1
    type    u8       message type code
    length  u32      payload byte count
    payload length bytes
    crc32   u32      IEEE CRC-32 over header + payload

Index lists travel as u64 arrays below 2^63; bit sequences are packed
LSB-first with zero padding bits.
Decoding never panics on hostile input: anything malformed raises
:class:`CorruptFrameError`, a short buffer raises :class:`NeedMoreBytes`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..errors import CorruptFrameError, NeedMoreBytes

MAGIC = b"QKD1"
VERSION = 1
HEADER = struct.Struct("<4sBBI")
TRAILER = struct.Struct("<I")
MAX_PAYLOAD = 1 << 28  # 256 MiB guard against absurd length fields


class MsgType(IntEnum):
    HELLO = 0x01
    SESSION_PARAMS = 0x02
    DETECTION_REPORT = 0x10
    MATCH_MASK = 0x11
    SAMPLE_INDICES = 0x20
    SAMPLE_BITS = 0x21
    QBER_RESULT = 0x22
    ABORT = 0x30
    DONE = 0x31


def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def _unpack_bits(buf: bytes, n: int) -> np.ndarray:
    need = (n + 7) // 8
    if len(buf) != need:
        raise CorruptFrameError(f"bit payload length {len(buf)} != {need}")
    raw = np.frombuffer(buf, dtype=np.uint8)
    if n % 8 and raw[-1] >> (n % 8):
        raise CorruptFrameError("non-zero padding bits")
    return np.unpackbits(raw, count=n, bitorder="little")


def _u64_array(buf: bytes) -> np.ndarray:
    if len(buf) % 8:
        raise CorruptFrameError("u64 array payload not a multiple of 8")
    idx = np.frombuffer(buf, dtype="<i8").astype(np.int64)
    if (idx < 0).any():
        raise CorruptFrameError("u64 index >= 2^63")
    return idx


def _take(buf: bytes, offset: int, n: int) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise CorruptFrameError("payload shorter than declared fields")
    return buf[offset:offset + n], offset + n


@dataclass(frozen=True)
class Hello:
    TYPE = MsgType.HELLO
    session_id: int
    role: int  # 0 = alice, 1 = bob
    scenario_hash: bytes  # 32 bytes, sha-256 of the canonical scenario

    def pack(self) -> bytes:
        if len(self.scenario_hash) != 32:
            raise ValueError("scenario_hash must be 32 bytes")
        return struct.pack("<QB", self.session_id, self.role) + self.scenario_hash

    @classmethod
    def unpack(cls, buf: bytes) -> "Hello":
        if len(buf) != 8 + 1 + 32:
            raise CorruptFrameError("bad HELLO payload size")
        sid, role = struct.unpack_from("<QB", buf)
        if role not in (0, 1):
            raise CorruptFrameError(f"bad role {role}")
        return cls(session_id=sid, role=role, scenario_hash=buf[9:])


@dataclass(frozen=True)
class SessionParamsMsg:
    TYPE = MsgType.SESSION_PARAMS
    session_id: int
    n_pulses: int
    qber_abort_threshold: float
    sample_fraction: float
    benchmark_mode: bool
    sample_seed: int

    def pack(self) -> bytes:
        return struct.pack("<QQddBQ", self.session_id, self.n_pulses,
                           self.qber_abort_threshold, self.sample_fraction,
                           int(self.benchmark_mode), self.sample_seed)

    @classmethod
    def unpack(cls, buf: bytes) -> "SessionParamsMsg":
        try:
            sid, n, thr, frac, bench, seed = struct.unpack("<QQddBQ", buf)
        except struct.error as e:
            raise CorruptFrameError(f"bad SESSION_PARAMS payload: {e}") from None
        if bench not in (0, 1):
            raise CorruptFrameError("bad benchmark flag")
        return cls(session_id=sid, n_pulses=n, qber_abort_threshold=thr,
                   sample_fraction=frac, benchmark_mode=bool(bench), sample_seed=seed)


@dataclass(frozen=True)
class DetectionReport:
    """Bob's detections: pulse index and measurement basis, never the bit."""

    TYPE = MsgType.DETECTION_REPORT
    pulse_index: np.ndarray  # int64, strictly increasing
    basis: np.ndarray  # uint8, one bit per entry

    def __post_init__(self):
        object.__setattr__(self, "pulse_index", np.asarray(self.pulse_index, dtype=np.int64))
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=np.uint8))

    def __len__(self) -> int:
        return len(self.pulse_index)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DetectionReport)
                and np.array_equal(self.pulse_index, other.pulse_index)
                and np.array_equal(self.basis, other.basis))

    def pack(self) -> bytes:
        n = len(self.pulse_index)
        return (struct.pack("<Q", n)
                + self.pulse_index.astype("<u8").tobytes()
                + _pack_bits(self.basis))

    @classmethod
    def unpack(cls, buf: bytes) -> "DetectionReport":
        head, off = _take(buf, 0, 8)
        (n,) = struct.unpack("<Q", head)
        if n > MAX_PAYLOAD // 8:
            raise CorruptFrameError("report length field too large")
        idx_raw, off = _take(buf, off, 8 * n)
        bits_raw = buf[off:]
        return cls(pulse_index=_u64_array(idx_raw), basis=_unpack_bits(bits_raw, n))


@dataclass(frozen=True)
class MatchMask:
    """Alice's keep/drop decision per report entry (basis match)."""

    TYPE = MsgType.MATCH_MASK
    mask: np.ndarray  # uint8/bool, aligned with the report order

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=np.uint8))

    def __len__(self) -> int:
        return len(self.mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatchMask) and np.array_equal(self.mask, other.mask)

    def pack(self) -> bytes:
        return struct.pack("<Q", len(self.mask)) + _pack_bits(self.mask)

    @classmethod
    def unpack(cls, buf: bytes) -> "MatchMask":
        head, off = _take(buf, 0, 8)
        (n,) = struct.unpack("<Q", head)
        if n > MAX_PAYLOAD * 8:
            raise CorruptFrameError("mask length field too large")
        return cls(mask=_unpack_bits(buf[off:], n))


@dataclass(frozen=True)
class SampleIndices:
    """Positions (into the sifted key) Bob discloses for QBER estimation."""

    TYPE = MsgType.SAMPLE_INDICES
    positions: np.ndarray  # int64, strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.positions)

    def __eq__(self, other) -> bool:
        return isinstance(other, SampleIndices) and np.array_equal(self.positions, other.positions)

    def pack(self) -> bytes:
        return struct.pack("<Q", len(self.positions)) + self.positions.astype("<u8").tobytes()

    @classmethod
    def unpack(cls, buf: bytes) -> "SampleIndices":
        head, off = _take(buf, 0, 8)
        (n,) = struct.unpack("<Q", head)
        raw, off = _take(buf, off, 8 * n)
        if off != len(buf):
            raise CorruptFrameError("trailing bytes after SAMPLE_INDICES")
        return cls(positions=_u64_array(raw))


@dataclass(frozen=True)
class SampleBits:
    TYPE = MsgType.SAMPLE_BITS
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.uint8))

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, SampleBits) and np.array_equal(self.bits, other.bits)

    def pack(self) -> bytes:
        return struct.pack("<Q", len(self.bits)) + _pack_bits(self.bits)

    @classmethod
    def unpack(cls, buf: bytes) -> "SampleBits":
        head, off = _take(buf, 0, 8)
        (n,) = struct.unpack("<Q", head)
        if n > MAX_PAYLOAD * 8:
            raise CorruptFrameError("bits length field too large")
        return cls(bits=_unpack_bits(buf[off:], n))


@dataclass(frozen=True)
class QberResult:
    TYPE = MsgType.QBER_RESULT
    disclosed_count: int
    error_count: int
    qber: float
    abort: bool

    def pack(self) -> bytes:
        return struct.pack("<QQdB", self.disclosed_count, self.error_count,
                           self.qber, int(self.abort))

    @classmethod
    def unpack(cls, buf: bytes) -> "QberResult":
        try:
            d, e, q, a = struct.unpack("<QQdB", buf)
        except struct.error as exc:
            raise CorruptFrameError(f"bad QBER_RESULT payload: {exc}") from None
        if a not in (0, 1):
            raise CorruptFrameError("bad abort flag")
        return cls(disclosed_count=d, error_count=e, qber=q, abort=bool(a))


@dataclass(frozen=True)
class Abort:
    TYPE = MsgType.ABORT
    reason: str

    def pack(self) -> bytes:
        return self.reason.encode("utf-8")

    @classmethod
    def unpack(cls, buf: bytes) -> "Abort":
        try:
            return cls(reason=buf.decode("utf-8"))
        except UnicodeDecodeError as e:
            raise CorruptFrameError(f"bad ABORT payload: {e}") from None


@dataclass(frozen=True)
class Done:
    TYPE = MsgType.DONE
    session_id: int

    def pack(self) -> bytes:
        return struct.pack("<Q", self.session_id)

    @classmethod
    def unpack(cls, buf: bytes) -> "Done":
        try:
            (sid,) = struct.unpack("<Q", buf)
        except struct.error as e:
            raise CorruptFrameError(f"bad DONE payload: {e}") from None
        return cls(session_id=sid)


_MESSAGE_CLASSES = {
    cls.TYPE: cls
    for cls in (Hello, SessionParamsMsg, DetectionReport, MatchMask,
                SampleIndices, SampleBits, QberResult, Abort, Done)
}

Message = (Hello | SessionParamsMsg | DetectionReport | MatchMask
           | SampleIndices | SampleBits | QberResult | Abort | Done)


def encode_frame(message) -> bytes:
    """Serialize one message into a checksummed frame."""
    payload = message.pack()
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload too large: {len(payload)}")
    header = HEADER.pack(MAGIC, VERSION, int(message.TYPE), len(payload))
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    return header + payload + TRAILER.pack(crc)


def decode_frame(buf: bytes, offset: int = 0):
    """Decode one frame from ``buf[offset:]``.

    Returns (message, next_offset). Raises NeedMoreBytes when the buffer
    ends mid-frame and CorruptFrameError on any malformed content.
    """
    avail = len(buf) - offset
    if avail < HEADER.size:
        raise NeedMoreBytes(HEADER.size - avail)
    magic, version, mtype, length = HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise CorruptFrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptFrameError(f"unsupported version {version}")
    if mtype not in _MESSAGE_CLASSES:
        raise CorruptFrameError(f"unknown message type 0x{mtype:02x}")
    if length > MAX_PAYLOAD:
        raise CorruptFrameError(f"declared payload too large: {length}")
    total = HEADER.size + length + TRAILER.size
    if avail < total:
        raise NeedMoreBytes(total - avail)
    body_end = offset + HEADER.size + length
    (crc_stored,) = TRAILER.unpack_from(buf, body_end)
    crc = zlib.crc32(buf[offset:body_end]) & 0xFFFFFFFF
    if crc != crc_stored:
        raise CorruptFrameError(f"checksum mismatch (got 0x{crc_stored:08x}, want 0x{crc:08x})")
    message = _MESSAGE_CLASSES[mtype].unpack(bytes(buf[offset + HEADER.size:body_end]))
    return message, offset + total
