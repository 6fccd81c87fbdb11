"""Classical-channel wire format.

Frame layout (all integers little-endian)::

    magic   4 bytes  "QKD1"
    version u8       currently 2
    type    u8       message type code
    length  u32      payload byte count
    payload length bytes
    crc32   u32      IEEE CRC-32 over header + payload

Payload layouts (``u64[n]`` is n indices below 2^63; ``bits[n]`` is n bits
packed LSB-first into ceil(n/8) bytes with zero padding bits; a flag is a
u8 that must be 0 or 1)::

    type  message           payload
    0x01  HELLO             session_id u64, role flag (0 alice, 1 bob), scenario_hash 32 bytes
    0x10  DETECTION_REPORT  n u64, pulse_index u64[n], basis bits[n]
    0x11  MATCH_MASK        n u64, mask bits[n]
    0x20  SAMPLE_INDICES    n u64, positions u64[n]
    0x21  SAMPLE_BITS       n u64, bits bits[n]
    0x22  QBER_RESULT       disclosed_count u64, error_count u64, qber f64, abort flag
    0x30  ABORT             reason, UTF-8 to the end of the payload
    0x31  DONE              session_id u64

Every payload but ABORT's has one exact size, given by its layout and,
for the array messages, by the count n.
Decoding never panics on hostile input: anything malformed raises
:class:`CorruptFrameError`, a short buffer raises :class:`NeedMoreBytes`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from ..errors import CorruptFrameError, NeedMoreBytes

MAGIC = b"QKD1"
VERSION = 2
HEADER = struct.Struct("<4sBBI")
TRAILER = struct.Struct("<I")
MAX_PAYLOAD = 1 << 28  # 256 MiB guard against absurd length fields


class MsgType(IntEnum):
    HELLO = 0x01
    DETECTION_REPORT = 0x10
    MATCH_MASK = 0x11
    SAMPLE_INDICES = 0x20
    SAMPLE_BITS = 0x21
    QBER_RESULT = 0x22
    ABORT = 0x30
    DONE = 0x31


# Array field kinds, named by their annotation: u64 indices below 2^63 held
# as int64, and LSB-first packed bits held as uint8.
U64Array = BitArray = np.ndarray
_ARRAY_DTYPES = {"U64Array": np.int64, "BitArray": np.uint8}
_MESSAGE_CLASSES: dict = {}


def _message(cls):
    """Make ``cls`` a frozen dataclass, note its field names (and array dtypes), register it.

    Its ``vars()`` hold exactly its fields, in order, which the codecs read."""
    arrays = issubclass(cls, _Arrays)
    cls = dataclass(frozen=True, eq=not arrays)(cls)
    cls._FIELDS = tuple(f.name for f in fields(cls))
    if arrays:
        cls._DTYPES = {f.name: _ARRAY_DTYPES[f.type] for f in fields(cls)}
    _MESSAGE_CLASSES[cls.TYPE] = cls
    return cls


class _Fixed:
    """A message of fixed-size fields, packed and unpacked by one struct ``LAYOUT``."""

    FLAGS: dict = {}  # each 0/1 flag field -> the type it decodes as

    def pack(self) -> bytes:
        return self.LAYOUT.pack(*vars(self).values())

    @classmethod
    def unpack(cls, buf: bytes):
        if len(buf) != cls.LAYOUT.size:
            raise CorruptFrameError(f"bad {cls.TYPE.name} payload size {len(buf)}")
        values = list(cls.LAYOUT.unpack(buf))
        for name, kind in cls.FLAGS.items():
            i = cls._FIELDS.index(name)
            if values[i] not in (0, 1):
                raise CorruptFrameError(f"bad {name} flag {values[i]}")
            values[i] = kind(values[i])
        return cls(*values)


class _Arrays:
    """A message of equal-length arrays behind one u64 count."""

    def __post_init__(self):
        fields = vars(self)  # written directly: the message is frozen
        for name, dtype in self._DTYPES.items():
            fields[name] = np.asarray(fields[name], dtype=dtype)

    def __len__(self) -> int:
        return len(getattr(self, self._FIELDS[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and all(
            map(np.array_equal, vars(self).values(), vars(other).values()))

    def pack(self) -> bytes:
        n = len(self)
        parts = [n.to_bytes(8, "little")]
        for a, dtype in zip(vars(self).values(), self._DTYPES.values()):
            if len(a) != n:
                raise ValueError(f"{type(self).__name__} fields differ in length")
            if dtype is np.int64:
                parts.append(a.astype("<u8").tobytes())
            else:
                parts.append(np.packbits(a, bitorder="little").tobytes())
        return b"".join(parts)

    @classmethod
    def unpack(cls, buf: bytes):
        n = int.from_bytes(buf[:8], "little")  # a shorter payload fails the size check
        sizes = [8 * n if dtype is np.int64 else (n + 7) // 8 for dtype in cls._DTYPES.values()]
        if len(buf) != 8 + sum(sizes):
            raise CorruptFrameError(f"bad {cls.TYPE.name} payload size {len(buf)} for {n} entries")
        values, offset = [], 8
        for dtype, size in zip(cls._DTYPES.values(), sizes):
            if dtype is np.int64:
                a = np.frombuffer(buf, "<u8", n, offset).astype(np.int64)
                if (a < 0).any():
                    raise CorruptFrameError("u64 index >= 2^63")
            else:
                raw = np.frombuffer(buf, np.uint8, size, offset)
                if n % 8 and raw[-1] >> (n % 8):
                    raise CorruptFrameError("non-zero padding bits")
                a = np.unpackbits(raw, count=n, bitorder="little")
            values.append(a)
            offset += size
        return cls(*values)


@_message
class Hello(_Fixed):
    TYPE = MsgType.HELLO
    LAYOUT = struct.Struct("<QB32s")
    FLAGS = {"role": int}
    session_id: int
    role: int  # 0 = alice, 1 = bob
    scenario_hash: bytes  # 32 bytes, sha-256 of the canonical scenario

    def pack(self) -> bytes:
        if len(self.scenario_hash) != 32:
            raise ValueError("scenario_hash must be 32 bytes")
        return super().pack()


@_message
class DetectionReport(_Arrays):
    """Bob's detections: pulse index and measurement basis, never the bit."""

    TYPE = MsgType.DETECTION_REPORT
    pulse_index: U64Array  # strictly increasing
    basis: BitArray  # one bit per entry


@_message
class MatchMask(_Arrays):
    """Alice's keep/drop decision per report entry (basis match)."""

    TYPE = MsgType.MATCH_MASK
    mask: BitArray  # aligned with the report order


@_message
class SampleIndices(_Arrays):
    """Positions (into the sifted key) Bob discloses for QBER estimation."""

    TYPE = MsgType.SAMPLE_INDICES
    positions: U64Array  # strictly increasing


@_message
class SampleBits(_Arrays):
    TYPE = MsgType.SAMPLE_BITS
    bits: BitArray


@_message
class QberResult(_Fixed):
    """Alice's QBER over Bob's sample, and whether it exceeds the abort threshold."""

    TYPE = MsgType.QBER_RESULT
    LAYOUT = struct.Struct("<QQdB")
    FLAGS = {"abort": bool}
    disclosed_count: int
    error_count: int
    qber: float
    abort: bool


@_message
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


@_message
class Done(_Fixed):
    TYPE = MsgType.DONE
    LAYOUT = struct.Struct("<Q")
    session_id: int


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
