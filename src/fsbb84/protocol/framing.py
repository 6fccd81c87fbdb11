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

Memory: :func:`encode_frame` copies an array message's payload once, from
its arrays (a contiguous int64 array as it is, bits packed to an eighth of
a byte each) into the frame. :func:`decode_frame` reads the u64 arrays of
a ``bytes`` frame as views of it, so a decoded report holds its frame and,
beside it, only its unpacked bits (a byte per bit); from a buffer that may
change it copies the payload once.
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
_COUNT = struct.Struct("<Q")  # an array message's entry count
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
_U64, _BYTE = np.dtype("<i8"), np.dtype(np.uint8)  # a u64 below 2^63 has its int64's bytes
_ARRAY_DTYPES = {"U64Array": np.dtype(np.int64), "BitArray": _BYTE}
_MESSAGE_CLASSES: dict = {}


def _message(cls):
    """Make ``cls`` a frozen dataclass, note its field names (and array dtypes), register it.

    Its ``vars()`` hold exactly its fields, in order, which the codecs read."""
    arrays = issubclass(cls, _Arrays)
    cls = dataclass(frozen=True, eq=not arrays)(cls)
    cls._FIELDS = tuple(f.name for f in fields(cls))
    if arrays:
        cls._DTYPES = {f.name: _ARRAY_DTYPES[f.type] for f in fields(cls)}
        cls._WIDE = tuple(dtype != _BYTE for dtype in cls._DTYPES.values())
        cls._N_WIDE = sum(cls._WIDE)
    _MESSAGE_CLASSES[cls.TYPE] = cls
    return cls


def _filled(cls, values: list):
    """A ``cls`` message holding ``values``, decoded ones that need no conversion."""
    message = object.__new__(cls)
    vars(message).update(zip(cls._FIELDS, values))
    return message


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
        return _filled(cls, values)


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

    def parts(self) -> tuple[int, list]:
        """(payload size, the payload as buffers in wire order: the count, then each field)."""
        arrays = list(vars(self).values())
        n = len(arrays[0])
        size, parts = 8, [_COUNT.pack(n)]
        for a, wide in zip(arrays, self._WIDE):
            if len(a) != n:
                raise ValueError(f"{type(self).__name__} fields differ in length")
            if wide:
                parts.append(np.ascontiguousarray(a, _U64))
                size += 8 * n
            else:
                parts.append(np.packbits(a, bitorder="little"))
                size += (n + 7) // 8
        return size, parts

    def pack(self) -> bytes:
        return b"".join(self.parts()[1])

    @classmethod
    def unpack(cls, buf):
        """The message whose payload is ``buf``; its u64 arrays are views of ``buf``."""
        n = _COUNT.unpack_from(buf)[0] if len(buf) >= 8 else 0
        bits = (n + 7) // 8
        if len(buf) != 8 + 8 * n * cls._N_WIDE + bits * (len(cls._WIDE) - cls._N_WIDE):
            raise CorruptFrameError(f"bad {cls.TYPE.name} payload size {len(buf)} for {n} entries")
        values, offset = [], 8
        for wide in cls._WIDE:
            if wide:
                a = np.frombuffer(buf, _U64, n, offset)
                if n and a.min() < 0:
                    raise CorruptFrameError("u64 index >= 2^63")
                values.append(a)
                offset += 8 * n
            else:
                if n % 8 and buf[offset + bits - 1] >> (n % 8):
                    raise CorruptFrameError("non-zero padding bits")
                values.append(np.unpackbits(np.frombuffer(buf, _BYTE, bits, offset), count=n,
                                            bitorder="little"))
                offset += bits
        return _filled(cls, values)


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
            return cls(reason=str(buf, "utf-8"))
        except UnicodeDecodeError as e:
            raise CorruptFrameError(f"bad ABORT payload: {e}") from None


@_message
class Done(_Fixed):
    TYPE = MsgType.DONE
    LAYOUT = struct.Struct("<Q")
    session_id: int


def encode_frame(message) -> bytes:
    """Serialize one message into a checksummed frame.

    An array message's payload is copied once, from its arrays into the frame."""
    if isinstance(message, _Arrays):
        length, parts = message.parts()
    else:
        parts = [message.pack()]
        length = len(parts[0])
    if length > MAX_PAYLOAD:
        raise ValueError(f"payload too large: {length}")
    header = HEADER.pack(MAGIC, VERSION, message.TYPE, length)
    crc = zlib.crc32(header)
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([header, *parts, TRAILER.pack(crc)])


def decode_frame(buf, offset: int = 0):
    """Decode one frame from ``buf[offset:]``.

    Returns (message, next_offset). Raises NeedMoreBytes when the buffer
    ends mid-frame and CorruptFrameError on any malformed content. A
    message's u64 arrays are views of its payload: of ``buf`` itself when it
    is ``bytes``, else of one copy, so a buffer that is later resized (a
    transport's receive buffer) holds no message's data.
    """
    avail = len(buf) - offset
    if avail < HEADER.size:
        raise NeedMoreBytes(HEADER.size - avail)
    magic, version, mtype, length = HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise CorruptFrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptFrameError(f"unsupported version {version}")
    cls = _MESSAGE_CLASSES.get(mtype)
    if cls is None:
        raise CorruptFrameError(f"unknown message type 0x{mtype:02x}")
    if length > MAX_PAYLOAD:
        raise CorruptFrameError(f"declared payload too large: {length}")
    total = HEADER.size + length + TRAILER.size
    if avail < total:
        raise NeedMoreBytes(total - avail)
    body_end = offset + HEADER.size + length
    (crc_stored,) = TRAILER.unpack_from(buf, body_end)
    crc = zlib.crc32(memoryview(buf)[offset:body_end])
    if crc != crc_stored:
        raise CorruptFrameError(f"checksum mismatch (got 0x{crc_stored:08x}, want 0x{crc:08x})")
    start = offset + HEADER.size
    if type(buf) is bytes:
        payload = memoryview(buf)[start:body_end]
    else:  # one copy, and no view of a buffer that may change outlives this line
        payload = bytes(memoryview(buf)[start:body_end])
    return cls.unpack(payload), offset + total
