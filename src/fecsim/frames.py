"""Wire encodings for the transport's frames and packets.

Every frame starts with a 1-byte type tag followed by a big-endian body;
variable-length parts carry explicit length prefixes.  The repair frame
(0x0a) is the one format defined in :mod:`fecsim.framework`; this module
delegates to it.

Packet layout::

    | flags (1) | packet number (8) | [source fec id (4)] | frames ... |

where flags bit 0 marks a FEC-protected packet (the source id field is
present only then).  One packet per datagram; packets are at most
:data:`MAX_PACKET_SIZE` bytes.

A packet-number range list (ACK and Recovered frames) follows RFC 9000
section 19.3::

    | type (1) | top (8) | range count (2) | width (1) | values ... |

``top`` is the highest packet number listed: for an ACK, the largest
acknowledged.  ``width`` is 1, 2, 4 or 8, the narrowest byte width that
holds the largest value, and every value takes that width.  The values
run newest first: the newest range's length (its ``hi - lo``), then for
each older range its gap and its length, where the gap is the distance
from that range's ``hi`` to the next newer range's ``lo``, minus 2.  A
frame holds them as ``steps``, and :meth:`RangeSet.frame`, the one encoder
of both frames, packs them; the set keeps its older ranges' values packed.
Ranges that are out of order, overlap or touch cannot be written, nor can
a largest above the ranges.  Parsing raises :class:`MalformedFrame` for a
truncated list, a bad width, zero ranges or a range reaching below 0.
Whether the ranges name sent packets is the transport's check
(``ProtocolViolation``).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Union

from . import framework
from .framework import (
    FEC_FRAME_TYPE,
    FecFrame,
    MalformedFrame,
    parse_fec_frame,
)

FRAME_STREAM = 0x01
FRAME_ACK = 0x02
FRAME_RECOVERED = 0x0B
FRAME_HANDSHAKE = 0x0C

MAX_PACKET_SIZE = 1200
PACKET_HEADER_LEN = 9
PROTECTED_HEADER_LEN = 13
PACKET_FLAG_FEC_PROTECTED = 0x01

_STREAM_HEADER = struct.Struct(">BIQBH")
_RANGE_HEADER = struct.Struct(">BQHB")  # type, top, range count, width
_HANDSHAKE = struct.Struct(">BB")
_PACKET_HEADER = struct.Struct(">BQ")
_PROTECTED_HEADER = struct.Struct(">BQI")

STREAM_FRAME_OVERHEAD = _STREAM_HEADER.size  # 16 bytes before the data


_WIDTH_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}  # range-list value widths
# a range list's header and its first value, per width
_RANGE_HEAD = {w: struct.Struct(_RANGE_HEADER.format + c) for w, c in _WIDTH_CODE.items()}


@cache  # at most one per width and 16-bit range count
def _steps_struct(width: int, n: int) -> struct.Struct:
    """The struct of ``n`` big-endian values ``width`` bytes wide."""
    return struct.Struct(">%d%s" % (n, _WIDTH_CODE[width]))


def _step_width(value: int) -> int:
    """The narrowest range-list width, in bytes, that holds ``value``."""
    if value < 0x100:
        return 1
    if value < 0x10000:
        return 2
    return 4 if value < 0x100000000 else 8


def _range_steps(bounds) -> tuple[int, ...]:
    """The values of ascending flat inclusive bounds ``(lo0, hi0, lo1, hi1,
    ...)``, newest first.  Raises ``ValueError`` for ranges that cannot be
    written: none, unpaired, inverted, out of order, overlapping or
    touching."""
    if not bounds:
        raise ValueError("a range list needs a range")
    if len(bounds) & 1:
        raise ValueError(f"bounds {bounds} do not pair into ranges")
    steps = [bounds[-1] - bounds[-2]]
    for i in range(len(bounds) - 3, 0, -2):  # bounds[i] tops an older range
        steps += (bounds[i + 1] - bounds[i] - 2, bounds[i] - bounds[i - 1])
    if min(steps) < 0 or bounds[0] < 0:
        raise ValueError(f"ranges {bounds} are not ascending, disjoint and apart")
    return tuple(steps)


class RangeSet:
    """Sorted, disjoint, inclusive integer ranges, held as the flat
    ascending bounds ``[lo0, hi0, lo1, hi1, ...]``.

    For :meth:`frame` the set keeps the values of every range but the
    newest, packed at the last width used.  Only an add that starts just
    above the newest range leaves them as they are; any other change drops
    them."""

    def __init__(self) -> None:
        self.bounds: list[int] = []
        self._older: Optional[tuple[tuple[int, ...], int]] = None  # values, max
        self._packed_width = 0
        self._packed = b""

    def add(self, value: int) -> bool:
        """Add ``value``; returns whether it was not already covered."""
        b = self.bounds
        if b and b[-1] == value - 1:  # the next packet in order
            b[-1] = value
            return True
        if value in self:
            return False
        self.add_range(value, value)
        return True

    def add_range(self, lo: int, hi: int) -> None:
        """Add the values ``lo`` to ``hi`` (``lo <= hi``), merging every
        range they overlap or touch."""
        b = self.bounds
        if b and b[-1] == lo - 1:  # the next range in order
            b[-1] = hi
            return
        self._older = None
        i = bisect_left(b, lo - 1) & ~1  # the first range ending at lo - 1 or above
        j = bisect_right(b, hi + 1)
        j += j & 1  # past the last range starting at hi + 1 or below
        if i < j:
            lo, hi = min(lo, b[i]), max(hi, b[j - 1])
        b[i:j] = (lo, hi)

    def __contains__(self, value: int) -> bool:
        b = self.bounds
        i = bisect_right(b, value)
        return bool(i & 1) or bool(i) and b[i - 1] == value

    def __len__(self) -> int:
        return len(self.bounds) >> 1

    def prune(self, max_ranges: int) -> None:
        """Merge the oldest ranges (closing their gaps) until at most
        ``max_ranges`` remain."""
        excess = len(self.bounds) - 2 * max_ranges
        if excess > 0:
            del self.bounds[1 : 1 + excess]
            self._older = None

    def frame(self, kind: type[_RangeList], max_ranges: int) -> _RangeList:
        """The ``kind`` frame (:class:`AckFrame` or :class:`RecoveredFrame`)
        of the newest ``max_ranges`` ranges, with its wire bytes."""
        b = self.bounds
        if self._older is None:
            older = _range_steps(b[-2 * max_ranges :])[1:]
            self._older = older, max(older, default=0)
            self._packed_width = 0
        older, older_max = self._older
        top = b[-1]
        first = top - b[-2]
        width = _step_width(max(first, older_max))
        if width != self._packed_width:
            self._packed = _steps_struct(width, len(older)).pack(*older)
            self._packed_width = width
        head = _RANGE_HEAD[width].pack(kind.TYPE, top, len(older) // 2 + 1, width, first)
        return kind(top, (first, *older), head + self._packed)


class UnknownFrameType(MalformedFrame):
    pass


@dataclass(slots=True)
class StreamFrame:
    stream_id: int
    offset: int
    fin: bool
    data: bytes


@dataclass(slots=True)
class _RangeList:
    """Packet-number ranges as the wire carries them: ``largest`` tops the
    newest range, ``steps`` holds its length, then a gap and a length per
    older range.  ``encoded`` is the frame's wire bytes, packed by
    :meth:`RangeSet.frame` or kept by the parser."""

    largest: int
    steps: tuple[int, ...]
    encoded: bytes = field(compare=False, repr=False)

    @classmethod
    def of(cls, bounds):
        """The frame of ascending flat inclusive bounds."""
        ranges = RangeSet()
        ranges.bounds = list(bounds)
        return ranges.frame(cls, len(bounds))  # all of them: an unpaired one is refused

    def newest_first(self):
        """The inclusive (lo, hi) ranges, newest first."""
        values = iter(self.steps)
        hi = self.largest
        lo = hi - next(values)
        yield lo, hi
        for gap, length in zip(values, values):
            hi = lo - gap - 2
            lo = hi - length
            yield lo, hi

    @property
    def ranges(self) -> list[tuple[int, int]]:
        """The inclusive (lo, hi) ranges, ascending."""
        return list(self.newest_first())[::-1]

    @property
    def bounds(self) -> tuple[int, ...]:
        """The ranges as ascending flat inclusive bounds."""
        return tuple(v for r in self.ranges for v in r)


@dataclass(slots=True)
class AckFrame(_RangeList):
    TYPE = FRAME_ACK


@dataclass(slots=True)
class RecoveredFrame(_RangeList):
    TYPE = FRAME_RECOVERED


@dataclass(slots=True)
class HandshakeFrame:
    round: int


Frame = Union[StreamFrame, AckFrame, RecoveredFrame, HandshakeFrame, FecFrame]


def encode_frame(frame: Frame) -> bytes:
    kind = type(frame)
    if kind is StreamFrame:
        data = frame.data
        return (
            _STREAM_HEADER.pack(
                FRAME_STREAM, frame.stream_id, frame.offset, frame.fin, len(data)
            )
            + data
        )
    if kind is AckFrame or kind is RecoveredFrame:
        return frame.encoded
    if kind is HandshakeFrame:
        return _HANDSHAKE.pack(FRAME_HANDSHAKE, frame.round)
    if kind is FecFrame:
        return framework.encode_fec_frame(frame)
    raise TypeError(f"cannot encode {kind.__name__}")


def _parse_range_list(kind, buf: bytes, offset: int) -> tuple[_RangeList, int]:
    """The range-list frame at ``offset``, and the offset past it."""
    if len(buf) - offset < _RANGE_HEADER.size:
        raise MalformedFrame("truncated range list")
    _, top, count, width = _RANGE_HEADER.unpack_from(buf, offset)
    if width not in _WIDTH_CODE:
        raise MalformedFrame(f"range list of {width}-byte values")
    if not count:
        raise MalformedFrame("range list with no range")
    values = offset + _RANGE_HEADER.size
    end = values + (2 * count - 1) * width
    if len(buf) < end:
        raise MalformedFrame("truncated range list")
    steps = _steps_struct(width, 2 * count - 1).unpack_from(buf, values)
    # each range lies below the one before, so the oldest lo is the lowest
    if sum(steps) + 2 * (count - 1) > top:
        raise MalformedFrame(f"range list below 0 under top {top}")
    return kind(top, steps, buf[offset:end]), end


def parse_frames(buf: bytes, offset: int = 0) -> list[Frame]:
    """Parse a packet payload into its frame sequence."""
    frames: list[Frame] = []
    size = len(buf)
    while offset < size:
        ftype = buf[offset]
        if ftype == FRAME_STREAM:
            if size - offset < _STREAM_HEADER.size:
                raise MalformedFrame("truncated stream frame")
            _, stream_id, off, fin, length = _STREAM_HEADER.unpack_from(buf, offset)
            offset += _STREAM_HEADER.size
            if size - offset < length:
                raise MalformedFrame("truncated stream data")
            frames.append(
                StreamFrame(stream_id, off, bool(fin), bytes(buf[offset : offset + length]))
            )
            offset += length
        elif ftype == FRAME_ACK:
            frame, offset = _parse_range_list(AckFrame, buf, offset)
            frames.append(frame)
        elif ftype == FRAME_RECOVERED:
            frame, offset = _parse_range_list(RecoveredFrame, buf, offset)
            frames.append(frame)
        elif ftype == FRAME_HANDSHAKE:
            if size - offset < _HANDSHAKE.size:
                raise MalformedFrame("truncated handshake frame")
            _, rnd = _HANDSHAKE.unpack_from(buf, offset)
            offset += _HANDSHAKE.size
            frames.append(HandshakeFrame(rnd))
        elif ftype == FEC_FRAME_TYPE:
            frame, consumed = parse_fec_frame(buf, offset)
            frames.append(frame)
            offset += consumed
        else:
            raise UnknownFrameType(f"frame type 0x{ftype:02x}")
    return frames


@dataclass(slots=True)
class Packet:
    packet_number: int
    frames: list[Frame] = field(default_factory=list)
    fec_protected: bool = False
    source_id: Optional[int] = None


def encode_packet(packet: Packet) -> bytes:
    frames = packet.frames
    body = encode_frame(frames[0]) if len(frames) == 1 else b"".join(map(encode_frame, frames))
    pn = packet.packet_number
    if not packet.fec_protected:
        return _PACKET_HEADER.pack(0, pn) + body
    if packet.source_id is None:
        raise ValueError("protected packet needs a source id")
    return _PROTECTED_HEADER.pack(PACKET_FLAG_FEC_PROTECTED, pn, packet.source_id) + body


def parse_packet(buf: bytes) -> Packet:
    if len(buf) < PACKET_HEADER_LEN:
        raise MalformedFrame(f"short packet: {len(buf)} bytes")
    flags, pn = _PACKET_HEADER.unpack_from(buf, 0)
    if not flags & PACKET_FLAG_FEC_PROTECTED:
        return Packet(pn, parse_frames(buf, PACKET_HEADER_LEN), False, None)
    if len(buf) < PROTECTED_HEADER_LEN:
        raise MalformedFrame("short protected packet")
    _, _, source_id = _PROTECTED_HEADER.unpack_from(buf, 0)
    return Packet(pn, parse_frames(buf, PROTECTED_HEADER_LEN), True, source_id)
