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

A packet-number range list (ACK and Recovered frames) is held as one flat
ascending sequence of inclusive bounds, ``(lo0, hi0, lo1, hi1, ...)``, in
the order the wire carries them as u64 pairs, so the newest range comes
last (RFC 9000 section 19.3 sends it first, as a gap and length list).
Parsing checks only what a single range can get wrong: a range with
``hi < lo`` raises :class:`MalformedFrame`.  Whether the ranges are
ascending and disjoint, name sent packets and end at the largest
acknowledged is the transport's check, which raises ``ProtocolViolation``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cache
from operator import le
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
_ACK_HEADER = struct.Struct(">BQIH")
_RECOVERED_HEADER = struct.Struct(">BH")
_HANDSHAKE = struct.Struct(">BB")
_PACKET_HEADER = struct.Struct(">BQ")
_PROTECTED_HEADER = struct.Struct(">BQI")

STREAM_FRAME_OVERHEAD = _STREAM_HEADER.size  # 16 bytes before the data


@cache  # at most one per 16-bit range count
def _bounds_struct(n: int) -> struct.Struct:
    """The struct of ``n`` big-endian u64 bounds."""
    return struct.Struct(">%dQ" % n)


class UnknownFrameType(MalformedFrame):
    pass


def _ranges(frame) -> list[tuple[int, int]]:
    """A range-list frame's ranges as inclusive (lo, hi) pairs."""
    return list(zip(frame.bounds[::2], frame.bounds[1::2]))


@dataclass(slots=True)
class StreamFrame:
    stream_id: int
    offset: int
    fin: bool
    data: bytes


@dataclass(slots=True)
class AckFrame:
    largest_acked: int
    ack_delay_us: int
    bounds: tuple[int, ...]  # inclusive (lo, hi) pairs, flattened, ascending
    ranges = property(_ranges)


@dataclass(slots=True)
class RecoveredFrame:
    bounds: tuple[int, ...]  # inclusive (lo, hi) pairs, flattened, ascending
    ranges = property(_ranges)


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
    if kind is AckFrame:
        bounds = frame.bounds
        return _ACK_HEADER.pack(
            FRAME_ACK, frame.largest_acked, frame.ack_delay_us, len(bounds) >> 1
        ) + _bounds_struct(len(bounds)).pack(*bounds)
    if kind is RecoveredFrame:
        bounds = frame.bounds
        return _RECOVERED_HEADER.pack(
            FRAME_RECOVERED, len(bounds) >> 1
        ) + _bounds_struct(len(bounds)).pack(*bounds)
    if kind is HandshakeFrame:
        return _HANDSHAKE.pack(FRAME_HANDSHAKE, frame.round)
    if kind is FecFrame:
        return framework.encode_fec_frame(frame)
    raise TypeError(f"cannot encode {kind.__name__}")


def _parse_bounds(buf: bytes, offset: int, count: int) -> tuple[tuple, int]:
    """``count`` ranges at ``offset``: (flat bounds, offset past them)."""
    end = offset + 16 * count
    if len(buf) < end:
        raise MalformedFrame("truncated range list")
    bounds = _bounds_struct(2 * count).unpack_from(buf, offset)
    if not all(map(le, bounds[::2], bounds[1::2])):
        lo, hi = next((lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]) if hi < lo)
        raise MalformedFrame(f"inverted range ({lo}, {hi})")
    return bounds, end


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
            if size - offset < _ACK_HEADER.size:
                raise MalformedFrame("truncated ack frame")
            _, largest, delay, count = _ACK_HEADER.unpack_from(buf, offset)
            bounds, offset = _parse_bounds(buf, offset + _ACK_HEADER.size, count)
            frames.append(AckFrame(largest, delay, bounds))
        elif ftype == FRAME_RECOVERED:
            if size - offset < _RECOVERED_HEADER.size:
                raise MalformedFrame("truncated recovered frame")
            _, count = _RECOVERED_HEADER.unpack_from(buf, offset)
            bounds, offset = _parse_bounds(buf, offset + _RECOVERED_HEADER.size, count)
            frames.append(RecoveredFrame(bounds))
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
