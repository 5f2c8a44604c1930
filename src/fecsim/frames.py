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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain
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
_RANGE_SIZE = 16  # (lo, hi) as two u64
_RECOVERED_HEADER = struct.Struct(">BH")
_HANDSHAKE = struct.Struct(">BB")

STREAM_FRAME_OVERHEAD = _STREAM_HEADER.size  # 16 bytes before the data


class UnknownFrameType(MalformedFrame):
    pass


@dataclass
class StreamFrame:
    stream_id: int
    offset: int
    fin: bool
    data: bytes


@dataclass
class AckFrame:
    largest_acked: int
    ack_delay_us: int
    ranges: list[tuple[int, int]]  # inclusive (lo, hi), ascending


@dataclass
class RecoveredFrame:
    ranges: list[tuple[int, int]]  # inclusive (lo, hi), ascending


@dataclass
class HandshakeFrame:
    round: int


Frame = Union[StreamFrame, AckFrame, RecoveredFrame, HandshakeFrame, FecFrame]


def encode_frame(frame: Frame) -> bytes:
    if isinstance(frame, StreamFrame):
        return (
            _STREAM_HEADER.pack(
                FRAME_STREAM,
                frame.stream_id,
                frame.offset,
                int(frame.fin),
                len(frame.data),
            )
            + frame.data
        )
    if isinstance(frame, AckFrame):
        out = _ACK_HEADER.pack(
            FRAME_ACK, frame.largest_acked, frame.ack_delay_us, len(frame.ranges)
        )
        return out + _pack_ranges(frame.ranges)
    if isinstance(frame, RecoveredFrame):
        out = _RECOVERED_HEADER.pack(FRAME_RECOVERED, len(frame.ranges))
        return out + _pack_ranges(frame.ranges)
    if isinstance(frame, HandshakeFrame):
        return _HANDSHAKE.pack(FRAME_HANDSHAKE, frame.round)
    if isinstance(frame, FecFrame):
        return framework.encode_fec_frame(frame)
    raise TypeError(f"cannot encode {type(frame).__name__}")


def _pack_ranges(ranges: list[tuple[int, int]]) -> bytes:
    return struct.pack(">%dQ" % (2 * len(ranges)), *chain.from_iterable(ranges))


def _parse_ranges(buf: bytes, offset: int, count: int) -> tuple[list, int]:
    need = offset + count * _RANGE_SIZE
    if len(buf) < need:
        raise MalformedFrame("truncated range list")
    flat = struct.unpack_from(">%dQ" % (2 * count), buf, offset)
    ranges = list(zip(flat[::2], flat[1::2]))
    for lo, hi in ranges:
        if hi < lo:
            raise MalformedFrame(f"inverted range ({lo}, {hi})")
    return ranges, need


def parse_frames(buf: bytes, offset: int = 0) -> list[Frame]:
    """Parse a packet payload into its frame sequence."""
    frames: list[Frame] = []
    while offset < len(buf):
        ftype = buf[offset]
        if ftype == FRAME_STREAM:
            if len(buf) - offset < _STREAM_HEADER.size:
                raise MalformedFrame("truncated stream frame")
            _, stream_id, off, fin, length = _STREAM_HEADER.unpack_from(buf, offset)
            offset += _STREAM_HEADER.size
            if len(buf) - offset < length:
                raise MalformedFrame("truncated stream data")
            frames.append(
                StreamFrame(stream_id, off, bool(fin), bytes(buf[offset : offset + length]))
            )
            offset += length
        elif ftype == FRAME_ACK:
            if len(buf) - offset < _ACK_HEADER.size:
                raise MalformedFrame("truncated ack frame")
            _, largest, delay, count = _ACK_HEADER.unpack_from(buf, offset)
            ranges, offset = _parse_ranges(buf, offset + _ACK_HEADER.size, count)
            frames.append(AckFrame(largest, delay, ranges))
        elif ftype == FRAME_RECOVERED:
            if len(buf) - offset < _RECOVERED_HEADER.size:
                raise MalformedFrame("truncated recovered frame")
            _, count = _RECOVERED_HEADER.unpack_from(buf, offset)
            ranges, offset = _parse_ranges(buf, offset + _RECOVERED_HEADER.size, count)
            frames.append(RecoveredFrame(ranges))
        elif ftype == FRAME_HANDSHAKE:
            if len(buf) - offset < _HANDSHAKE.size:
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


@dataclass
class Packet:
    packet_number: int
    frames: list[Frame] = field(default_factory=list)
    fec_protected: bool = False
    source_id: Optional[int] = None


def encode_packet(packet: Packet) -> bytes:
    flags = PACKET_FLAG_FEC_PROTECTED if packet.fec_protected else 0
    out = struct.pack(">BQ", flags, packet.packet_number)
    if packet.fec_protected:
        if packet.source_id is None:
            raise ValueError("protected packet needs a source id")
        out += struct.pack(">I", packet.source_id)
    return out + b"".join(encode_frame(f) for f in packet.frames)


def parse_packet(buf: bytes) -> Packet:
    if len(buf) < PACKET_HEADER_LEN:
        raise MalformedFrame(f"short packet: {len(buf)} bytes")
    flags, pn = struct.unpack_from(">BQ", buf, 0)
    offset = PACKET_HEADER_LEN
    protected = bool(flags & PACKET_FLAG_FEC_PROTECTED)
    source_id = None
    if protected:
        if len(buf) < PROTECTED_HEADER_LEN:
            raise MalformedFrame("short protected packet")
        (source_id,) = struct.unpack_from(">I", buf, offset)
        offset = PROTECTED_HEADER_LEN
    return Packet(pn, parse_frames(buf, offset), protected, source_id)
