"""Transport frame and packet wire encodings."""

from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fecsim.framework import (
    MAX_CHUNK_PAYLOAD,
    FecFrame,
    MalformedFrame,
    encode_fec_frame,
)
from fecsim.frames import (
    MAX_PACKET_SIZE,
    PACKET_HEADER_LEN,
    PROTECTED_HEADER_LEN,
    STREAM_FRAME_OVERHEAD,
    AckFrame,
    HandshakeFrame,
    Packet,
    RecoveredFrame,
    StreamFrame,
    UnknownFrameType,
    encode_frame,
    encode_packet,
    parse_frames,
    parse_packet,
)


def test_wire_constants():
    assert MAX_PACKET_SIZE == 1200
    assert PACKET_HEADER_LEN == 9
    assert PROTECTED_HEADER_LEN == 13
    assert STREAM_FRAME_OVERHEAD == 16


def test_golden_stream_frame():
    wire = encode_frame(StreamFrame(1, 0x10, True, b"hi"))
    assert wire.hex() == "010000000100000000000000100100026869"


def test_golden_ack_frame():
    wire = encode_frame(AckFrame(5, 0, (1, 2, 4, 5)))
    assert wire.hex() == (
        "020000000000000005000000000002"
        "00000000000000010000000000000002"
        "00000000000000040000000000000005"
    )


def test_golden_recovered_frame():
    wire = encode_frame(RecoveredFrame((7, 7)))
    assert wire.hex() == "0b000100000000000000070000000000000007"


def test_golden_handshake_frame():
    assert encode_frame(HandshakeFrame(1)).hex() == "0c01"


def test_all_frame_types_roundtrip():
    frames = [
        HandshakeFrame(0),
        StreamFrame(4, 12345, False, b"payload bytes"),
        AckFrame(90, 250, (0, 3, 7, 90)),
        RecoveredFrame((2, 2, 5, 8)),
        FecFrame(True, 3, 0xAABBCCDD00112233, 30, 10, b"\xff" * 40),
    ]
    buf = b"".join(encode_frame(f) for f in frames)
    assert parse_frames(buf) == frames


def test_parse_empty_payload_is_empty():
    assert parse_frames(b"") == []


def test_unknown_frame_type_rejected():
    with pytest.raises(UnknownFrameType):
        parse_frames(b"\x7f")


def test_truncations_rejected():
    for frame in (
        StreamFrame(1, 0, False, b"abc"),
        AckFrame(3, 0, (1, 3)),
        RecoveredFrame((1, 3)),
        HandshakeFrame(2),
    ):
        wire = encode_frame(frame)
        for cut in range(1, len(wire)):
            with pytest.raises(MalformedFrame):
                parse_frames(wire[:cut])


def test_inverted_ack_range_rejected():
    for frame in (AckFrame(5, 0, (1, 2, 5, 1)), RecoveredFrame((5, 1))):
        with pytest.raises(MalformedFrame, match=r"inverted range \(5, 1\)"):
            parse_frames(encode_frame(frame))


def test_fec_frame_encoding_delegates_to_framework():
    frame = FecFrame(False, 1, 99, 6, 3, b"\x00\x01")
    assert encode_frame(frame) == encode_fec_frame(frame)


U8, U32, U64 = (st.integers(0, (1 << bits) - 1) for bits in (8, 32, 64))


def padded_bytes(max_len: int):
    """Up to ``max_len`` bytes: a random head plus zero padding, so long
    payloads cost no more to draw than short ones."""
    return st.builds(
        lambda head, pad: head + bytes(pad),
        st.binary(max_size=16),
        st.integers(0, max_len - 16),
    )


# Flat bounds of up to 40 ranges with lo <= hi; order and overlap are the
# transport's to check, not the parser's.
BOUNDS = st.lists(st.tuples(U64, U64).map(sorted), max_size=40).map(
    lambda ranges: tuple(chain.from_iterable(ranges))
)
TOP = (1 << 64) - 1
# 32 ranges, the most an ACK carries, from 0 to 2^64 - 1
FULL_BOUNDS = (0, 0, *(v for k in range(1, 31) for v in (3 * k, 3 * k + 1)), TOP - 1, TOP)
ANY_FRAME = st.one_of(
    st.builds(StreamFrame, U32, U64, st.booleans(), padded_bytes(0xFFFF)),
    st.builds(AckFrame, U64, U32, BOUNDS),
    st.builds(RecoveredFrame, BOUNDS),
    st.builds(HandshakeFrame, U8),
    st.builds(FecFrame, st.booleans(), U8, U64, U8, U8, padded_bytes(MAX_CHUNK_PAYLOAD)),
)


@settings(deadline=None)
@given(ANY_FRAME)
@example(FecFrame(True, 255, (1 << 64) - 1, 255, 255, b"\xa5" * MAX_CHUNK_PAYLOAD))
@example(FecFrame(False, 0, 0, 0, 0, b""))
@example(StreamFrame((1 << 32) - 1, (1 << 64) - 1, True, bytes(0xFFFF)))
@example(AckFrame(TOP, (1 << 32) - 1, (0, TOP)))
@example(AckFrame(TOP, 0, FULL_BOUNDS))
@example(AckFrame(0, 0, ()))
@example(RecoveredFrame((0, TOP)))
@example(RecoveredFrame(FULL_BOUNDS))
@example(RecoveredFrame(()))
@example(HandshakeFrame(255))
def test_frame_roundtrip_at_field_extremes(frame):
    wire = encode_frame(frame)
    assert parse_frames(wire) == [frame]
    if isinstance(frame, FecFrame):
        assert wire == encode_fec_frame(frame)


def test_golden_packet_header():
    wire = encode_packet(Packet(3, [HandshakeFrame(0)]))
    assert wire.hex() == "0000000000000000030c00"
    parsed = parse_packet(wire)
    assert parsed == Packet(3, [HandshakeFrame(0)], False, None)


def test_protected_packet_carries_source_id():
    pkt = Packet(
        7,
        [StreamFrame(1, 0, False, b"x")],
        fec_protected=True,
        source_id=0x0102,
    )
    wire = encode_packet(pkt)
    assert wire[0] == 0x01
    assert wire[:PROTECTED_HEADER_LEN].hex() == "01" + "0000000000000007" + "00000102"
    assert parse_packet(wire) == pkt


def test_protected_packet_requires_source_id():
    with pytest.raises(ValueError):
        encode_packet(Packet(1, [], fec_protected=True))


def test_parse_packet_rejects_short_buffers():
    with pytest.raises(MalformedFrame):
        parse_packet(b"\x00" * (PACKET_HEADER_LEN - 1))
    with pytest.raises(MalformedFrame):
        parse_packet(b"\x01" + b"\x00" * (PROTECTED_HEADER_LEN - 2))


def test_packet_roundtrip_with_many_frames():
    pkt = Packet(
        42,
        [
            AckFrame(9, 0, (0, 9)),
            StreamFrame(1, 100, True, b"d" * 50),
            RecoveredFrame((3, 4)),
        ],
    )
    assert parse_packet(encode_packet(pkt)) == pkt
