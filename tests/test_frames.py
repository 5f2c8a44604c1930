"""Transport frame and packet wire encodings."""

import struct

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
    # type, top 1000, 3 ranges, 2-byte values; newest first: length 700,
    # then gap 293 (300 - 5 - 2) and length 1, then gap 0 and length 1
    frame = AckFrame.of((1, 2, 4, 5, 300, 1000))
    assert (frame.largest, frame.steps) == (1000, (700, 293, 1, 0, 1))
    assert encode_frame(frame).hex() == (
        "02" "00000000000003e8" "0003" "02" "02bc" "0125" "0001" "0000" "0001"
    )


def test_golden_one_range_ack_frame():
    assert encode_frame(AckFrame.of((1, 5))).hex() == "02" "0000000000000005" "0001" "01" "04"


def test_golden_recovered_frame():
    wire = encode_frame(RecoveredFrame.of((7, 7)))
    assert wire.hex() == "0b" "0000000000000007" "0001" "01" "00"


def test_golden_handshake_frame():
    assert encode_frame(HandshakeFrame(1)).hex() == "0c01"


def test_all_frame_types_roundtrip():
    frames = [
        HandshakeFrame(0),
        StreamFrame(4, 12345, False, b"payload bytes"),
        AckFrame.of((0, 3, 7, 90)),
        RecoveredFrame.of((2, 2, 5, 8)),
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
        AckFrame.of((1, 3)),
        AckFrame.of((0, 0, 2, 300, 1 << 40, (1 << 40) + 7)),
        RecoveredFrame.of((1, 3)),
        RecoveredFrame.of((1, 3, 5, 5)),
        HandshakeFrame(2),
    ):
        wire = encode_frame(frame)
        for cut in range(1, len(wire)):
            with pytest.raises(MalformedFrame):
                parse_frames(wire[:cut])


def range_list(ftype: int, top: int, count: int, width: int, values=b"") -> bytes:
    return struct.pack(">BQHB", ftype, top, count, width) + values


@pytest.mark.parametrize("ftype", [0x02, 0x0B])
@pytest.mark.parametrize(
    "case",
    [
        "zero_ranges",
        "bad_width",
        # newest range 2..5, then gap 0: an older range topping at 0 and
        # one packet long reaches -1
        "below_zero",
    ],
)
def test_malformed_range_lists_are_rejected(ftype, case):
    wire = {
        "zero_ranges": range_list(ftype, 5, 0, 1),
        "bad_width": range_list(ftype, 5, 1, 3, b"\x00\x00\x01"),
        "below_zero": range_list(ftype, 5, 2, 1, bytes([3, 0, 1])),
    }[case]
    with pytest.raises(MalformedFrame):
        parse_frames(wire)


def test_lowest_range_may_start_at_zero():
    (frame,) = parse_frames(range_list(0x02, 5, 2, 1, bytes([3, 0, 0])))
    assert frame.bounds == (0, 0, 2, 5)


@pytest.mark.parametrize(
    "bounds",
    [
        pytest.param((4, 5, 1, 2), id="descending"),
        pytest.param((1, 4, 3, 5), id="overlapping"),
        pytest.param((1, 3, 3, 5), id="shared_endpoint"),
        pytest.param((1, 3, 4, 5), id="touching"),
        pytest.param((), id="no_ranges"),
        pytest.param((1, 2, 3), id="unpaired_bound"),
        pytest.param((5,), id="lone_bound"),
    ],
)
def test_unwritable_range_lists_are_refused(bounds):
    """Ranges that no range list can express are refused when building the
    frame; no parsed frame holds them (see the any-bytes property)."""
    for kind in (AckFrame, RecoveredFrame):
        with pytest.raises(ValueError):
            kind.of(bounds)


def test_inverted_ack_range_rejected():
    """A range's length is unsigned on the wire, so ``hi < lo`` cannot be
    written."""
    for kind in (AckFrame, RecoveredFrame):
        with pytest.raises(ValueError):
            kind.of((1, 2, 5, 1))


@settings(deadline=None)
@given(
    st.sampled_from([0x02, 0x0B]),
    st.integers(0, (1 << 64) - 1),
    st.integers(0, 40),
    st.sampled_from([1, 2, 4, 8, 3]),
    st.binary(max_size=200),
)
def test_any_range_list_bytes_parse_canonical_or_malformed(ftype, top, count, width, values):
    """Whatever the bytes, parsing yields canonical ranges from 0 to the
    top, or raises MalformedFrame; never struct.error or IndexError."""
    try:
        frame = parse_frames(range_list(ftype, top, count, width, values))[0]
    except MalformedFrame:
        return
    bounds = frame.bounds
    assert len(bounds) == 2 * count and bounds[-1] == top and bounds[0] >= 0
    assert all(lo <= hi for lo, hi in frame.ranges)
    assert all(hi + 1 < lo for hi, lo in zip(bounds[1:-1:2], bounds[2::2]))


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


TOP = (1 << 64) - 1


@st.composite
def canonical_bounds(draw, max_ranges=40):
    """Flat bounds of 1 to ``max_ranges`` canonical ranges (ascending, at
    least one value apart) within 0 to 2^64 - 1.  Each list's values are
    drawn under one of the four width limits, so every width occurs."""
    limit = draw(st.sampled_from([0xFF, 0xFFFF, 0xFFFF_FFFF, TOP]))
    steps = draw(st.lists(st.integers(0, limit), min_size=1, max_size=2 * max_ranges - 1))
    steps = steps[: len(steps) - 1 + len(steps) % 2]  # a length, then (gap, length) pairs
    twos = len(steps) - 1  # each gap stands for 2 more than its value
    if sum(steps) + twos > TOP:  # shrink in proportion to fit under 2^64
        total = sum(steps)
        steps = [v * (TOP - twos) // total for v in steps]
    hi = draw(st.integers(sum(steps) + twos, TOP))
    lo = hi - steps[0]
    bounds = [hi, lo]  # newest first, reversed below
    for gap, length in zip(steps[1::2], steps[2::2]):
        hi = lo - gap - 2
        lo = hi - length
        bounds += (hi, lo)
    return tuple(reversed(bounds))


# 32 ranges, the most an ACK carries, from 0 to 2^64 - 1
FULL_BOUNDS = (0, 0, *(v for k in range(1, 31) for v in (3 * k, 3 * k + 1)), TOP - 1, TOP)
ANY_FRAME = st.one_of(
    st.builds(StreamFrame, U32, U64, st.booleans(), padded_bytes(0xFFFF)),
    canonical_bounds().map(AckFrame.of),
    canonical_bounds().map(RecoveredFrame.of),
    st.builds(HandshakeFrame, U8),
    st.builds(FecFrame, st.booleans(), U8, U64, U8, U8, padded_bytes(MAX_CHUNK_PAYLOAD)),
)


@settings(deadline=None)
@given(ANY_FRAME)
@example(FecFrame(True, 255, (1 << 64) - 1, 255, 255, b"\xa5" * MAX_CHUNK_PAYLOAD))
@example(FecFrame(False, 0, 0, 0, 0, b""))
@example(StreamFrame((1 << 32) - 1, (1 << 64) - 1, True, bytes(0xFFFF)))
@example(AckFrame.of((0, TOP)))
@example(AckFrame.of(FULL_BOUNDS))
@example(AckFrame.of((0, 0)))
@example(RecoveredFrame.of((0, TOP)))
@example(RecoveredFrame.of(FULL_BOUNDS))
@example(RecoveredFrame.of((TOP, TOP)))
@example(HandshakeFrame(255))
def test_frame_roundtrip_at_field_extremes(frame):
    wire = encode_frame(frame)
    assert parse_frames(wire) == [frame]
    if isinstance(frame, FecFrame):
        assert wire == encode_fec_frame(frame)


@settings(deadline=None)
@given(canonical_bounds(), st.sampled_from([AckFrame, RecoveredFrame]))
def test_range_list_roundtrip_at_every_width(bounds, kind):
    frame = kind.of(bounds)
    wire = encode_frame(frame)
    (parsed,) = parse_frames(wire)
    assert parsed == frame and parsed.bounds == bounds
    width = wire[11]
    assert width in (1, 2, 4, 8)
    assert len(wire) == 12 + width * len(frame.steps)
    # the narrowest width that holds the largest value
    assert max(frame.steps) < 1 << 8 * width
    assert width == 1 or max(frame.steps) >= 1 << 4 * width


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
            AckFrame.of((0, 9)),
            StreamFrame(1, 100, True, b"d" * 50),
            RecoveredFrame.of((3, 4)),
        ],
    )
    assert parse_packet(encode_packet(pkt)) == pkt
