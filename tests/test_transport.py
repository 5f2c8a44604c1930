"""Transport state machine: congestion control, loss detection, recovery
signaling, stream reassembly."""

import dataclasses
import math
import tracemalloc
from itertools import accumulate, permutations

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fecsim.experiments import VARIANTS
from fecsim.framework import (
    FecFrame,
    FecFrameworkError,
    MalformedFrame,
    SenderFec,
    block_repair_id,
    conv_repair_id,
)
from fecsim.frames import (
    AckFrame,
    HandshakeFrame,
    PROTECTED_HEADER_LEN,
    Packet,
    RangeSet,
    RecoveredFrame,
    STREAM_FRAME_OVERHEAD,
    StreamFrame,
    encode_packet,
    parse_frames,
    parse_packet,
)
from fecsim.transport import (
    ACK_RANGE_CAP,
    FEC_SYMBOL_SIZE,
    HOLE_TIME_FRACTION,
    MAX_ACK_DELAY_US,
    MAX_PACKET_SIZE,
    Connection,
    ConnectionConfig,
    FecConfig,
    NewReno,
    PACKET_REORDER_THRESHOLD,
    ProtocolViolation,
    RecvStream,
    RttEstimator,
    SendStream,
    SentRecord,
    STRATEGY_NO_ACK,
    STRATEGY_SILENT_ACK,
    TLP_SRTT_MULTIPLIER,
    listed_in_flight,
    pattern_bytes,
    pattern_request_size,
)


# ---------------------------------------------------------------------------
# Small pieces

def test_pattern_bytes():
    assert pattern_bytes(0, 4) == b"\x00\x01\x02\x03"
    assert pattern_bytes(254, 4) == b"\xfe\xff\x00\x01"
    assert pattern_bytes(1000, 0) == b""


def test_pattern_request_size():
    assert pattern_request_size(b"GET 1000") == 1000
    for bad in (b"PUT 1000", b"GET x", b"GET -5", b"GET ", b"GET 1e3"):
        with pytest.raises(ProtocolViolation):
            pattern_request_size(bad)


def test_rangeset_add_merge_contains():
    rs = RangeSet()
    for v in (1, 2, 4, 5):
        rs.add(v)
    assert rs.bounds == [1, 2, 4, 5]
    assert 2 in rs and 3 not in rs
    rs.add(3)
    assert rs.bounds == [1, 5]
    rs.add(3)  # duplicate is a no-op
    assert rs.bounds == [1, 5]
    assert len(rs) == 1


def test_rangeset_prune_merges_oldest_gaps():
    rs = RangeSet()
    for v in (1, 2, 4, 5, 7, 8, 10, 11):
        rs.add(v)
    rs.prune(2)
    assert rs.bounds == [1, 8, 10, 11]
    assert 6 in rs  # the closed gap is now covered


def _model_ranges(values):
    """A set of ints as sorted, disjoint, non-adjacent inclusive ranges."""
    out = []
    for v in sorted(values):
        if out and out[-1][1] == v - 1:
            out[-1][1] = v
        else:
            out.append([v, v])
    return [tuple(r) for r in out]


def _model_prune(values, max_ranges):
    """Close the gaps between the oldest ranges, as RangeSet.prune does."""
    ranges = _model_ranges(values)
    if len(ranges) > max_ranges:
        values.update(range(ranges[0][0], ranges[len(ranges) - max_ranges][1] + 1))


def weighted(*choices):
    """Draw from each ``(strategy, weight)`` in proportion to its weight;
    ``one_of`` draws its distinct branches alike and merges repeated ones."""
    return st.sampled_from([s for s, w in choices for _ in range(w)]).flatmap(lambda s: s)


SPAN = 1_000  # wide enough for 300 ops to leave more than 64 ranges
ADD = st.tuples(st.just("add"), st.integers(0, SPAN))
RANGE = st.tuples(
    st.just("range"),
    st.tuples(st.integers(0, SPAN), st.integers(0, 12)).map(lambda t: (t[0], sum(t))),
)


@settings(deadline=None)
@given(
    st.lists(
        weighted(
            (ADD, 10),  # mostly adds, to reach > 64 ranges
            (RANGE, 1),
            (st.tuples(st.just("prune"), st.integers(1, 200)), 1),
            (st.tuples(st.just("ack"), st.just(0)), 1),
        ),
        min_size=50,
        max_size=300,
    ),
    st.lists(st.integers(0, SPAN + 10), unique=True).map(sorted),
)
# 80 single-packet ranges: the ACK prunes to 64 and carries the newest 32
@example([("add", v) for v in range(0, 160, 2)] + [("ack", 0)], [1, 40, 158])
# the newest range grows past 255 between ACKs: the older values widen
@example(
    [("add", 0), ("add", 2), ("ack", 0)]
    + [("add", v) for v in range(3, 400)]
    + [("ack", 0)],
    [0, 1, 2, 399],
)
# interval adds that bridge, swallow and extend ranges, then one in order
@example(
    [("add", v) for v in (3, 6, 9, 20)]
    + [("range", (4, 8)), ("range", (0, 1)), ("range", (2, 2)), ("range", (10, 19))]
    + [("ack", 0), ("range", (21, 30)), ("range", (25, 40)), ("ack", 0)],
    [5, 21, 41],
)
def test_rangeset_and_ack_bounds_match_set_model(ops, flight):
    """Every ACK parses back to the newest 32 ranges of the set after
    pruning it to 64 (the bounds an ACK listed as u64 pairs before the
    range-list layout), its kept bytes equal a fresh encoding, and the
    newest-first walk acks what a brute force over those ranges acks.
    Single and interval adds keep the bounds ascending, with a gap
    between neighbouring ranges."""
    conn = Connection("client", ConnectionConfig(), request_size=1)
    rs = conn._received_pns
    model = set()
    sent = dict.fromkeys(flight)
    for op, v in ops:
        probes = (v - 1, v, v + 1) if op != "range" else ()
        if op == "add":
            assert rs.add(v) == (v not in model)
            model.add(v)
        elif op == "range":
            lo, hi = v
            rs.add_range(lo, hi)
            model.update(range(lo, hi + 1))
            probes = (lo - 1, lo, hi, hi + 1)
        elif op == "prune":
            rs.prune(v)
            _model_prune(model, v)
        elif model:
            ack = conn._ack_frame()
            _model_prune(model, 2 * ACK_RANGE_CAP)
            newest = _model_ranges(model)[-ACK_RANGE_CAP:]
            (parsed,) = parse_frames(ack.encoded)
            assert parsed == ack
            assert parsed.bounds == _flat(newest) == tuple(rs.bounds[-2 * ACK_RANGE_CAP :])
            assert parsed.largest == max(model)
            assert ack.encoded == AckFrame.of(parsed.bounds).encoded
            assert listed_in_flight(sent, parsed) == [
                pn for pn in sent if any(lo <= pn <= hi for lo, hi in newest)
            ]
        b = rs.bounds
        assert b == list(_flat(_model_ranges(model)))
        # each lo <= its hi, and each hi + 1 < the next lo: no touching
        assert all(b[i] + 2 * (i & 1) <= b[i + 1] for i in range(len(b) - 1))
        assert len(rs) == len(_model_ranges(model))
        for probe in probes:
            assert (probe in rs) == (probe in model)


def test_rtt_first_sample_replaces_initial():
    rtt = RttEstimator()
    assert rtt.srtt_us == 100_000
    rtt.add_sample(262_000)
    assert rtt.srtt_us == 262_000


def test_rtt_smoothing_gains():
    rtt = RttEstimator()
    rtt.add_sample(262_000)
    rtt.add_sample(100_000)
    assert rtt.srtt_us == 241_750  # 0.875*262000 + 0.125*100000


def test_newreno_slow_start_doubles_per_round():
    cc = NewReno()
    assert cc.cwnd == 12_000
    assert cc.in_slow_start
    for _ in range(10):
        cc.on_acked(1, 1200)
    assert cc.cwnd == 24_000


def test_newreno_loss_halves_window():
    cc = NewReno()
    cc.cwnd = 32 * 1200
    assert cc.on_loss(sent_time_us=5, now_us=10)
    assert cc.cwnd == 16 * 1200
    assert cc.ssthresh == 16 * 1200
    assert not cc.in_slow_start


def test_newreno_one_reduction_per_round():
    cc = NewReno()
    cc.cwnd = 32 * 1200
    assert cc.on_loss(100, 1000)
    before = cc.cwnd
    # losses of packets sent before the reduction do not reduce again
    assert not cc.on_loss(900, 1100)
    assert cc.cwnd == before
    # a loss from after the reduction starts a new round
    assert cc.on_loss(1500, 2000)
    assert cc.cwnd == before / 2


def test_newreno_floor_at_min_window():
    cc = NewReno()
    cc.cwnd = 3 * 1200
    cc.on_loss(1, 2)
    assert cc.cwnd == 2 * 1200


def test_newreno_recovery_blocks_growth():
    cc = NewReno()
    cc.cwnd = 32 * 1200
    cc.on_loss(100, 1000)
    w = cc.cwnd
    cc.on_acked(500, 1200)  # sent before the reduction: no growth
    assert cc.cwnd == w
    cc.on_acked(1500, 1200)  # sent after: congestion avoidance growth
    assert cc.cwnd == pytest.approx(w + 1200 * 1200 / w)


def test_send_stream_slices_and_marks_fin():
    ss = SendStream(10, pattern_bytes)
    f1 = ss.next_frame(4)
    assert (f1.offset, f1.data, f1.fin) == (0, pattern_bytes(0, 4), False)
    f2 = ss.next_frame(100)
    assert (f2.offset, f2.data, f2.fin) == (4, pattern_bytes(4, 6), True)
    assert ss.fin_sent


def test_recv_stream_reorders_and_dedups():
    rs = RecvStream()
    rs.insert(5, 5, True)
    assert not rs.complete and rs.cursor == 0
    rs.insert(0, 5, False)
    assert rs.complete and rs.cursor == 10
    rs.insert(0, 5, False)  # stale duplicate
    assert rs.cursor == 10 and rs.ranges.bounds == [0, 9]


def test_recv_stream_final_size_never_changes():
    rs = RecvStream()
    rs.insert(0, 6, True)
    assert rs.complete
    rs.insert(0, 6, True)  # a resent FIN that agrees is fine
    with pytest.raises(ProtocolViolation):
        rs.insert(100, 0, True)
    assert rs.complete and rs.final_size == 6


def test_recv_stream_rejects_fin_that_moves_a_pending_final_size():
    rs = RecvStream()
    rs.insert(5, 5, True)
    with pytest.raises(ProtocolViolation):
        rs.insert(0, 5, True)
    assert rs.final_size == 10


@pytest.mark.parametrize("delivered", [True, False])
def test_recv_stream_rejects_final_size_below_received_data(delivered):
    rs = RecvStream()
    rs.insert(0 if delivered else 2, 4, False)
    with pytest.raises(ProtocolViolation):
        rs.insert(0, 2, True)
    assert rs.final_size is None and not rs.complete


def test_recv_stream_rejects_data_past_final_size():
    rs = RecvStream()
    rs.insert(0, 3, True)
    with pytest.raises(ProtocolViolation):
        rs.insert(3, 3, False)
    assert rs.cursor == 3 and rs.ranges.bounds == [0, 2]


def test_recv_stream_delivers_segment_overlapped_from_below():
    rs = RecvStream()
    rs.insert(5, 5, False)
    rs.insert(0, 7, False)
    assert rs.cursor == 10
    rs.insert(10, 0, True)
    assert rs.complete and rs.ranges.bounds == [0, 9]
    # an empty frame ahead of the cursor records nothing
    ahead = RecvStream()
    ahead.insert(3, 0, False)
    assert ahead.ranges.bounds == []


@st.composite
def stream_frames(draw):
    """The ``(offset, length, fin)`` frames of a stream of ``size`` bytes,
    in any order: a split that covers it, the last piece with the FIN, plus
    duplicated, overlapping, empty and stray extras, a few with a FIN at
    any end."""
    size = draw(st.integers(0, 48))
    points = sorted({0, size, *draw(st.lists(st.integers(0, size), max_size=8))})
    cover = [(lo, hi - lo, hi == size) for lo, hi in zip(points, points[1:])] or [(0, 0, True)]
    extra = st.tuples(
        st.integers(0, size + 8), st.integers(0, 12), st.sampled_from([False] * 3 + [True])
    )
    return size, draw(st.permutations(cover + draw(st.lists(extra, max_size=8))))


@settings(deadline=None)
@given(stream_frames())
# a final size of 3 after byte 3 arrived: refused
@example((4, [(0, 4, False), (3, 0, True), (0, 4, True)]))
def test_recv_stream_matches_a_set_of_offsets_model(case):
    """The stream against a set of received offsets and the final-size
    rules of RFC 9000 section 4.5: a known final size never changes, no
    data lies past it, and it lies at or above every offset received.  A
    frame that breaks a rule raises ``ProtocolViolation`` and changes
    nothing.  The cursor is the first offset not received, and a stream
    whose every frame was taken is complete."""
    size, frames = case
    rs = RecvStream()
    received: set[int] = set()
    final = None
    refused = False
    for offset, n, fin in frames:
        end = offset + n
        breaks = final is not None and (end > final or fin and end != final)
        breaks = breaks or fin and final is None and any(v >= end for v in received)
        if breaks:
            refused = True
            before = list(rs.ranges.bounds)
            with pytest.raises(ProtocolViolation):
                rs.insert(offset, n, fin)
            assert rs.ranges.bounds == before
        else:
            rs.insert(offset, n, fin)
            received.update(range(offset, end))
            final = end if fin else final
        assert rs.ranges.bounds == list(_flat(_model_ranges(received)))
        assert rs.final_size == final
        assert rs.cursor == min(set(range(len(received) + 1)) - received)
        assert rs.complete == (final is not None and received >= set(range(final)))
    if not refused:
        assert rs.complete and rs.cursor == size == final


def test_fec_config_labels():
    assert FecConfig.rs(30, 20).label() == "rs(30,20)"
    assert FecConfig.rlc(3, 2, 20).label() == "rlc(3,2,20)"
    assert FecConfig.xor(4, 4).label() == "xor(k=4,lanes=4)"


def test_connection_config_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        ConnectionConfig(recovered_strategy="quiet")


def test_connection_role_validation():
    with pytest.raises(ValueError):
        Connection("router", ConnectionConfig())
    with pytest.raises(ValueError):
        Connection("client", ConnectionConfig())  # no request size


# ---------------------------------------------------------------------------
# Driving a server connection by hand

def deliver(conn, packet, now):
    conn.on_datagram(encode_packet(packet), now)


def make_server(size=50_000, **config_kwargs):
    """Handshake + request a response; returns (server, stream packets)."""
    traces = []
    srv = Connection(
        "server",
        ConnectionConfig(**config_kwargs),
        trace=lambda ev, pn, detail: traces.append((ev, pn, detail)),
    )
    srv.traces = traces
    deliver(srv, Packet(1, [HandshakeFrame(0)]), 0)
    out = srv.flush(0)
    deliver(srv, Packet(2, [StreamFrame(0, 0, True, b"GET %d" % size)]), 0)
    out += srv.flush(0)
    stream = [p for p in out if p.kind == "stream"]
    assert len(stream) >= 6
    assert srv.bytes_in_flight <= srv.cwnd
    return srv, stream


def stream_offsets(packets):
    off = {}
    for p in packets:
        for f in parse_packet(p.data).frames:
            if isinstance(f, StreamFrame):
                off[p.packet_number] = f.offset
    return off


def flushed_stream_offsets(conn, now):
    out = conn.flush(now)
    return [
        f.offset
        for p in out
        for f in parse_packet(p.data).frames
        if isinstance(f, StreamFrame)
    ]


def test_client_sends_request_after_handshake():
    cli = Connection("client", ConnectionConfig(), request_size=1234)
    cli.start(0)
    out = cli.flush(0)
    assert [p.kind for p in out] == ["hs"]
    hs = parse_packet(out[0].data).frames[0]
    assert hs == HandshakeFrame(0)
    deliver(cli, Packet(1, [HandshakeFrame(1)]), 1000)
    out = cli.flush(1000)
    kinds = [p.kind for p in out]
    assert "stream" in kinds
    req = [
        f
        for p in out
        for f in parse_packet(p.data).frames
        if isinstance(f, StreamFrame)
    ]
    assert req == [StreamFrame(0, 0, True, b"GET 1234")]


def test_reorder_threshold_needs_three_packets_above():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    offs = stream_offsets(stream)
    # hole at s[2]: packets up to 2 above it are acked, not enough
    deliver(srv, Packet(3, [AckFrame.of((1, s[1], s[3], s[4]))]), 100_000)
    assert srv.stats.lost_packets == 0
    # one more packet above: the hole crosses the reorder threshold
    assert s[5] - s[2] == PACKET_REORDER_THRESHOLD
    deliver(srv, Packet(4, [AckFrame.of((1, s[1], s[3], s[5]))]), 100_200)
    assert srv.stats.lost_packets == 1
    assert ("lost", s[2], "reorder_threshold") in srv.traces
    # the lost data is retransmitted
    sent = flushed_stream_offsets(srv, 100_300)
    assert offs[s[2]] in sent
    assert srv.stats.retransmitted_packets == 1


def test_hole_time_threshold_declares_loss():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    # srtt becomes 200ms; the hole at s[2] is 2 packets deep (below the
    # reorder threshold) so only the time threshold can fire
    deliver(srv, Packet(3, [AckFrame.of((1, s[1], s[3], s[4]))]), 200_000)
    assert srv.rtt.srtt_us == 200_000
    assert srv.stats.lost_packets == 0
    hole_deadline = 200_000 + 200_000 // 8
    assert srv.next_timer_us() == hole_deadline
    srv.on_timer(hole_deadline - 1)
    assert srv.stats.lost_packets == 0
    srv.on_timer(hole_deadline)
    assert srv.stats.lost_packets == 1
    assert ("lost", s[2], "time_threshold") in srv.traces


def test_rtt_sample_from_newest_packet_in_flight_when_largest_is_feedback():
    srv, _ = make_server()
    # packet 1 is the handshake, in flight; 2 and 3 are feedback, not in
    # flight: the ACK's largest is new but was never in flight
    deliver(srv, Packet(3, [AckFrame.of((1, 3))]), 150_000)
    assert srv.rtt.has_sample and srv.rtt.srtt_us == 150_000


def test_rtt_sample_needs_a_new_largest_acked():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    deliver(srv, Packet(3, [AckFrame.of((s[1], s[1]))]), 150_000)
    assert srv.rtt.srtt_us == 150_000
    # a late ACK that newly acks s[0] but not a larger packet: no sample
    deliver(srv, Packet(4, [AckFrame.of((s[0], s[1]))]), 400_000)
    assert srv.rtt.srtt_us == 150_000


def test_tail_loss_probe_fires_after_two_srtt():
    srv, stream = make_server()
    assert srv.next_timer_us() == 2 * srv.rtt.srtt_us  # anchored at send time 0
    srv.on_timer(2 * srv.rtt.srtt_us)
    assert srv.stats.probe_packets == 1
    out = srv.flush(2 * srv.rtt.srtt_us)
    assert out[0].kind == "probe"
    # the probe resends the newest unacked stream data
    frames = parse_packet(out[0].data).frames
    offs = stream_offsets(stream)
    assert [f.offset for f in frames] == [offs[stream[-1].packet_number]]


def repair_only_flight(size):
    """An rs(30, 20) server streaming ``size`` bytes whose peer acknowledges
    each flight up to its newest stream packet, 100 ms after it, until
    only repair packets are left in flight.  The server has not flushed
    since that last ACK.  Returns the server and the repair packets'
    numbers."""
    srv, stream = make_server(size, fec=FecConfig.rs(30, 20))
    now = 0
    for pn in range(3, 10):
        now += 100_000
        deliver(srv, Packet(pn, [AckFrame.of((1, stream[-1].packet_number))]), now)
        if srv._sent and all(rec.frame is None for rec in srv._sent.values()):
            assert not srv._retransmit
            return srv, list(srv._sent)
        stream = [p for p in srv.flush(now) if p.kind == "stream"]
    raise AssertionError("the flight never held only repair packets")


def test_probe_sends_new_data_when_no_packet_in_flight_can_be_resent():
    srv, repairs = repair_only_flight(1_000_000)
    offset = srv._send_stream.next_offset
    deadline = srv.next_timer_us()
    srv.on_timer(deadline)
    assert ("tlp_probe", None, "new_data") in srv.traces
    assert srv.stats.probe_packets == 1
    probe = srv.flush(deadline)[0]
    assert probe.kind == "probe"
    assert [f.offset for f in parse_packet(probe.data).frames] == [offset]
    # the repairs stay in flight, and the probe joins them
    assert {*repairs, probe.packet_number} <= srv._sent.keys()


def test_probe_abandons_a_flight_of_repairs_once_the_stream_is_sent():
    srv, repairs = repair_only_flight(8_000)
    assert srv._send_stream.fin_sent
    cwnd = srv.cwnd
    srv.on_timer(srv.next_timer_us())
    assert [pn for ev, pn, _ in srv.traces if ev == "abandoned"] == repairs
    assert not srv._sent and srv.bytes_in_flight == 0
    # no probe and no congestion signal
    assert srv.stats.probe_packets == 0 and srv.stats.lost_packets == 0
    assert srv.cwnd == cwnd
    assert srv.next_timer_us() is None


def test_ack_of_unsent_packet_is_protocol_violation():
    srv, _ = make_server()
    with pytest.raises(ProtocolViolation):
        deliver(srv, Packet(3, [AckFrame.of((9999, 9999))]), 1000)


# Out-of-order, overlapping and touching ranges, and a largest acknowledged
# above the ranges, cannot be written in the range-list layout; ACKs with
# no range are rejected by the parser (tests/test_frames.py).
@pytest.mark.parametrize("shape", ["reaches_unsent"])
def test_malformed_ack_ranges_are_protocol_violation(shape):
    srv, stream = make_server()
    bounds = {"reaches_unsent": (1, 9999)}[shape]
    flight = srv.bytes_in_flight
    with pytest.raises(ProtocolViolation):
        deliver(srv, Packet(3, [AckFrame.of(bounds)]), 1000)
    assert srv.bytes_in_flight == flight and srv.stats.lost_packets == 0
    assert srv.next_timer_us() == 2 * srv.rtt.srtt_us  # no hole opened


def _ascending_ranges(draws):
    """(gap, width) pairs -> canonical ranges: ascending inclusive ranges
    with at least one value between neighbours, the first at or above 0."""
    ranges, hi = [], -2
    for gap, width in draws:
        lo = hi + 2 + gap
        hi = lo + width
        ranges.append((lo, hi))
    return ranges


def _flat(ranges):
    return tuple(v for r in ranges for v in r)


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 1000), unique=True).map(sorted),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 400)),
        min_size=1,
        max_size=ACK_RANGE_CAP,
    ).map(_ascending_ranges).map(_flat),
)
@example([5, 6, 9, 200], (0, 3))  # entirely below the oldest packet
@example([5, 6, 9, 200], (1, 500))  # one merged range, wider than the flight
@example([5, 6, 9, 200], (0, 5, 7, 8, 10, 10, 12, 199))
# several ranges wholly below the flight, then one wider than it
@example([50, 51, 60, 200], (0, 3, 5, 10, 20, 49, 51, 60, 62, 300))
@example([50, 51, 60, 200], (0, 3, 40, 55, 70, 80))  # the oldest inside a range
@example([50, 51, 60, 200], (201, 300))  # entirely above the newest packet
def test_acked_in_flight_matches_brute_force(flight, bounds):
    sent = dict.fromkeys(flight)
    ranges = list(zip(bounds[::2], bounds[1::2]))
    expected = [pn for pn in sent if any(lo <= pn <= hi for lo, hi in ranges)]
    assert listed_in_flight(sent, AckFrame.of(bounds)) == expected


def test_merged_ack_range_wider_than_flight_acks_everything():
    srv = Connection("server", ConnectionConfig())
    deliver(srv, Packet(1, [HandshakeFrame(0)]), 0)
    srv.flush(0)  # handshake (in flight) and an ack-only packet (not)
    deliver(srv, Packet(2, [StreamFrame(0, 0, True, b"GET 50000")]), 50_000)
    out = srv.flush(50_000)
    in_flight = 1 + sum(p.kind == "stream" for p in out)
    newest = out[-1].packet_number
    assert newest > in_flight  # the range spans the ack-only packets too
    deliver(srv, Packet(3, [AckFrame.of((1, newest))]), 250_000)
    assert srv.bytes_in_flight == 0
    assert srv.stats.lost_packets == 0
    # the sample comes from the newest packet (sent at 50 ms), not the
    # handshake (sent at 0)
    assert srv.rtt.srtt_us == 200_000


FLIGHT = 60


def server_with_flight(traces):
    """A server with packets 1..FLIGHT in flight; packet pn left at pn*100
    us and carries nothing to retransmit."""
    srv = Connection(
        "server",
        ConnectionConfig(),
        trace=lambda ev, pn, detail: traces.append((ev, pn, detail)),
    )
    for pn in range(1, FLIGHT + 1):
        srv._sent[pn] = SentRecord(pn * 100, MAX_PACKET_SIZE)
    srv._next_pn = FLIGHT + 1
    srv._bytes_in_flight = FLIGHT * MAX_PACKET_SIZE
    srv._tlp_anchor = FLIGHT * 100
    return srv


ack_ranges = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 10)), min_size=1, max_size=8
).map(lambda draws: [r for r in _ascending_ranges(draws) if r[1] <= FLIGHT])


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 60_000), ack_ranges), min_size=1, max_size=12
    )
)
# a hole opened by the first ACK expires before the second arrives
@example([(1000, [(1, 8), (10, 10)]), (60_000, [(1, 8), (10, 12)])])
# a late ACK newly acks its own largest but does not raise the largest
# acknowledged: no RTT sample
@example([(1, [(2, 2)]), (1, [(0, 1)])])
def test_hole_timer_and_losses_match_brute_force(acks):
    """Random well-formed ACKs (the largest acked tops the newest range)
    at increasing times, with the hole timer fired when it is due first.
    The model gives each outstanding packet the time of the first ACK
    whose largest acked is above it as its hole time, and takes an RTT
    sample when an ACK raises the largest acknowledged and newly acks a
    packet, from the newest one."""
    traces = []
    srv = server_with_flight(traces)
    outstanding = set(range(1, FLIGHT + 1))
    history = []  # (time, largest acked) of every ACK so far
    largest_acked = 0
    rtt = RttEstimator()
    anchor = now = FLIGHT * 100
    lost = []

    def hole_time(pn):
        return next((t for t, largest in history if largest > pn), None)

    def deadlines():
        """(probe deadline, hole deadline); None when not armed."""
        holes = [hole_time(pn) for pn in outstanding if hole_time(pn) is not None]
        threshold = max(1, rtt.srtt_us // HOLE_TIME_FRACTION)
        return (
            anchor + TLP_SRTT_MULTIPLIER * rtt.srtt_us if outstanding else None,
            min(holes) + threshold if holes else None,
        )

    def expire(t):
        threshold = max(1, rtt.srtt_us // HOLE_TIME_FRACTION)
        holes = sorted((hole_time(pn), pn) for pn in outstanding if hole_time(pn) is not None)
        for since, pn in holes:
            if t - since >= threshold:
                outstanding.discard(pn)
                lost.append(("lost", pn, "time_threshold"))

    def check():
        assert [tr for tr in traces if tr[0] == "lost"] == lost
        assert srv.bytes_in_flight == len(outstanding) * MAX_PACKET_SIZE
        armed = [d for d in deadlines() if d is not None]
        assert srv.next_timer_us() == (min(armed) if armed else None)

    for i, (gap, ranges) in enumerate(acks):
        probe, hole = deadlines()
        if hole is not None and hole < now + gap and (probe is None or hole < probe):
            srv.on_timer(hole)
            expire(hole)
            check()
        now += gap
        largest = ranges[-1][1]
        deliver(srv, Packet(i + 1, [AckFrame.of(_flat(ranges))]), now)
        newly = sorted(pn for pn in outstanding if any(lo <= pn <= hi for lo, hi in ranges))
        if largest > largest_acked:
            largest_acked = largest
            if newly:
                rtt.add_sample(now - newly[-1] * 100)
        if newly:
            outstanding.difference_update(newly)
            anchor = now
        history.append((now, largest))
        for pn in sorted(outstanding):
            if largest - pn >= PACKET_REORDER_THRESHOLD:
                outstanding.discard(pn)
                lost.append(("lost", pn, "reorder_threshold"))
        expire(now)
        check()


@settings(deadline=None)
@given(
    acks=st.lists(st.tuples(st.integers(1, 60_000), ack_ranges), max_size=6),
    framed=st.sets(st.integers(1, FLIGHT)),
    fire_first=st.booleans(),
    early=st.integers(1, 10**6),
)
# packet 9 is a hole whose frame a premature time loss would queue
@example(acks=[(1000, [(1, 8), (10, 10)])], framed={9}, fire_first=False, early=1)
def test_on_timer_before_its_deadline_changes_nothing(acks, framed, fire_first, early):
    """The host fires ``on_timer`` at every timer event, due or not, so a
    call at any instant before ``next_timer_us()`` leaves the flight, the
    retransmission queue, the pending probe, the stats and the window as
    they were.  The flight has holes, queued frames or a fired probe as
    the drawn ACKs, resendable frames and first timer make them."""
    traces = []
    srv = server_with_flight(traces)
    for pn in framed:
        srv._sent[pn].frame = StreamFrame(0, pn * 1000, False, b"x")
    now = FLIGHT * 100
    for i, (gap, ranges) in enumerate(acks):
        now += gap
        deliver(srv, Packet(i + 1, [AckFrame.of(_flat(ranges))]), now)
    if fire_first and srv.next_timer_us() is not None:
        srv.on_timer(srv.next_timer_us())
    deadline = srv.next_timer_us()
    if deadline is None:
        instants = [now + early]
    else:
        instants = [max(0, deadline - early), deadline - 1]

    def state():
        return (
            [(pn, dataclasses.replace(rec)) for pn, rec in srv._sent.items()],
            list(srv._retransmit.items()),
            srv._probe,
            dataclasses.replace(srv.stats),
            srv.cwnd,
        )

    before, traced = state(), len(traces)
    for t in instants:
        srv.on_timer(t)
        assert state() == before
        assert len(traces) == traced and srv.next_timer_us() == deadline


def test_recovered_for_unsent_packet_is_protocol_violation():
    srv, _ = make_server()
    with pytest.raises(ProtocolViolation):
        deliver(srv, Packet(3, [RecoveredFrame.of((9999, 9999))]), 1000)


def test_recovered_packet_reduces_cwnd_and_skips_retransmission():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    offs = stream_offsets(stream)
    cwnd_before = srv.cwnd
    flight_before = srv.bytes_in_flight
    deliver(srv, Packet(3, [RecoveredFrame.of((s[0], s[0]))]), 50_000)
    assert srv.stats.peer_recovered_packets == 1
    assert srv.stats.cwnd_reductions == 1
    assert srv.cwnd == cwnd_before / 2
    assert srv.bytes_in_flight == flight_before - len(stream[0].data)
    # acks that would normally expose the hole do not relitigate the loss
    deliver(srv, Packet(4, [AckFrame.of((1, s[5]))]), 100_000)
    assert srv.stats.lost_packets == 0
    # and the recovered data is never sent again
    assert offs[s[0]] not in flushed_stream_offsets(srv, 100_100)
    assert srv.stats.retransmitted_packets == 0


def test_recovered_for_acked_packet_is_ignored():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    deliver(srv, Packet(3, [AckFrame.of((1, s[1]))]), 50_000)
    deliver(srv, Packet(4, [RecoveredFrame.of((s[0], s[0]))]), 51_000)
    assert srv.stats.peer_recovered_packets == 0
    assert srv.stats.cwnd_reductions == 0


def test_duplicate_recovered_reports_single_signal():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    deliver(srv, Packet(3, [RecoveredFrame.of((s[1], s[1]))]), 50_000)
    deliver(srv, Packet(4, [RecoveredFrame.of((s[1], s[1]))]), 52_000)
    assert srv.stats.peer_recovered_packets == 1
    assert srv.stats.cwnd_reductions == 1


def test_recovered_range_collapses_to_one_reduction_per_round():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    deliver(srv, Packet(3, [RecoveredFrame.of((s[2], s[4]))]), 50_000)
    assert srv.stats.peer_recovered_packets == 3
    assert srv.stats.cwnd_reductions == 1  # same flight, one round


def test_late_recovered_purges_queued_retransmission():
    srv, stream = make_server()
    s = [p.packet_number for p in stream]
    offs = stream_offsets(stream)
    # the hole at s[2] crosses the reorder threshold: queued for resend
    deliver(srv, Packet(3, [AckFrame.of((1, s[1], s[3], s[5]))]), 100_000)
    assert srv.stats.lost_packets == 1
    # before the sender flushes, the peer reports it repaired the packet
    deliver(srv, Packet(4, [RecoveredFrame.of((s[2], s[2]))]), 100_050)
    sent = flushed_stream_offsets(srv, 100_100)
    assert offs[s[2]] not in sent
    assert srv.stats.retransmitted_packets == 0
    assert srv.stats.cwnd_reductions == 1


@st.composite
def recovered_cases(draw):
    """A flight, a queue of lost packets' frames awaiting retransmission,
    one per packet number in ascending order as losses queue them, the
    start of the last reduction round and a Recovered frame whose ranges
    stay below the next packet number."""
    roles = draw(st.dictionaries(st.integers(1, 300), st.booleans(), max_size=40))
    flight = sorted(pn for pn, queued in roles.items() if not queued)
    queue = [
        (pn, StreamFrame(0, 10 * pn, False, b"x"))
        for pn, queued in sorted(roles.items())
        if queued
    ]
    ranges = _ascending_ranges(
        draw(
            st.lists(
                st.tuples(st.integers(0, 20), st.integers(0, 40)), min_size=1, max_size=8
            )
        )
    )
    next_pn = max(ranges[-1][1], *roles, 0) + 1 + draw(st.integers(0, 5))
    recovery_start = draw(st.integers(-1, 300 * 100))
    return flight, queue, recovery_start, ranges, next_pn


@settings(deadline=None)
@given(recovered_cases())
# a range below the flight, one inside it and one above its newest packet
@example(
    ([5, 6, 9, 40], [(7, StreamFrame(0, 70, False, b"x"))], -1, [(0, 3), (6, 7), (41, 50)], 51)
)
def test_recovered_frame_matches_brute_force(case):
    """The flight packets a Recovered frame lists retire in ascending order,
    each counted and traced, with at most one reduction (the first whose
    send time follows the last round); queued retransmissions of listed
    packets go and the others keep their order."""
    flight, queue, recovery_start, ranges, next_pn = case
    traces = []
    srv = Connection(
        "server", ConnectionConfig(), trace=lambda ev, pn, detail: traces.append((ev, pn))
    )
    for pn in flight:
        srv._sent[pn] = SentRecord(pn * 100, 100 + pn)
    srv._bytes_in_flight = sum(100 + pn for pn in flight)
    srv._retransmit.update(queue)
    srv._cc._recovery_start = recovery_start
    srv._next_pn = next_pn
    cwnd = srv.cwnd

    def listed(pn):
        return any(lo <= pn <= hi for lo, hi in ranges)

    retired = [pn for pn in flight if listed(pn)]
    reducing = [pn for pn in retired if pn * 100 > recovery_start][:1]
    deliver(srv, Packet(1, [RecoveredFrame.of(_flat(ranges))]), 10**6)
    assert [pn for ev, pn in traces if ev == "peer_recovered"] == retired
    assert [pn for ev, pn in traces if ev == "cwnd_reduce"] == reducing
    assert list(srv._sent) == [pn for pn in flight if not listed(pn)]
    assert list(srv._retransmit.items()) == [item for item in queue if not listed(item[0])]
    assert srv.stats.peer_recovered_packets == len(retired)
    assert srv.stats.cwnd_reductions == len(reducing)
    assert srv.cwnd == (max(cwnd / 2, srv._cc.min_window) if reducing else cwnd)
    assert srv.bytes_in_flight == sum(100 + pn for pn in flight if not listed(pn))


def test_wide_recovered_frame_costs_no_more_than_its_ranges():
    """One Recovered range of a million packets over a three-packet flight
    is walked range by range, not expanded packet by packet."""
    srv = Connection("server", ConnectionConfig())
    flight = (1, 500_000, 1_000_000)
    for pn in flight:
        srv._sent[pn] = SentRecord(pn, MAX_PACKET_SIZE)
    srv._bytes_in_flight = len(flight) * MAX_PACKET_SIZE
    srv._retransmit[2] = StreamFrame(0, 0, False, b"x")
    srv._next_pn = 1_000_001
    data = encode_packet(Packet(1, [RecoveredFrame.of((1, 1_000_000))]))
    tracemalloc.start()
    try:
        srv.on_datagram(data, 2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert not srv._sent and not srv._retransmit and srv.bytes_in_flight == 0
    assert srv.stats.peer_recovered_packets == 3
    assert srv.stats.cwnd_reductions == 1


def test_duplicate_datagram_is_ignored():
    srv, stream = make_server()
    cursor = srv.received_bytes
    deliver(srv, Packet(2, [StreamFrame(0, 0, True, b"GET 50000")]), 500)
    assert srv.received_bytes == cursor  # replay changed nothing
    assert srv.stats.packets_received == 3


def test_ack_ranges_are_sorted_disjoint_and_capped():
    srv = Connection("server", ConnectionConfig())
    largest_seen = 0
    for i in range(80):  # every second packet number: 80 disjoint ranges
        pn = 2 * i + 2
        deliver(srv, Packet(pn, [HandshakeFrame(0)]), i * 10)
        out = [p for p in srv.flush(i * 10) if p.kind == "feedback"]
        assert out, "every out-of-order packet yields immediate feedback"
        acks = [
            f
            for p in out
            for f in parse_packet(p.data).frames
            if isinstance(f, AckFrame)
        ]
        assert len(acks) == 1
        ack = acks[0]
        assert len(ack.ranges) <= ACK_RANGE_CAP
        assert ack.ranges == sorted(ack.ranges)
        for (lo1, hi1), (lo2, _) in zip(ack.ranges, ack.ranges[1:]):
            assert lo1 <= hi1 and hi1 + 1 < lo2  # disjoint, non-adjacent
        assert ack.largest == ack.ranges[-1][1] == pn
        assert ack.largest > largest_seen  # monotone growth
        largest_seen = ack.largest


def acked_client(size):
    """A client of a ``size``-byte response, past the handshake with its own
    packets acknowledged, so that only its receive side arms a timer.  The
    peer's packets 1 and 2 have arrived and no ack-eliciting packet waits."""
    cli = Connection("client", ConnectionConfig(), request_size=size)
    cli.start(0)
    cli.flush(0)
    deliver(cli, Packet(1, [HandshakeFrame(1)]), 1000)
    cli.flush(1000)
    deliver(cli, Packet(2, [AckFrame.of((1, 3))]), 2000)
    assert cli.flush(2000) == [] and cli.next_timer_us() is None
    return cli


def response_packet(i, n):
    """Packet ``3 + i`` of a response of ``n`` 100-byte stream frames, the
    last one with the FIN."""
    return Packet(3 + i, [StreamFrame(0, 100 * i, i == n - 1, pattern_bytes(100 * i, 100))])


def feed_receiver(n, arrivals):
    """Deliver response packets of ``n`` to :func:`acked_client` at each
    ``(time, index)`` of ``arrivals``, firing its timers as they fall
    due.  Checks that every ack-eliciting packet is acknowledged within
    MAX_ACK_DELAY_US of its arrival, and that ``next_timer_us`` never lies
    past the deadline of the oldest one waiting.  Returns the number of
    feedback packets sent."""
    cli = acked_client(100 * n)
    waiting = {}  # packet number -> arrival, not yet acknowledged
    feedback = 0

    def flush(now):
        nonlocal feedback
        for p in cli.flush(now):
            assert p.kind == "feedback"
            feedback += 1
            (ack,) = parse_packet(p.data).frames
            for pn in [pn for pn in waiting if any(lo <= pn <= hi for lo, hi in ack.ranges)]:
                assert now - waiting.pop(pn) <= MAX_ACK_DELAY_US

    def fire_timers(until):
        while (deadline := cli.next_timer_us()) is not None and deadline <= until:
            cli.on_timer(deadline)
            flush(deadline)
            assert (cli.next_timer_us() or math.inf) > deadline  # disarmed

    for now, i in arrivals:
        fire_timers(now)
        deliver(cli, response_packet(i, n), now)
        waiting.setdefault(3 + i, now)
        flush(now)
        if waiting:
            assert cli.next_timer_us() <= min(waiting.values()) + MAX_ACK_DELAY_US
    fire_timers(math.inf)
    assert not waiting
    return feedback


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_no_ack_eliciting_packet_waits_past_max_ack_delay(data):
    n = data.draw(st.integers(1, 24))
    # any order, with duplicates and gaps; the FIN may arrive or not
    order = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    gaps = data.draw(
        st.lists(
            st.integers(0, 2 * MAX_ACK_DELAY_US),
            min_size=len(order),
            max_size=len(order),
        )
    )
    feed_receiver(n, zip(accumulate(gaps, initial=3000), order))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 24),
    gaps=st.lists(st.integers(0, MAX_ACK_DELAY_US - 1), min_size=1, max_size=24),
)
def test_in_order_packets_get_one_feedback_packet_per_two(n, gaps):
    k = min(n, len(gaps))  # a prefix of the response; the FIN if k == n
    arrivals = zip(accumulate(gaps[:k], initial=3000), range(k))
    assert feed_receiver(n, arrivals) <= (k + 1) // 2


def test_in_order_packet_is_acked_with_the_next_or_after_max_ack_delay():
    cli = acked_client(900)
    deliver(cli, response_packet(0, 9), 5000)
    assert cli.flush(5000) == []
    assert cli.next_timer_us() == 5000 + MAX_ACK_DELAY_US
    deliver(cli, response_packet(1, 9), 6000)
    assert [p.kind for p in cli.flush(6000)] == ["feedback"]
    assert cli.next_timer_us() is None
    deliver(cli, response_packet(2, 9), 7000)
    assert cli.flush(7000) == []
    deadline = cli.next_timer_us()
    assert deadline == 7000 + MAX_ACK_DELAY_US
    cli.on_timer(deadline - 1)
    assert cli.flush(deadline - 1) == []
    cli.on_timer(deadline)
    (ack,) = parse_packet(cli.flush(deadline)[0].data).frames
    assert ack.largest == 5


# case: (response size, packet)
ACK_AT_ONCE = {
    "out_of_order": (900, response_packet(1, 9)),
    "duplicate": (900, Packet(1, [HandshakeFrame(1)])),
    "handshake": (900, Packet(3, [HandshakeFrame(1)])),
    "completing_fin": (100, response_packet(0, 1)),
}


@pytest.mark.parametrize("case", sorted(ACK_AT_ONCE))
def test_ack_goes_out_at_once(case):
    size, packet = ACK_AT_ONCE[case]
    cli = acked_client(size)
    deliver(cli, packet, 5000)
    assert [p.kind for p in cli.flush(5000)] == ["feedback"]
    assert cli.next_timer_us() is None


def test_ack_goes_out_while_the_window_holds_back_the_handshake():
    """The handshake reply waits for the window, the ACK of the peer's
    handshake does not: feedback escapes the window."""
    srv = Connection("server", ConnectionConfig())
    srv._cc.cwnd = 100  # below one packet
    deliver(srv, Packet(1, [HandshakeFrame(0)]), 0)
    assert [p.kind for p in srv.flush(10)] == ["feedback"]
    assert srv.next_timer_us() is None


def test_flight_never_exceeds_cwnd_at_send_time():
    srv, stream = make_server(size=500_000)
    s = [p.packet_number for p in stream]
    now = 100_000
    for round_ in range(20):
        deliver(srv, Packet(3 + round_, [AckFrame.of((1, s[-1]))]), now)
        out = srv.flush(now)
        assert srv.bytes_in_flight <= srv.cwnd
        s = [p.packet_number for p in out if p.kind == "stream"]
        if not s:
            break
        now += 100_000


def fec_server_first_stream_packet_dropped(cfg):
    """A FEC server's response with the first stream packet withheld;
    returns (dropped stream packets, delivered packets)."""
    srv = Connection("server", cfg)
    srv.on_datagram(encode_packet(Packet(1, [HandshakeFrame(0)])), 0)
    srv.flush(0)
    srv.on_datagram(encode_packet(Packet(2, [StreamFrame(0, 0, True, b"GET 2000")])), 0)
    out = srv.flush(0)
    stream = [p for p in out if p.kind == "stream"]
    repairs = [p for p in out if p.kind == "repair"]
    assert stream and repairs
    return stream[0], stream[1:] + repairs


def fec_client(cfg, trace=None):
    """A client past the handshake of the 2,000-byte response that
    :func:`fec_server_first_stream_packet_dropped` serves."""
    cli = Connection("client", cfg, request_size=2000, trace=trace)
    cli.start(0)
    cli.flush(0)
    cli.on_datagram(encode_packet(Packet(1, [HandshakeFrame(1)])), 1000)
    cli.flush(1000)
    return cli


def test_silent_ack_strategy_recovers_without_signal():
    cfg = ConnectionConfig(
        fec=FecConfig.rlc(2, 1, 4), recovered_strategy=STRATEGY_SILENT_ACK
    )
    dropped, delivered = fec_server_first_stream_packet_dropped(cfg)
    cli = fec_client(cfg)
    for p in delivered:
        cli.on_datagram(p.data, 2000)
    assert cli.stats.recovered_packets == 1
    # silent ack: the recovered packet is acked but no Recovered frame sent
    out = cli.flush(2100)
    frames = [f for p in out for f in parse_packet(p.data).frames]
    assert not any(isinstance(f, RecoveredFrame) for f in frames)
    acks = [f for f in frames if isinstance(f, AckFrame)]
    assert acks and dropped.packet_number <= acks[0].largest


def test_recovered_frame_strategy_emits_signal_before_ack():
    cfg = ConnectionConfig(fec=FecConfig.rlc(2, 1, 4))
    dropped, delivered = fec_server_first_stream_packet_dropped(cfg)
    cli = fec_client(cfg)
    for p in delivered:
        cli.on_datagram(p.data, 2000)
    assert cli.stats.recovered_packets == 1
    out = cli.flush(2100)
    feedback = [p for p in out if p.kind == "feedback"]
    assert feedback
    frames = parse_packet(feedback[0].data).frames
    assert isinstance(frames[0], RecoveredFrame)
    assert isinstance(frames[1], AckFrame)
    assert frames[0].ranges == [(dropped.packet_number,) * 2]
    # the recovered packet is also acknowledged
    lo, hi = frames[1].ranges[-1][0], frames[1].largest
    assert lo <= dropped.packet_number <= hi


def test_no_ack_strategy_withholds_acknowledgement():
    cfg = ConnectionConfig(
        fec=FecConfig.rlc(2, 1, 4), recovered_strategy=STRATEGY_NO_ACK
    )
    dropped, delivered = fec_server_first_stream_packet_dropped(cfg)
    cli = fec_client(cfg)
    for p in delivered:
        cli.on_datagram(p.data, 2000)
    assert cli.stats.recovered_packets == 1
    out = cli.flush(2100)
    frames = [f for p in out for f in parse_packet(p.data).frames]
    assert not any(isinstance(f, RecoveredFrame) for f in frames)
    for ack in (f for f in frames if isinstance(f, AckFrame)):
        assert not any(lo <= dropped.packet_number <= hi for lo, hi in ack.ranges)


def recovered_reports(packets):
    """The packet numbers each outgoing Recovered frame lists."""
    return [
        [pn for lo, hi in f.ranges for pn in range(lo, hi + 1)]
        for p in packets
        for f in parse_packet(p.data).frames
        if isinstance(f, RecoveredFrame)
    ]


def test_recovered_reports_repeat_until_a_carrier_is_acked():
    cfg = ConnectionConfig(fec=FecConfig.rlc(2, 1, 4))
    dropped, delivered = fec_server_first_stream_packet_dropped(cfg)
    traces = []
    cli = fec_client(cfg, trace=lambda ev, pn, detail: traces.append((ev, pn, detail)))
    for p in delivered:
        cli.on_datagram(p.data, 2000)
    x = dropped.packet_number
    first = cli.flush(2100)
    assert recovered_reports(first) == [[x]]
    # every feedback packet repeats the report while no carrier is acked
    deliver(cli, Packet(1000, [HandshakeFrame(1)]), 3000)
    second = cli.flush(3000)
    assert recovered_reports(second) == [[x]]
    carriers = [first[0].packet_number, second[0].packet_number]
    # the probe resends the request above both carriers; an ACK of all
    # below them and of the probe leaves the carriers as holes that the
    # timer declares lost
    probe_at = cli.next_timer_us()
    cli.on_timer(probe_at)
    probe = cli.flush(probe_at)[0]
    assert probe.kind == "probe" and probe.packet_number > carriers[-1]
    ack_at = probe_at + 100_000
    bounds = (1, carriers[0] - 1, probe.packet_number, probe.packet_number)
    deliver(cli, Packet(2000, [AckFrame.of(bounds)]), ack_at)
    hole_at = cli.next_timer_us()
    assert hole_at == ack_at + 100_000 // HOLE_TIME_FRACTION
    cli.on_timer(hole_at)
    assert [tr for tr in traces if tr[0] == "lost"] == [
        ("lost", pn, "time_threshold") for pn in carriers
    ]
    # a lost carrier does not end the repetition
    deliver(cli, Packet(1001, [HandshakeFrame(1)]), hole_at + 1)
    third = cli.flush(hole_at + 1)
    assert recovered_reports(third) == [[x]]
    # an acked carrier does
    carrier = third[0].packet_number
    bounds = (1, carriers[0] - 1, probe.packet_number, carrier)
    deliver(cli, Packet(2001, [AckFrame.of(bounds)]), hole_at + 2)
    deliver(cli, Packet(1002, [HandshakeFrame(1)]), hole_at + 3)
    fourth = cli.flush(hole_at + 3)
    assert [p.kind for p in fourth] == ["feedback"]
    assert recovered_reports(fourth) == []


def test_recovery_sends_its_recovered_frame_at_once():
    cfg = ConnectionConfig(fec=FecConfig.xor(2, lanes=1))
    srv = Connection("server", cfg)
    srv.on_datagram(encode_packet(Packet(1, [HandshakeFrame(0)])), 0)
    srv.flush(0)
    srv.on_datagram(encode_packet(Packet(2, [StreamFrame(0, 0, True, b"GET 2000")])), 0)
    lost, second, repair = srv.flush(0)[1:4]
    assert [p.kind for p in (lost, second, repair)] == ["stream", "stream", "repair"]
    cli = fec_client(cfg)
    cli.on_datagram(second.data, 2000)  # out of order: acked at once
    assert [p.kind for p in cli.flush(2000)] == ["feedback"]
    # the repair arrives in order and is the only packet waiting, yet
    # its recovery is reported at once
    assert repair.packet_number == second.packet_number + 1
    cli.on_datagram(repair.data, 3000)
    assert cli.stats.recovered_packets == 1
    assert recovered_reports(cli.flush(3000)) == [[lost.packet_number]]


def test_client_completes_once():
    traces = []
    cli = Connection(
        "client",
        ConnectionConfig(),
        request_size=4,
        trace=lambda ev, pn, detail: traces.append((ev, pn, detail)),
    )
    cli.start(0)
    cli.flush(0)
    deliver(cli, Packet(1, [HandshakeFrame(1)]), 1000)
    cli.flush(1000)
    response = StreamFrame(0, 0, True, pattern_bytes(0, 4))
    deliver(cli, Packet(2, [response]), 2000)
    deliver(cli, Packet(3, [response]), 3000)  # a resent copy
    assert cli.complete_at_us == 2000
    assert [tr for tr in traces if tr[0] == "response_complete"] == [
        ("response_complete", None, "bytes=4")
    ]


@pytest.mark.parametrize("size", [10, 999, 1001])
def test_client_rejects_a_response_of_another_size(size):
    """A complete response shorter or longer than the request asked for is
    the peer's fault, never a download the harness records as done."""
    cli = acked_client(1000)
    with pytest.raises(ProtocolViolation):
        deliver(cli, Packet(3, [StreamFrame(0, 0, True, pattern_bytes(0, size))]), 5000)
    assert cli.complete_at_us is None


@pytest.mark.parametrize("fec", [None, FecConfig.rs(3, 2)], ids=["plain", "fec"])
def test_server_refuses_request_data_past_one_packet(fec):
    """``GET n`` for any 64-bit n fits one packet's stream data, so a
    request that runs past it is refused before the server buffers it."""
    srv = Connection("server", ConnectionConfig(fec=fec))
    deliver(srv, Packet(1, [HandshakeFrame(0)]), 0)
    budget = srv._stream_budget
    assert len(b"GET %d" % (2**64 - 1)) == 24 < budget
    deliver(srv, Packet(2, [StreamFrame(0, 0, False, b"G" * budget)]), 0)
    for pn, offset in enumerate([budget, 10 * budget], start=3):
        with pytest.raises(ProtocolViolation):
            deliver(srv, Packet(pn, [StreamFrame(0, offset, False, b"E" * 1000)]), 0)
    # the refused frames wrote nothing and recorded no range
    assert srv._request == b"G" * budget
    assert srv._recv_stream.ranges.bounds == [0, budget - 1]


@pytest.mark.parametrize("offset", [0, 500], ids=["at_cursor", "ahead_of_cursor"])
def test_client_rejects_corrupted_data_on_arrival(offset):
    """The client checks each frame against the response pattern as it
    arrives, also a frame that lands ahead of the cursor."""
    cli = acked_client(1000)
    data = bytearray(pattern_bytes(offset, 100))
    data[50] ^= 0xFF
    with pytest.raises(ProtocolViolation):
        deliver(cli, Packet(3, [StreamFrame(0, offset, False, bytes(data))]), 5000)
    assert cli.received_bytes == 0 and cli._recv_stream.ranges.bounds == []


def test_client_refuses_response_data_past_its_request_size():
    """Data ending past the requested size is refused before its range is
    recorded, so the client's ranges stay within ``request_size``."""
    cli = acked_client(1000)
    deliver(cli, Packet(3, [StreamFrame(0, 900, False, pattern_bytes(900, 100))]), 5000)
    with pytest.raises(ProtocolViolation):
        deliver(cli, Packet(4, [StreamFrame(0, 2000, False, pattern_bytes(2000, 1))]), 5000)
    assert cli._recv_stream.ranges.bounds == [900, 999]


def test_server_assembles_a_request_split_and_overlapped_over_frames():
    """``GET 5000`` in three overlapping frames, in every order: the
    server parses the request once the last gap fills, and only then."""
    pieces = [(0, b"GE"), (1, b"ET 5"), (3, b" 5000")]
    for order in permutations(pieces):
        srv = Connection("server", ConnectionConfig())
        deliver(srv, Packet(1, [HandshakeFrame(0)]), 0)
        for pn, (offset, data) in enumerate(order, start=2):
            assert srv._send_stream is None
            fin = offset + len(data) == 8
            deliver(srv, Packet(pn, [StreamFrame(0, offset, fin, data)]), 0)
        assert srv._send_stream.total == 5000
        assert any(p.kind == "stream" for p in srv.flush(0))


# Well-formed payloads are one symbol wide, so each case fails for its name.
MALFORMED_REPAIRS = {
    # name: (code, repair id, nss, nrs, payload)
    "rs_index_above_nrs": (
        FecConfig.rs(3, 2), block_repair_id(0, 5, 5), 2, 1, bytes(FEC_SYMBOL_SIZE)
    ),
    "xor_short_payload": (FecConfig.xor(2), block_repair_id(0, 0, 0), 2, 1, bytes(10)),
    "rs_short_payload": (FecConfig.rs(3, 2), block_repair_id(0, 0, 0), 2, 1, bytes(10)),
    "rlc_short_payload": (FecConfig.rlc(3, 2, 4), conv_repair_id(0, 7), 2, 1, bytes(10)),
    "rs_more_than_256_symbols": (
        FecConfig.rs(3, 2), block_repair_id(0, 0, 0), 2, 255, bytes(FEC_SYMBOL_SIZE)
    ),
    "rlc_no_sources": (
        FecConfig.rlc(3, 2, 4), conv_repair_id(0, 7), 0, 1, bytes(FEC_SYMBOL_SIZE)
    ),
    "rlc_window_wider_than_code": (
        FecConfig.rlc(3, 2, 4), conv_repair_id(0, 7), 5, 1, bytes(FEC_SYMBOL_SIZE)
    ),
    "xor_no_sources": (
        FecConfig.xor(2), block_repair_id(0, 0, 0), 0, 1, bytes(FEC_SYMBOL_SIZE)
    ),
    # a forged payload: the source it rebuilds has a length prefix past
    # the symbol
    "xor_rebuilds_a_corrupt_symbol": (
        FecConfig.xor(2), block_repair_id(0, 0, 0), 2, 1, b"\xff" * FEC_SYMBOL_SIZE
    ),
    "rs_rebuilds_a_corrupt_symbol": (
        FecConfig.rs(3, 2), block_repair_id(0, 0, 0), 2, 1, b"\xff" * FEC_SYMBOL_SIZE
    ),
    "rlc_rebuilds_a_corrupt_symbol": (
        FecConfig.rlc(3, 2, 4), conv_repair_id(0, 7), 2, 1, b"\xff" * FEC_SYMBOL_SIZE
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPAIRS))
def test_malformed_repair_frame_raises_malformed_frame(case):
    """A repair frame whose shape the announced code cannot have, or that
    rebuilds a source no packet could have been, is the peer's fault: a
    typed error, never a stray IndexError or ValueError from the decoder."""
    fec, repair_id, nss, nrs, payload = MALFORMED_REPAIRS[case]
    cli = fec_client(ConnectionConfig(fec=fec))
    source = StreamFrame(0, 0, False, pattern_bytes(0, 100))
    deliver(cli, Packet(2, [source], True, 0), 2000)  # source symbol 0 of block 0
    repair = FecFrame(True, 0, repair_id, nss, nrs, payload)
    with pytest.raises(MalformedFrame):
        deliver(cli, Packet(3, [repair]), 2100)


@pytest.mark.parametrize("code", ["rs", "rlc", "xor"])
def test_protected_packet_wider_than_a_symbol_raises_malformed_frame(code):
    """A protected packet of 1,199 bytes does not fit a symbol of
    ``FEC_SYMBOL_SIZE`` bytes: the peer's fault, not a ValueError from the
    coding layer."""
    fec = {"rs": FecConfig.rs(3, 2), "rlc": FecConfig.rlc(3, 2, 4), "xor": FecConfig.xor(2)}
    cli = fec_client(ConnectionConfig(fec=fec[code]))
    data = MAX_PACKET_SIZE - 1 - PROTECTED_HEADER_LEN - STREAM_FRAME_OVERHEAD
    source = StreamFrame(0, 0, False, pattern_bytes(0, data))
    packet = encode_packet(Packet(2, [source], True, 0))
    assert len(packet) == MAX_PACKET_SIZE - 1
    with pytest.raises(MalformedFrame):
        cli.on_datagram(packet, 2000)


def test_repair_reannouncing_its_block_shape_raises_malformed_frame():
    """An rs(5,3) block: source 0 and an honest repair 0 arrive, then repair
    1 claims the block has 2 sources.  Decoding with that shape would hand
    the stream a wrong packet as recovered; the block keeps the shape its
    first repair announced and the disagreeing repair is the peer's fault."""
    fec = FecConfig.rs(5, 3)
    cli = fec_client(ConnectionConfig(fec=fec))
    sender = SenderFec(fec.scheme, fec.make_params(), FEC_SYMBOL_SIZE)
    sources = []
    for i in range(3):
        raw = sender.next_source_id()
        stream = StreamFrame(0, 100 * i, False, pattern_bytes(100 * i, 100))
        data = encode_packet(Packet(2 + i, [stream], True, raw))
        sender.commit_source(raw, data)
        sources.append(data)
    honest, later = sender.pending
    assert (honest.nss, honest.nrs) == (later.nss, later.nrs) == (3, 2)
    cli.on_datagram(sources[0], 2000)
    first = FecFrame(True, 0, honest.repair_id, 3, 2, honest.payload)
    deliver(cli, Packet(10, [first]), 2100)
    forged = FecFrame(True, 0, later.repair_id, 2, 2, later.payload)
    with pytest.raises(MalformedFrame):
        deliver(cli, Packet(11, [forged]), 2200)
    assert cli.stats.recovered_packets == 0
    assert cli.received_bytes == 100


# ---------------------------------------------------------------------------
# Random peer input


def _range_list(kind, top):
    return st.sets(st.integers(0, top), min_size=1, max_size=6).map(
        lambda values: kind.of(_flat(_model_ranges(values)))
    )


REQUEST_SIZE = 3000


def _response_frame(offset, n):
    n = min(n, REQUEST_SIZE - offset)
    return StreamFrame(0, offset, offset + n == REQUEST_SIZE, pattern_bytes(offset, n))


# what a peer may send: response or request bytes, the handshake, and ACK
# and Recovered frames of the first packet the other end sends
HONEST_FRAMES = {
    "client": st.builds(_response_frame, st.integers(0, REQUEST_SIZE), st.integers(0, 200)),
    "server": st.builds(
        lambda n, cut, fin: StreamFrame(0, cut, fin, (b"GET %d" % n)[cut:]),
        st.integers(0, 10**6),
        st.integers(0, 4),
        st.booleans(),
    ),
}
HOSTILE_FRAME = st.one_of(
    st.builds(
        StreamFrame,
        st.integers(0, 3),
        st.integers(0, 4000),
        st.booleans(),
        st.binary(max_size=40),
    ),
    st.builds(HandshakeFrame, st.integers(0, 255)),
    _range_list(AckFrame, 60),
    _range_list(RecoveredFrame, 60),
    st.builds(
        FecFrame,
        st.booleans(),
        st.integers(0, 2),
        st.one_of(
            st.builds(
                block_repair_id, st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)
            ),
            st.builds(conv_repair_id, st.integers(0, 8), st.integers(0, 3)),
            st.integers(0, 2**64 - 1),
        ),
        st.integers(0, 40),
        st.integers(0, 40),
        st.one_of(
            st.binary(max_size=40),
            st.sampled_from([bytes(FEC_SYMBOL_SIZE), b"\xff" * FEC_SYMBOL_SIZE]),
        ),
    ),
)
# one packet in ten is cut short or has one byte flipped: (how, where, xor)
MUTATION = st.tuples(
    st.sampled_from([None] * 18 + ["cut", "flip"]), st.integers(0, 2000), st.integers(1, 255)
)


def peer_packets(role):
    """Packets to ``role``: numbers that repeat and reorder, one or two
    frames each, mostly honest ones, in a protected packet or not."""
    honest = weighted(
        (HONEST_FRAMES[role], 6),
        (st.builds(HandshakeFrame, st.integers(0, 1)), 1),
        (_range_list(AckFrame, 1), 2),
        (_range_list(RecoveredFrame, 1), 1),
    )
    frame = weighted((honest, 9), (HOSTILE_FRAME, 1))
    source_id = st.one_of(st.none(), st.integers(0, 40), st.integers(0, 2**32 - 1))
    return st.tuples(
        st.integers(0, 60), st.lists(frame, min_size=1, max_size=2), source_id, MUTATION
    )


def counted_connection(role, code):
    """A fresh connection that counts the stream frames it takes in
    ``conn.taken``, recovered ones included."""
    conn = Connection(role, ConnectionConfig(fec=VARIANTS[code]), request_size=REQUEST_SIZE)
    conn.taken = 0
    take = conn._on_stream_frame

    def counted(frame, now):
        conn.taken += 1
        take(frame, now)

    conn._on_stream_frame = counted
    conn.start(0)
    if role == "server":  # it has sent packet 1, the handshake reply
        conn.on_datagram(encode_packet(Packet(0, [HandshakeFrame(0)])), 0)
    conn.flush(0)
    return conn


def check_stream_bounds(conn):
    """At most one range per stream frame taken, none past the requested
    size or, on the server, past one packet."""
    bounds = conn._recv_stream.ranges.bounds
    assert len(bounds) <= 2 * conn.taken
    limit = REQUEST_SIZE if conn.role == "client" else conn._stream_budget
    assert not bounds or bounds[-1] < limit


# No shrinking: a failure reports the example as drawn, since shrinking
# forty packets of weighted frames takes minutes.
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.sampled_from(sorted(VARIANTS)), st.sampled_from(["client", "server"]), st.data())
def test_random_peer_input_raises_only_typed_errors(code, role, data):
    """Random frames of every type, in packets that may be cut short or
    have a byte flipped, sent to either end under each code: only
    ``ProtocolViolation`` or a ``FecFrameworkError`` escapes, and the
    receive stream stays within :func:`check_stream_bounds`.  A connection
    that raised is done; the rest of the packets go to a fresh one."""
    packets = data.draw(st.lists(peer_packets(role), min_size=10, max_size=40))
    conn = None
    for pn, frames, source_id, mutation in packets:
        if conn is None:
            conn, now = counted_connection(role, code), 0
        now += 20_000
        wire = encode_packet(Packet(pn, frames, source_id is not None, source_id))
        how, where, xor = mutation
        if how == "cut":
            wire = wire[: where % len(wire)]
        elif how == "flip":
            i = where % len(wire)
            wire = wire[:i] + bytes([wire[i] ^ xor]) + wire[i + 1 :]
        try:
            for _ in range(10):  # the timers due before this packet
                due = conn.next_timer_us()
                if due is None or due > now:
                    break
                conn.on_timer(due)
                conn.flush(due)
            conn.on_datagram(wire, now)
            conn.flush(now)
        except (ProtocolViolation, FecFrameworkError):
            check_stream_bounds(conn)
            conn = None
    if conn is not None:
        check_stream_bounds(conn)
