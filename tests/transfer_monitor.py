"""An invariant monitor for whole transfers.

A :class:`TransferMonitor` is the ``watch`` callable of
``experiments.run_transfer`` or ``experiments.fairness_run``: either calls
it as ``monitor(sim, network, connections)`` once the connections are
wired, before the first event.  It then watches every connection through
its trace callback, chained after any tracer already attached, its
``flush``, its ``on_datagram`` and its congestion signal ``_on_loss``, and
asserts, as the transfer runs, the sender invariants that the flight, the
retransmission queue, the congestion window and the Recovered-frame
contract rest on.  Further whole-transfer invariants belong in the same
class.
"""

from __future__ import annotations

import math

from fecsim.frames import (
    MAX_PACKET_SIZE,
    HandshakeFrame,
    RecoveredFrame,
    StreamFrame,
    parse_packet,
)
from fecsim.transport import Connection

RESENDABLE = (StreamFrame, HandshakeFrame)
# the packet kinds that leave only when the congestion window has room for
# one more full packet; probes and feedback are exempt
WINDOWED = ("stream", "hs", "repair")


class TransferMonitor:
    """Checks the connections it watches at every trace event and every
    packet they send:

    - every loss declaration retires the oldest packet in flight;
    - the keys of the retransmission queue ascend;
    - a packet carries at most one resendable frame, and its flight
      record holds exactly that frame;
    - a stream, handshake or repair packet leaves only when
      ``bytes_in_flight + MAX_PACKET_SIZE <= cwnd`` before it;
    - a packet number gives at most one congestion signal, whether it was
      declared lost or reported recovered by the peer;
    - once Recovered frames have reported every packet that holds a
      resendable frame, in flight or in the retransmission queue, no
      later packet carries that frame.

    ``packets`` counts the packets checked and ``recovered_frames`` the
    Recovered frames sent, each keyed by connection.
    """

    def __init__(self):
        self.packets: dict[Connection, int] = {}
        self.recovered_frames: dict[Connection, int] = {}
        # per connection, the resendable frames of the packets the peer
        # reported recovered, by id (the frames are kept, so ids stay unique)
        self._reported: dict[Connection, dict[int, object]] = {}

    def __call__(self, sim, network, connections) -> None:
        for conn in connections:
            self.watch(conn)

    def watch(self, conn: Connection) -> None:
        self.packets[conn] = 0
        self.recovered_frames[conn] = 0
        self._reported[conn] = {}
        traced = conn._trace_fn
        flush, on_datagram, on_loss = conn.flush, conn.on_datagram, conn._on_loss
        signalled = set()

        def trace(event: str, pn, detail: str) -> None:
            if traced is not None:
                traced(event, pn, detail)
            self.on_event(conn, event, pn)

        def watched_flush(now: int):
            self.check_queue(conn)
            in_flight, cwnd = conn.bytes_in_flight, conn.cwnd
            out = flush(now)
            for pkt in out:
                if pkt.kind in WINDOWED:
                    assert in_flight + MAX_PACKET_SIZE <= cwnd, (
                        conn.role, pkt.kind, in_flight, cwnd
                    )
                rec = conn._sent.get(pkt.packet_number)
                in_flight += rec.size if rec is not None else 0
                self.on_packet(conn, pkt)
            return out

        def watched_on_datagram(data: bytes, now: int) -> None:
            self.on_datagram(conn, data)
            on_datagram(data, now)

        def watched_on_loss(pn: int, sent_time_us: int, now: int) -> None:
            assert pn not in signalled, f"{conn.role} signalled congestion twice for {pn}"
            signalled.add(pn)
            on_loss(pn, sent_time_us, now)

        conn._trace_fn = trace
        conn.flush = watched_flush
        conn.on_datagram = watched_on_datagram
        conn._on_loss = watched_on_loss

    def check_queue(self, conn: Connection) -> None:
        queued = list(conn._retransmit)
        assert queued == sorted(queued), f"{conn.role} queue out of order: {queued}"

    def on_event(self, conn: Connection, event: str, pn) -> None:
        self.check_queue(conn)
        if event == "lost":
            # traced once retired: every packet still in flight is newer
            oldest_left = next(iter(conn._sent), math.inf)
            assert pn < oldest_left, f"{conn.role} lost {pn} before {oldest_left}"

    def on_datagram(self, conn: Connection, data: bytes) -> None:
        """Before ``conn`` reads a new packet: keep each resendable frame
        that only packets its Recovered frames report hold, in flight or
        queued.  A probe copies its frame into a second packet, which a
        report of the first does not cover."""
        pkt = parse_packet(data)
        if pkt.packet_number in conn._received_pns:
            return  # a duplicate: the connection ignores its frames
        for frame in pkt.frames:
            if type(frame) is not RecoveredFrame:
                continue
            ranges = frame.ranges
            holders: dict[int, tuple] = {}  # frame id -> (frame, pns holding it)
            held = [(pn, rec.frame) for pn, rec in conn._sent.items()]
            for pn, resend in held + list(conn._retransmit.items()):
                if resend is not None:
                    holders.setdefault(id(resend), (resend, []))[1].append(pn)
            for key, (resend, pns) in holders.items():
                if all(any(lo <= pn <= hi for lo, hi in ranges) for pn in pns):
                    self._reported[conn][key] = resend

    def on_packet(self, conn: Connection, pkt) -> None:
        self.packets[conn] += 1
        frames = parse_packet(pkt.data).frames
        self.recovered_frames[conn] += sum(type(f) is RecoveredFrame for f in frames)
        resendable = [f for f in frames if type(f) in RESENDABLE]
        assert len(resendable) <= 1, f"{conn.role} packet {pkt.packet_number}: {resendable}"
        rec = conn._sent.get(pkt.packet_number)
        if rec is not None:
            assert rec.frame == (resendable[0] if resendable else None)
            assert id(rec.frame) not in self._reported[conn], (
                f"{conn.role} packet {pkt.packet_number} resends a recovered packet's frame"
            )
