"""An invariant monitor for whole transfers.

A :class:`TransferMonitor` is the ``watch`` callable of
``experiments.run_transfer`` or ``experiments.fairness_run``: either calls
it as ``monitor(sim, network, connections)`` once the connections are
wired, before the first event.  It then watches every connection through
its trace callback, chained after any tracer already attached, and its
``flush``, and asserts, as the transfer runs, the sender invariants that
the flight, the retransmission queue and the congestion window rest on.
Further whole-transfer invariants belong in the same class.
"""

from __future__ import annotations

import math

from fecsim.frames import MAX_PACKET_SIZE, HandshakeFrame, StreamFrame, parse_packet
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
      ``bytes_in_flight + MAX_PACKET_SIZE <= cwnd`` before it.

    ``packets`` counts the packets checked, keyed by connection.
    """

    def __init__(self):
        self.packets: dict[Connection, int] = {}

    def __call__(self, sim, network, connections) -> None:
        for conn in connections:
            self.watch(conn)

    def watch(self, conn: Connection) -> None:
        self.packets[conn] = 0
        traced = conn._trace_fn
        flush = conn.flush

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

        conn._trace_fn = trace
        conn.flush = watched_flush

    def check_queue(self, conn: Connection) -> None:
        queued = list(conn._retransmit)
        assert queued == sorted(queued), f"{conn.role} queue out of order: {queued}"

    def on_event(self, conn: Connection, event: str, pn) -> None:
        self.check_queue(conn)
        if event == "lost":
            # traced once retired: every packet still in flight is newer
            oldest_left = next(iter(conn._sent), math.inf)
            assert pn < oldest_left, f"{conn.role} lost {pn} before {oldest_left}"

    def on_packet(self, conn: Connection, pkt) -> None:
        self.packets[conn] += 1
        resendable = [f for f in parse_packet(pkt.data).frames if type(f) in RESENDABLE]
        assert len(resendable) <= 1, f"{conn.role} packet {pkt.packet_number}: {resendable}"
        rec = conn._sent.get(pkt.packet_number)
        if rec is not None:
            assert rec.frame == (resendable[0] if resendable else None)
