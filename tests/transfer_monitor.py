"""An invariant monitor for whole transfers.

:func:`monitored_transfer` runs one client/server download on the
emulator, as ``experiments.run_transfer`` does, with a
:class:`TransferMonitor` watching both connections through their trace
callbacks and their ``flush``.  The monitor asserts, as the transfer runs,
the sender invariants that the flight and the retransmission queue rest
on.  Further whole-transfer invariants belong in the same class.
"""

from __future__ import annotations

import math

from fecsim.frames import HandshakeFrame, StreamFrame, parse_packet
from fecsim.netem import Host, Network, Simulator
from fecsim.transport import Connection, ConnectionConfig

RESENDABLE = (StreamFrame, HandshakeFrame)


class TransferMonitor:
    """Checks the connections it watches at every trace event and every
    packet they send:

    - every loss declaration retires the oldest packet in flight;
    - the keys of the retransmission queue ascend;
    - a packet carries at most one resendable frame, and its flight
      record holds exactly that frame.
    """

    def __init__(self):
        self.connections: dict[str, Connection] = {}

    def connection_tracer(self, role: str):
        """The ``trace`` callback for the connection of ``role``, which
        :meth:`watch` must register before it runs."""

        def trace(event: str, pn, detail: str) -> None:
            self.on_event(self.connections[role], event, pn)

        return trace

    def watch(self, conn: Connection) -> None:
        self.connections[conn.role] = conn
        flush = conn.flush

        def watched_flush(now: int):
            self.check_queue(conn)
            out = flush(now)
            for pkt in out:
                self.on_packet(conn, pkt)
            return out

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
        resendable = [f for f in parse_packet(pkt.data).frames if type(f) in RESENDABLE]
        assert len(resendable) <= 1, f"{conn.role} packet {pkt.packet_number}: {resendable}"
        rec = conn._sent.get(pkt.packet_number)
        if rec is not None:
            assert rec.frame == (resendable[0] if resendable else None)


def monitored_transfer(
    bandwidth_bps: int,
    one_way_delay_us: int,
    queue_packets: int,
    loss,
    config: ConnectionConfig,
    size_bytes: int,
    max_events: int,
) -> Connection:
    """Run one download of ``size_bytes`` to idle under a
    :class:`TransferMonitor`; returns the client."""
    sim = Simulator(max_events=max_events)
    network = Network(sim, bandwidth_bps, one_way_delay_us, queue_packets, loss=loss)
    monitor = TransferMonitor()
    client = Connection(
        "client", config, request_size=size_bytes, trace=monitor.connection_tracer("client")
    )
    server = Connection("server", config, trace=monitor.connection_tracer("server"))
    for conn in (client, server):
        monitor.watch(conn)
    client_host = Host(sim, client, "client")
    network.attach_pair(client_host, Host(sim, server, "server"))
    client_host.start()
    sim.run()
    return client
