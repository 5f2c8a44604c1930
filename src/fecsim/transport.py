"""A miniature QUIC-like reliable transport with pluggable packet-level
forward erasure correction.

One :class:`Connection` is one endpoint of a single request/response
exchange: the client performs a one-round-trip handshake, sends a GET
for some number of bytes, and the server streams a deterministic byte
pattern back.  The connection is a pure state machine driven by the
emulator: it consumes datagrams and timer expirations, and produces
datagrams via :meth:`flush`, each one :class:`OutPacket` that the emulator
carries to the peer as it is.  All times are integer microseconds.
Stream bytes are handled once, as their frame arrives: the client checks
them against :func:`pattern_bytes` and refuses any response longer or
shorter than it requested, the server copies its one-packet request into a
buffer, and :class:`RecvStream` records only which byte ranges arrived.

Reliability comes from packet-threshold loss detection, two timers and New
Reno congestion control: ``_hole_deadline`` owns the hole timer (srtt/8),
``_probe_deadline`` the tail loss probe (2*srtt), and ``on_timer`` acts on
those due.  When FEC is enabled, every packet carrying stream data is
registered as a source symbol, repair symbols ride in their own
unprotected packets, and a receiver that repairs a loss can acknowledge
the packet and report the repair in a Recovered frame so the sender still
hears the congestion signal without retransmitting.

One method picks each outbound packet, in this order: a pending probe,
the handshake reply, a due ACK (after any Recovered frame), then repairs,
lost frames and new data.  Probes and feedback escape the congestion
window, so a fully lost flight cannot deadlock and a shut window never
holds back an ACK; everything else waits for it.  Once the stream has
drained and no lost frame waits, the partial coding block is closed.

Every repair symbol fits one repair frame, so each repair is one packet.
The connection sends repairs straight from ``SenderFec.pending``, oldest
first, each as the one frame :func:`~fecsim.framework.chunk_repair` makes
of it.  A repair packet of :data:`MAX_PACKET_SIZE` bytes holds a frame of
:data:`REPAIR_CHUNK_BUDGET` bytes of payload; the symbol width
:data:`FEC_SYMBOL_SIZE` is that, rounded down to a multiple of 8.  A
protected packet therefore holds at most :data:`FEC_PACKET_CAP` bytes, the
most that :func:`~fecsim.schemes.symbol_size_for` maps into that width,
which leaves :data:`FEC_STREAM_BUDGET` bytes of stream data.  Packets of a
connection without FEC keep the full :data:`STREAM_BUDGET`.

A sent packet leaves the flight one way, ``Connection._retire``, for one
of four reasons: it is acknowledged; it is declared lost, which queues
its frame, keyed by packet number, and signals congestion; the peer
reports it recovered, which signals congestion but resends nothing; or
the probe abandons it when nothing worth probing is left.  The flight is
the sender's one record of a packet, keyed by its number; a hole (in
flight, below the largest acknowledged) is a :class:`SentRecord` with
``hole_since`` set.  Holes lead the flight and a loss retires its oldest
packet, so lost frames wait in ascending packet-number order.

The receiver keeps the packet numbers it received in a
:class:`~fecsim.frames.RangeSet` and acknowledges the newest
:data:`ACK_RANGE_CAP` ranges.  It sends an ACK for every second
ack-eliciting packet (RFC 9000 section 13.2.2), at once for a duplicate, a
recovered packet, or a packet that is out of order, carries a handshake
frame or completes the stream, and otherwise :data:`MAX_ACK_DELAY_US` after
the first packet it has not acknowledged (``_ack_due``).  The sender takes
an RTT sample when an ACK raises the largest acknowledged packet number and
newly acknowledges a packet in flight, from the newest such packet (RFC
9002 section 5.1; the largest may be a feedback packet, never in flight).
:mod:`fecsim.frames` owns the range-list layout (RFC 9000 section 19.3) and
its one encoder, ``RangeSet.frame``, with the set's cache of packed older
values.  The sender reads ACK and Recovered frames with one walk, newest
range first, that stops below its oldest packet in flight
(:func:`listed_in_flight`).  That layout cannot express ranges out of
order, overlapping or touching, nor a largest acknowledged above its
ranges; an ACK or Recovered frame that names an unsent packet raises
:class:`ProtocolViolation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Callable, Optional

from . import framework
from .frames import (
    AckFrame,
    HandshakeFrame,
    MAX_PACKET_SIZE,
    PACKET_HEADER_LEN,
    PROTECTED_HEADER_LEN,
    Packet,
    RangeSet,
    RecoveredFrame,
    STREAM_FRAME_OVERHEAD,
    StreamFrame,
    encode_packet,
    parse_packet,
)
from .framework import FecFrame, ReceiverFec, SenderFec
from .schemes import (
    SCHEME_REED_SOLOMON,
    SCHEME_RLC,
    SCHEME_XOR,
    BlockCodeParams,
    ConvolutionalParams,
    symbol_size_for,
)

PACKET_REORDER_THRESHOLD = 3
HOLE_TIME_FRACTION = 8  # a hole older than srtt/8 declares the packet lost
TLP_SRTT_MULTIPLIER = 2
INITIAL_RTT_US = 100_000
INITIAL_CWND_PACKETS = 10
MIN_CWND_PACKETS = 2
ACK_RANGE_CAP = 32
MAX_ACK_DELAY_US = 25_000  # RFC 9000 section 18.2 default
# stream data per packet: a protected packet holding one stream frame
STREAM_BUDGET = MAX_PACKET_SIZE - PROTECTED_HEADER_LEN - STREAM_FRAME_OVERHEAD
# repair chunk per packet: an unprotected packet holding one repair frame
REPAIR_CHUNK_BUDGET = (
    MAX_PACKET_SIZE - PACKET_HEADER_LEN - framework.FEC_FRAME_HEADER_LEN
)
# FEC symbol width: the widest multiple of 8 that one repair frame carries
FEC_SYMBOL_SIZE = REPAIR_CHUNK_BUDGET // 8 * 8
# the largest protected packet whose symbol is that wide (a symbol adds
# 8 bytes of framing before rounding up), and the stream data it holds
FEC_PACKET_CAP = FEC_SYMBOL_SIZE - 8
FEC_STREAM_BUDGET = FEC_PACKET_CAP - PROTECTED_HEADER_LEN - STREAM_FRAME_OVERHEAD
assert (
    symbol_size_for(FEC_PACKET_CAP) == FEC_SYMBOL_SIZE
    < symbol_size_for(FEC_PACKET_CAP + 1)
)

STRATEGY_RECOVERED_FRAME = "recovered_frame"
STRATEGY_SILENT_ACK = "silent_ack"
STRATEGY_NO_ACK = "no_ack"
RECOVERED_STRATEGIES = (
    STRATEGY_RECOVERED_FRAME,
    STRATEGY_SILENT_ACK,
    STRATEGY_NO_ACK,
)


class ProtocolViolation(Exception):
    """The peer sent something the protocol forbids: references to packets
    this endpoint never sent, a malformed request or one longer than a
    packet, a response longer or shorter than requested, or corrupted
    stream bytes."""


# Whole periods of the response pattern, at least one more than a packet holds.
_PATTERN = bytes(range(256)) * (MAX_PACKET_SIZE // 256 + 2)


def pattern_bytes(offset: int, n: int) -> bytes:
    """The deterministic response payload: byte i is i mod 256."""
    start = offset & 0xFF
    if start + n <= len(_PATTERN):  # always, for one packet's worth
        return _PATTERN[start : start + n]
    return (_PATTERN * ((start + n) // len(_PATTERN) + 1))[start : start + n]


# ---------------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class FecConfig:
    """Code selection for one connection."""

    scheme: int
    k: int
    repairs: int
    window: int = 0  # RLC coding window
    lanes: int = 1  # XOR interleaving lanes

    @classmethod
    def rs(cls, n: int, k: int) -> "FecConfig":
        return cls(SCHEME_REED_SOLOMON, k, n - k)

    @classmethod
    def rlc(cls, n: int, k: int, c: int) -> "FecConfig":
        return cls(SCHEME_RLC, k, n - k, window=c)

    @classmethod
    def xor(cls, k: int, lanes: int = 4) -> "FecConfig":
        return cls(SCHEME_XOR, k, 1, lanes=lanes)

    def make_params(self):
        if self.scheme == SCHEME_RLC:
            return ConvolutionalParams(self.k + self.repairs, self.k, self.window)
        return BlockCodeParams(self.k + self.repairs, self.k)

    def label(self) -> str:
        if self.scheme == SCHEME_RLC:
            return f"rlc({self.k + self.repairs},{self.k},{self.window})"
        if self.scheme == SCHEME_XOR:
            return f"xor(k={self.k},lanes={self.lanes})"
        return f"rs({self.k + self.repairs},{self.k})"


@dataclass(frozen=True)
class ConnectionConfig:
    fec: Optional[FecConfig] = None
    recovered_strategy: str = STRATEGY_RECOVERED_FRAME

    def __post_init__(self) -> None:
        if self.recovered_strategy not in RECOVERED_STRATEGIES:
            raise ValueError(f"unknown strategy {self.recovered_strategy!r}")


# ---------------------------------------------------------------------------
# Small sender-side state holders

class RttEstimator:
    """Exponentially smoothed RTT (gain 1/8), starting at
    :data:`INITIAL_RTT_US`; the first sample replaces it outright."""

    def __init__(self):
        self._srtt = float(INITIAL_RTT_US)
        self.has_sample = False

    def add_sample(self, rtt_us: int) -> None:
        rtt_us = max(1, rtt_us)
        if not self.has_sample:
            self.has_sample = True
            self._srtt = float(rtt_us)
        else:
            self._srtt = 0.875 * self._srtt + 0.125 * rtt_us

    @property
    def srtt_us(self) -> int:
        return int(self._srtt)


class NewReno:
    """New Reno congestion control over packets of :data:`MAX_PACKET_SIZE`.

    The window starts at :data:`INITIAL_CWND_PACKETS` packets and never
    falls below :data:`MIN_CWND_PACKETS`.  Slow start adds the acked bytes
    to it; congestion avoidance adds a packet * acked / cwnd.  A loss (or a
    peer-recovered signal) halves it at most once per round trip: packets
    sent before the last reduction do not trigger another one and do not
    grow the window while recovery lasts.
    """

    def __init__(self):
        self.min_window = float(MIN_CWND_PACKETS * MAX_PACKET_SIZE)
        self.cwnd = float(INITIAL_CWND_PACKETS * MAX_PACKET_SIZE)
        self.ssthresh = math.inf
        self._recovery_start: float = -1.0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_acked(self, sent_time_us: int, nbytes: int) -> None:
        if sent_time_us <= self._recovery_start:
            return
        if self.in_slow_start:
            self.cwnd += nbytes
        else:
            self.cwnd += MAX_PACKET_SIZE * nbytes / self.cwnd

    def on_loss(self, sent_time_us: int, now_us: int) -> bool:
        """Returns True when this loss starts a new reduction round."""
        if sent_time_us <= self._recovery_start:
            return False
        self._recovery_start = now_us
        self.ssthresh = max(self.cwnd / 2.0, self.min_window)
        self.cwnd = self.ssthresh
        return True


@dataclass(slots=True)
class SentRecord:
    send_time_us: int
    size: int
    frame: object = None  # the stream or handshake frame to resend if lost
    # packet numbers this feedback packet reported in a Recovered frame
    recovered: frozenset = frozenset()
    hole_since: Optional[int] = None  # when an ACK first listed a larger pn


class SendStream:
    """Outgoing byte stream backed by a data function (no materialised
    buffer, so multi-megabyte transfers stay cheap)."""

    def __init__(self, total: int, data_fn: Callable[[int, int], bytes]):
        self.total = total
        self._data_fn = data_fn
        self.next_offset = 0
        self.fin_sent = False

    def next_frame(self, max_data: int) -> StreamFrame:
        n = min(max_data, self.total - self.next_offset)
        offset = self.next_offset
        self.next_offset += n
        fin = self.next_offset >= self.total
        self.fin_sent = self.fin_sent or fin
        return StreamFrame(0, offset, fin, self._data_fn(offset, n))


class RecvStream:
    """The byte ranges received on a stream and its final size, not the
    bytes: the connection checks or keeps those as each frame arrives.
    ``cursor`` counts the bytes received from offset 0 without a gap."""

    def __init__(self):
        self.ranges = RangeSet()
        self.final_size: Optional[int] = None

    @property
    def cursor(self) -> int:
        b = self.ranges.bounds
        return b[1] + 1 if b and b[0] == 0 else 0

    @property
    def complete(self) -> bool:
        return self.final_size is not None and self.cursor >= self.final_size

    def insert(self, offset: int, n: int, fin: bool) -> None:
        """Record ``n`` bytes at ``offset``, the last ones if ``fin``."""
        end = offset + n
        # A known final size never changes and no data lies past it (RFC
        # 9000 section 4.5), so a complete stream stays complete.
        known = self.final_size
        if known is not None and (end > known or fin and end != known):
            raise ProtocolViolation(
                f"stream data ending at {end} conflicts with final size {known}"
            )
        if fin and known is None:
            if self.ranges.bounds and end <= self.ranges.bounds[-1]:
                raise ProtocolViolation(f"final size {end} is below received data")
            self.final_size = end
        if n:
            self.ranges.add_range(offset, end - 1)


@dataclass
class Stats:
    packets_received: int = 0
    retransmitted_packets: int = 0
    probe_packets: int = 0
    lost_packets: int = 0
    recovered_packets: int = 0  # repaired by this endpoint's decoder
    peer_recovered_packets: int = 0  # own packets the peer reported repairing
    cwnd_reductions: int = 0


@dataclass(slots=True)
class OutPacket:
    """A wire-ready packet: one object from :meth:`Connection.flush` to the
    peer (``netem.Datagram``).  ``netem.Host.pump`` sets ``src``, its name,
    and ``dst``, the receiving host."""

    data: bytes
    packet_number: int
    kind: str  # hs | feedback | repair | stream | probe
    src: str = ""
    dst: object = None


# ---------------------------------------------------------------------------

class Connection:
    """One endpoint of the request/response exchange."""

    def __init__(
        self,
        role: str,
        config: ConnectionConfig,
        *,
        request_size: Optional[int] = None,
        trace: Optional[Callable[[str, Optional[int], str], None]] = None,
    ):
        if role not in ("client", "server"):
            raise ValueError(f"role must be client or server, got {role!r}")
        if role == "client" and not request_size:
            raise ValueError("a client connection needs a request size")
        self.role = role
        self.request_size = request_size
        self.stats = Stats()
        self._trace_fn = trace

        self._strategy = config.recovered_strategy
        self._sender_fec: Optional[SenderFec] = None
        self._receiver_fec: Optional[ReceiverFec] = None
        self._stream_budget = STREAM_BUDGET
        if config.fec is not None:
            fec = config.fec
            self._sender_fec = SenderFec(
                fec.scheme, fec.make_params(), FEC_SYMBOL_SIZE
            )
            self._sender_fec.configure_lanes(fec.lanes)
            self._receiver_fec = ReceiverFec(
                fec.scheme, FEC_SYMBOL_SIZE, window=max(1, fec.window)
            )
            self._stream_budget = FEC_STREAM_BUDGET

        # send side
        self._next_pn = 1
        self._sent: dict[int, SentRecord] = {}
        self._bytes_in_flight = 0
        self._hs_due: Optional[int] = None  # the handshake round to send
        self._retransmit: dict[int, object] = {}  # lost pn -> frame, ascending
        self._probe: object = None  # the frame of a probe due at the next flush
        self._send_stream: Optional[SendStream] = None
        self._cc = NewReno()
        self._rtt = RttEstimator()
        self._tlp_anchor: Optional[int] = None
        self._largest_acked = 0

        # receive side
        self._received_pns = RangeSet()
        self._recovered_pending: set[int] = set()
        # when the next ACK is due: at once, or MAX_ACK_DELAY_US after the
        # one ack-eliciting packet still waiting for it
        self._ack_due: Optional[int] = None
        self._recv_stream = RecvStream()
        # the server's request bytes; the client checks each frame instead
        self._request = bytearray(self._stream_budget) if role == "server" else None

        self._handshake_done = False
        self.complete_at_us: Optional[int] = None

    # -- public inspection -------------------------------------------------

    @property
    def cwnd(self) -> float:
        return self._cc.cwnd

    @property
    def rtt(self) -> RttEstimator:
        return self._rtt

    @property
    def bytes_in_flight(self) -> int:
        return self._bytes_in_flight

    @property
    def received_bytes(self) -> int:
        """Stream bytes received from offset 0 without a gap."""
        return self._recv_stream.cursor

    def _trace(self, event: str, pn: Optional[int], detail: str = "", *args) -> None:
        """Report to the tracer; ``detail % args`` is formatted only when
        one is attached."""
        if self._trace_fn is not None:
            self._trace_fn(event, pn, detail % args if args else detail)

    # -- lifecycle -----------------------------------------------------------

    def start(self, now: int) -> None:
        """Client: begin the handshake.  Server: wait."""
        if self.role == "client":
            self._hs_due = 0
            self._trace("connect", None, "")

    # -- inbound --------------------------------------------------------------

    def on_datagram(self, data: bytes, now: int) -> None:
        self.stats.packets_received += 1
        pkt = parse_packet(data)
        pn = pkt.packet_number
        received = self._received_pns
        if not received.add(pn):
            self._ack_due = now  # acknowledge again, ignore the payload
            return
        # in order: the newest range ends at pn and holds pn - 1
        in_order = received.bounds[-1] == pn and received.bounds[-2] < pn
        if self._on_frames(pn, pkt.frames, now):
            if self._ack_due is None and in_order:
                self._ack_due = now + MAX_ACK_DELAY_US
            else:
                self._ack_due = now  # the second one waiting, or out of order
        if pkt.fec_protected and self._receiver_fec is not None:
            self._trace("src_symbol", pn, "id=%d", pkt.source_id)
            self._on_recovered(
                self._receiver_fec.on_source_symbol(pkt.source_id, data), now
            )

    def _on_frames(self, pn: int, frames: list, now: int) -> bool:
        """Handle the frames of a received or recovered packet; returns
        whether any of them is ack-eliciting."""
        ack_eliciting = False
        for frame in frames:
            kind = type(frame)
            if kind is AckFrame:
                self._on_ack_frame(frame, now)
                continue
            ack_eliciting = True
            if kind is StreamFrame:
                self._on_stream_frame(frame, now)
            elif kind is HandshakeFrame:
                self._ack_due = now
                self._on_handshake_frame(frame, now)
            elif kind is FecFrame and self._receiver_fec is not None:
                self._trace("repair_symbol", pn, "id=%#x", frame.repair_id)
                self._on_recovered(self._receiver_fec.on_fec_frame(frame), now)
            elif kind is RecoveredFrame:
                self._on_recovered_frame(frame, now)
        return ack_eliciting

    def _on_recovered(self, recovered: list[tuple[int, bytes]], now: int) -> None:
        """Take in the packets the decoder rebuilt.  ``ReceiverFec`` reports
        each one at most once and never one that arrived: its decoders
        solve only the sources they do not hold."""
        for _src_id, packet_bytes in recovered:
            pkt = parse_packet(packet_bytes)
            pn = pkt.packet_number
            if pn in self._received_pns:
                continue  # a gap merged by ack pruning: never report it
            self.stats.recovered_packets += 1
            self._trace("recovered", pn, "")
            if self._strategy != STRATEGY_NO_ACK:
                self._received_pns.add(pn)
                self._ack_due = now  # it fills a hole: out of order
            if self._strategy == STRATEGY_RECOVERED_FRAME:
                self._recovered_pending.add(pn)
            self._on_frames(pn, pkt.frames, now)

    def _on_stream_frame(self, frame: StreamFrame, now: int) -> None:
        """Keep (server) or check (client) the frame's bytes, then record them."""
        stream = self._recv_stream
        offset, data = frame.offset, frame.data
        end = offset + len(data)
        if self.role == "server":
            if end > self._stream_budget:
                raise ProtocolViolation(f"request data ends at {end}, past one packet")
            self._request[offset:end] = data
        elif end > self.request_size or frame.fin and end != self.request_size:
            raise ProtocolViolation(f"response data to {end}, {self.request_size} requested")
        elif data != pattern_bytes(offset, len(data)):
            raise ProtocolViolation(f"stream corruption at offset {offset}")
        was_complete = stream.complete
        stream.insert(offset, len(data), frame.fin)
        if stream.complete and not was_complete:
            self._ack_due = now
            if self.role == "server":
                self._start_response(now)
            else:
                self.complete_at_us = now
                self._trace("response_complete", None, f"bytes={stream.cursor}")

    def _start_response(self, now: int) -> None:
        size = pattern_request_size(bytes(self._request[: self._recv_stream.final_size]))
        self._send_stream = SendStream(size, pattern_bytes)
        self._trace("request_received", None, f"size={size}")

    def _on_handshake_frame(self, frame: HandshakeFrame, now: int) -> None:
        server = self.role == "server"
        if self._handshake_done or frame.round != (0 if server else 1):
            return
        self._handshake_done = True
        self._trace("hs_complete", None, "")
        if server:
            self._hs_due = 1
        else:
            request = b"GET %d" % self.request_size
            self._send_stream = SendStream(
                len(request), lambda offset, n: request[offset : offset + n]
            )

    # -- acknowledgements and loss ---------------------------------------------

    def _on_ack_frame(self, ack: AckFrame, now: int) -> None:
        largest = ack.largest
        if largest >= self._next_pn:
            raise ProtocolViolation(f"peer acked unsent packet {largest}")
        newly = listed_in_flight(self._sent, ack)
        if largest > self._largest_acked:
            self._largest_acked = largest
            if newly:
                self._rtt.add_sample(now - self._sent[newly[-1]].send_time_us)
        if newly:
            for pn in newly:
                rec = self._retire(pn)
                self._cc.on_acked(rec.send_time_us, rec.size)
                if rec.recovered:  # the peer heard these Recovered reports
                    self._recovered_pending -= rec.recovered
            self._tlp_anchor = now
        # the packets left below the largest acked; listed first, since
        # declaring one lost retires it from the flight
        for pn in list(takewhile(largest.__gt__, self._sent)):
            if largest - pn >= PACKET_REORDER_THRESHOLD:
                self._declare_lost(pn, now, "reorder_threshold")
            elif self._sent[pn].hole_since is None:
                self._sent[pn].hole_since = now
        self._check_time_losses(now)

    def _on_recovered_frame(self, frame: RecoveredFrame, now: int) -> None:
        if frame.largest >= self._next_pn:
            raise ProtocolViolation(f"peer recovered unsent packet {frame.largest}")
        # the peer has the data: drop any retransmission still queued for
        # these packets, even if they were already declared lost
        for pn in listed_in_flight(self._retransmit, frame):
            del self._retransmit[pn]
        # packets already acked, lost or recovered are not in flight: ignored
        for pn in listed_in_flight(self._sent, frame):
            rec = self._retire(pn)
            self.stats.peer_recovered_packets += 1
            self._trace("peer_recovered", pn, "")
            # no retransmission needed, but the loss still happened
            self._on_loss(pn, rec.send_time_us, now)

    def _declare_lost(self, pn: int, now: int, reason: str) -> None:
        rec = self._retire(pn)
        self.stats.lost_packets += 1
        self._trace("lost", pn, reason)
        if rec.frame is not None:
            self._retransmit[pn] = rec.frame
        self._on_loss(pn, rec.send_time_us, now)

    def _retire(self, pn: int) -> SentRecord:
        """Take ``pn`` out of the flight: the one way a packet leaves it,
        whether acked, lost, recovered by the peer or abandoned."""
        rec = self._sent.pop(pn)
        self._bytes_in_flight -= rec.size
        return rec

    def _on_loss(self, pn: int, sent_time_us: int, now: int) -> None:
        """The congestion signal of a lost or peer-recovered packet."""
        if self._cc.on_loss(sent_time_us, now):
            self.stats.cwnd_reductions += 1
            self._trace("cwnd_reduce", pn, "cwnd=%.0f", self._cc.cwnd)

    def _check_time_losses(self, now: int) -> None:
        while (due := self._hole_deadline()) is not None and due <= now:
            self._declare_lost(next(iter(self._sent)), now, "time_threshold")

    # -- timers -----------------------------------------------------------------

    def _hole_deadline(self) -> Optional[int]:
        """When the first packet in flight, if a hole, is declared lost.  Holes
        lead the flight and open in order, so it is the first to expire."""
        since = next(iter(self._sent.values())).hole_since if self._sent else None
        if since is None:
            return None
        return since + max(1, self._rtt.srtt_us // HOLE_TIME_FRACTION)

    def _probe_deadline(self) -> Optional[int]:
        if not self._sent or self._tlp_anchor is None:
            return None
        return self._tlp_anchor + TLP_SRTT_MULTIPLIER * self._rtt.srtt_us

    def next_timer_us(self) -> Optional[int]:
        deadline = self._ack_due
        for due in (self._hole_deadline(), self._probe_deadline()):
            if due is not None and (deadline is None or due < deadline):
                deadline = due
        return deadline

    def on_timer(self, now: int) -> None:
        self._check_time_losses(now)
        if (due := self._probe_deadline()) is not None and due <= now:
            self._fire_probe(now)

    def _fire_probe(self, now: int) -> None:
        newest = next(
            (pn for pn, rec in reversed(self._sent.items()) if rec.frame is not None), None
        )
        if newest is not None:
            self._probe = self._sent[newest].frame
            self.stats.probe_packets += 1
            self._trace("tlp_probe", newest, "resend")
        elif self._may_send_new_data():
            self._probe = self._send_stream.next_frame(self._stream_budget)
            self.stats.probe_packets += 1
            self._trace("tlp_probe", None, "new_data")
        else:
            # Nothing left worth probing: the stragglers are repair or
            # feedback packets whose acks were lost after the data flow
            # finished.  Drop them without a congestion signal.
            for pn in list(self._sent):
                self._retire(pn)
                self._trace("abandoned", pn, "")
        self._tlp_anchor = now

    # -- outbound -----------------------------------------------------------------

    def flush(self, now: int) -> list[OutPacket]:
        out = []
        while (pkt := self._next_packet(now)) is not None:
            out.append(pkt)
        return out

    def _next_packet(self, now: int) -> Optional[OutPacket]:
        """The next packet to send, in the order the module docstring gives."""
        if self._probe is not None:
            frame, self._probe = self._probe, None
            return self._build(now, [frame], "probe", frame, retransmission=True)
        cwnd_ok = self._bytes_in_flight + MAX_PACKET_SIZE <= self._cc.cwnd
        if self._hs_due is not None and cwnd_ok:
            frame, self._hs_due = HandshakeFrame(self._hs_due), None
            return self._build(now, [frame], "hs", frame)
        if self._ack_due is not None and self._ack_due <= now:
            self._ack_due = None
            frames: list = []
            carried = None
            if self._recovered_pending:
                # the Recovered frame precedes the ACK so the sender sees
                # the repair before the acknowledgement of those packets;
                # the pns repeat until a packet carrying them is acked
                carried = frozenset(self._recovered_pending)
                ranges = RangeSet()
                for pn in sorted(carried):
                    ranges.add(pn)
                frames.append(ranges.frame(RecoveredFrame, len(ranges)))
            frames.append(self._ack_frame())
            pkt = self._build(now, frames, "feedback")
            if carried:
                self._sent[pkt.packet_number].recovered = carried
            return pkt
        fec = self._sender_fec
        stream = self._send_stream
        if fec is not None and stream is not None and stream.fin_sent and not self._retransmit:
            fec.flush()  # the stream has drained: close the partial block
        if not cwnd_ok:
            return None
        if fec is not None and fec.pending:
            # one symbol, one frame: the unpack checks the symbol sizing
            (frame,) = framework.chunk_repair(fec.pending.pop(0), REPAIR_CHUNK_BUDGET)
            return self._build(now, [frame], "repair")
        if self._retransmit:
            frame = self._retransmit.pop(next(iter(self._retransmit)))
            kind = "stream" if type(frame) is StreamFrame else "hs"
            return self._build(now, [frame], kind, frame, retransmission=True)
        if self._may_send_new_data():
            frame = stream.next_frame(self._stream_budget)
            return self._build(now, [frame], "stream", frame)
        return None

    def _may_send_new_data(self) -> bool:
        """Whether new stream data may go out, the congestion window aside."""
        stream = self._send_stream
        return stream is not None and not stream.fin_sent and self._handshake_done

    def _ack_frame(self) -> AckFrame:
        # Old gaps are final on a FIFO path: the sender has long since
        # resolved those packets, so fragmentation history only bloats
        # every subsequent ack.  Keep the newest ranges only.
        received = self._received_pns
        received.prune(2 * ACK_RANGE_CAP)
        return received.frame(AckFrame, ACK_RANGE_CAP)

    def _build(
        self, now: int, frames: list, kind: str, resend=None, retransmission=False
    ) -> OutPacket:
        """Number, encode and record one packet of ``frames``; ``resend``
        is its one stream or handshake frame, kept to resend if lost."""
        protect = type(resend) is StreamFrame and self._sender_fec is not None
        pn = self._next_pn
        self._next_pn += 1
        source_id = None
        if protect:
            source_id = self._sender_fec.next_source_id()
        data = encode_packet(Packet(pn, frames, protect, source_id))
        cap = FEC_PACKET_CAP if protect else MAX_PACKET_SIZE
        if len(data) > cap:
            raise AssertionError(f"built a {len(data)}-byte packet (max {cap})")
        if protect:
            self._sender_fec.commit_source(source_id, data)
        if type(frames[0]) is not AckFrame:  # only a bare ACK elicits none
            self._sent[pn] = SentRecord(now, len(data), resend)
            self._bytes_in_flight += len(data)
            self._tlp_anchor = now
        if retransmission:
            self.stats.retransmitted_packets += 1
            self._trace("retransmit", pn, kind)
        if self._trace_fn is not None:  # per packet: no call when untraced
            self._trace_fn("send", pn, kind)
        return OutPacket(data, pn, kind)


def listed_in_flight(sent: dict, frame: AckFrame | RecoveredFrame) -> list[int]:
    """The packet numbers in ``sent`` that ``frame`` lists, ascending: the
    sender's one reader of range lists, through which ACK and Recovered
    frames both retire the flight and Recovered frames prune the queued
    retransmissions.

    ``sent`` may be any dict whose keys ascend, as the flight's do in send
    order and the retransmission queue's do in loss order, so its first
    and last keys bound the flight.  The walk takes the ranges newest
    first, skips those above the newest packet in flight and stops at the
    first below the oldest.  Each range is clipped to the flight and
    probed once per packet number, unless it is still wider than the
    flight (an old range merged by :meth:`RangeSet.prune`); then the
    flight is filtered instead.  A range costs at most the smaller of its
    width and the flight.
    """
    if not sent:
        return []
    first = next(iter(sent))
    last = next(reversed(sent))
    flight = len(sent)
    out: list[int] = []  # descending until the end
    for lo, hi in frame.newest_first():
        if hi < first:
            break
        if lo > last:
            continue
        if lo < first:
            lo = first
        if hi > last:
            hi = last
        if hi - lo < flight:
            out.extend(filter(sent.__contains__, range(hi, lo - 1, -1)))
        else:
            out.extend(reversed([pn for pn in takewhile(hi.__ge__, sent) if pn >= lo]))
    out.reverse()
    return out


def pattern_request_size(request: bytes) -> int:
    """Parse ``GET <n>`` into the response size."""
    digits = request[4:]
    if not request.startswith(b"GET ") or not digits.isdigit():
        raise ProtocolViolation(f"malformed request {request[:16]!r}")
    return int(digits)
