"""Deterministic discrete-event network emulation.

The clock is integer microseconds.  A :class:`Link` models one direction
of a path: a drop-tail queue in front of a serialising transmitter,
followed by a fixed propagation delay, each departure fixed at enqueue.
Random loss is applied when a packet finishes serialising, so dropped
bytes still count towards the link's wire-byte total.

Both directions of a path share a single loss model instance; its draws
are consumed in global event order, which keeps runs bit-reproducible
for a given seed no matter which side transmits first.

A packet is one :class:`Datagram` (the transport's ``OutPacket``) from
``Connection.flush`` to the peer: :meth:`Host.pump` sets its ``src`` and
``dst`` hosts and the link delivers it to ``dgram.dst.on_datagram``.
Every event runs ``fn(arg)``, and each host keeps one timer event armed.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .rng import SplitMix64
from .transport import Connection, OutPacket as Datagram

DEFAULT_QUEUE_PACKETS = 50
DEFAULT_MAX_EVENTS = 10_000_000


class SimulationRunaway(RuntimeError):
    """The event budget was exhausted; the scenario never went idle."""


def serialization_us(nbytes: int, bandwidth_bps: int) -> int:
    """Time to clock ``nbytes`` onto a ``bandwidth_bps`` wire, rounded to
    the nearest microsecond."""
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be positive")
    return (nbytes * 8 * 1_000_000 + bandwidth_bps // 2) // bandwidth_bps


class Simulator:
    """Min-heap event loop; ties break in scheduling order.

    An event is ``(time, seq, fn, arg)`` and runs ``fn(arg)``; links and
    hosts pass their datagram, timer deadline or host, not a closure.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        self.now_us = 0
        self.max_events = max_events
        self.events_run = 0
        self._heap: list = []
        self._seq = 0

    def schedule_at(self, time_us: int, fn: Callable, arg) -> None:
        if time_us < self.now_us:
            time_us = self.now_us
        heappush(self._heap, (time_us, self._seq, fn, arg))
        self._seq += 1

    @property
    def idle(self) -> bool:
        return not self._heap

    def run(self, stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Process events until the heap drains or ``stop_when()`` turns
        true."""
        heap = self._heap
        limit = self.max_events
        while heap:
            if stop_when is not None and stop_when():
                return
            time_us, _, fn, arg = heappop(heap)
            self.events_run += 1
            if self.events_run > limit:
                raise SimulationRunaway(f"exceeded {limit} events at t={time_us}us")
            self.now_us = time_us
            fn(arg)


# ---------------------------------------------------------------------------
# Loss models

GOOD = "good"
BAD = "bad"


class UniformLoss:
    """Independent loss with probability ``p`` (one draw per decision)."""

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p
        self._rng = SplitMix64(seed)
        self.state = "uniform"

    def decide(self, dgram=None) -> bool:
        return self._rng.next_float() >= self.p

    def sequence(self, count: int) -> np.ndarray:
        """Vectorised equivalent of ``count`` decide() calls."""
        return self._rng.next_floats(count) >= self.p

    @property
    def stationary_loss_rate(self) -> float:
        return self.p


class GilbertElliottLoss:
    """Two-state bursty loss.

    ``p`` is the good-to-bad transition probability, ``r`` bad-to-good;
    ``k`` and ``h`` are the delivery probabilities in the good and bad
    state.  Each decision consumes exactly two draws: the state
    transition first, then the delivery draw.
    """

    def __init__(
        self, p: float, r: float, k: float = 1.0, h: float = 0.0, seed: int = 0
    ):
        for name, v in (("p", p), ("r", r), ("k", k), ("h", h)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if p + r <= 0.0:
            raise ValueError("p + r must be positive")
        self.p, self.r, self.k, self.h = p, r, k, h
        self._rng = SplitMix64(seed)
        self.state = GOOD

    def decide(self, dgram=None) -> bool:
        x = self._rng.next_float()
        if self.state == GOOD:
            if x < self.p:
                self.state = BAD
        elif x < self.r:
            self.state = GOOD
        y = self._rng.next_float()
        return y < (self.k if self.state == GOOD else self.h)

    def sequence(self, count: int) -> np.ndarray:
        """Vectorised equivalent of ``count`` decide() calls.

        The draws are generated in one batch; the state recurrence is the
        only sequential part.
        """
        draws = self._rng.next_floats(2 * count)
        to_bad = (draws[0::2] < self.p).tolist()
        to_good = (draws[0::2] < self.r).tolist()
        delivery = draws[1::2]
        in_bad = np.empty(count, dtype=bool)
        bad = self.state == BAD
        for i in range(count):
            if bad:
                if to_good[i]:
                    bad = False
            elif to_bad[i]:
                bad = True
            in_bad[i] = bad
        self.state = BAD if bad else GOOD
        return np.where(in_bad, delivery < self.h, delivery < self.k)

    @property
    def stationary_loss_rate(self) -> float:
        p, r, k, h = self.p, self.r, self.k, self.h
        return (r * (1.0 - k) + p * (1.0 - h)) / (p + r)


class ScriptedLoss:
    """Replays a fixed deliver/drop script (test plumbing)."""

    def __init__(self, decisions):
        self._decisions = deque(decisions)
        self.state = "scripted"

    def decide(self, dgram=None) -> bool:
        if not self._decisions:
            return True  # script exhausted: deliver everything else
        return bool(self._decisions.popleft())


class PredicateLoss:
    """Drops exactly the datagrams a predicate selects (test plumbing)."""

    def __init__(self, drop_fn: Callable[["Datagram"], bool]):
        self._drop_fn = drop_fn
        self.state = "predicate"

    def decide(self, dgram) -> bool:
        return not self._drop_fn(dgram)


# ---------------------------------------------------------------------------
# Links and hosts

@dataclass
class LinkStats:
    wire_bytes: int = 0
    wire_packets: int = 0
    random_drops: int = 0
    queue_drops: int = 0


class Link:
    """One direction: drop-tail queue -> serialiser -> delay -> the
    datagram's ``dst`` host.  FIFO fixes each departure at enqueue, so the
    queue is the ``_finish`` events in the heap; the link only counts them."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: int,
        delay_us: int,
        loss=None,
        queue_packets: int = DEFAULT_QUEUE_PACKETS,
        trace: Optional[Callable[[str, Datagram], None]] = None,
    ):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_us = delay_us
        self.loss = loss
        self.queue_packets = queue_packets
        self.stats = LinkStats()
        self._trace = trace
        self._unfinished = 0  # one serialising plus those queued behind it
        self._free_at = 0  # when the last unfinished datagram finishes
        self._serialization_us: dict[int, int] = {}  # packet size -> time

    def send(self, dgram: Datagram) -> None:
        if self._unfinished > self.queue_packets:
            self.stats.queue_drops += 1
            if self._trace:
                self._trace("drop_queue", dgram)
            return
        size = len(dgram.data)
        wire_us = self._serialization_us.get(size)
        if wire_us is None:
            wire_us = self._serialization_us[size] = serialization_us(size, self.bandwidth_bps)
        start = self._free_at if self._unfinished else self.sim.now_us
        self._free_at = start + wire_us
        self._unfinished += 1
        self.sim.schedule_at(self._free_at, self._finish, dgram)

    def _finish(self, dgram: Datagram) -> None:
        # the packet occupied the wire whether or not it now gets lost
        self._unfinished -= 1
        stats = self.stats
        stats.wire_bytes += len(dgram.data)
        stats.wire_packets += 1
        if self.loss is None or self.loss.decide(dgram):
            self.sim.schedule_at(self.sim.now_us + self.delay_us, dgram.dst.on_datagram, dgram)
        else:
            self.stats.random_drops += 1
            if self._trace:
                self._trace("drop_random", dgram)


class Host:
    """Binds one connection to the event loop: pumps outbound packets, each
    stamped with this host's name and the peer host, and keeps one timer
    event, carrying its deadline, armed no later than the connection's: a
    deadline that moved later is re-armed when the armed event fires."""

    def __init__(self, sim: Simulator, conn: Connection, name: str):
        self.sim = sim
        self.conn = conn
        self.name = name
        # (outbound link, peer host), set by Network.attach_pair
        self.route: Optional[tuple[Link, Host]] = None
        self._timer_at: Optional[int] = None  # deadline of the armed event

    def start(self) -> None:
        self.conn.start(self.sim.now_us)
        self.pump()

    def on_datagram(self, dgram: Datagram) -> None:
        self.conn.on_datagram(dgram.data, self.sim.now_us)
        self.pump()

    def pump(self) -> None:
        link, peer = self.route
        for dgram in self.conn.flush(self.sim.now_us):
            dgram.src = self.name
            dgram.dst = peer
            link.send(dgram)
        deadline = self.conn.next_timer_us()
        if deadline is not None and (self._timer_at is None or deadline < self._timer_at):
            self._timer_at = deadline
            self.sim.schedule_at(deadline, self._on_timer, deadline)

    def _on_timer(self, at: int) -> None:
        if at != self._timer_at:
            return  # an earlier deadline armed another event
        self._timer_at = None
        deadline = self.conn.next_timer_us()
        if deadline is not None and deadline <= self.sim.now_us:
            self.conn.on_timer(self.sim.now_us)
        self.pump()


class Network:
    """Two shared directional links ("fwd" carries every client-side
    host's traffic, "rev" the servers'), so multiple connections contend
    for the same bottleneck.  The path is symmetric: both links have the
    same bandwidth, one-way delay and drop-tail queue capacity."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: int,
        one_way_delay_us: int,
        queue_packets: int = DEFAULT_QUEUE_PACKETS,
        loss=None,
        trace: Optional[Callable[[str, Datagram], None]] = None,
    ):
        self.links = {
            side: Link(
                sim,
                bandwidth_bps,
                one_way_delay_us,
                loss=loss,
                queue_packets=queue_packets,
                trace=trace,
            )
            for side in ("fwd", "rev")
        }

    def attach_pair(self, client_host: Host, server_host: Host) -> None:
        for host, peer, side in (
            (client_host, server_host, "fwd"),
            (server_host, client_host, "rev"),
        ):
            host.route = (self.links[side], peer)

    @property
    def wire_bytes(self) -> int:
        return sum(link.stats.wire_bytes for link in self.links.values())

    @property
    def random_drops(self) -> int:
        return sum(link.stats.random_drops for link in self.links.values())

    @property
    def queue_drops(self) -> int:
        return sum(link.stats.queue_drops for link in self.links.values())


class TraceLog:
    """Collects ``time_ms event packet_number detail`` lines."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.lines: list[str] = []

    def emit(self, label: str, event: str, pn: Optional[int], detail: str = "") -> None:
        pn_text = "-" if pn is None else str(pn)
        line = f"{self.sim.now_us / 1000:.3f} {label}.{event} {pn_text} {detail}"
        self.lines.append(line.rstrip())

    def connection_tracer(self, label: str):
        def tracer(event: str, pn: Optional[int], detail: str) -> None:
            self.emit(label, event, pn, detail)

        return tracer

    def link_tracer(self):
        def tracer(event: str, dgram: Datagram) -> None:
            self.emit(
                "net",
                event,
                dgram.packet_number,
                f"{dgram.src}->{dgram.dst.name} {dgram.kind} {len(dgram.data)}B",
            )

        return tracer

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"
