"""Event loop, links, and loss models."""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fecsim.netem import (
    BAD,
    GOOD,
    Datagram,
    GilbertElliottLoss,
    Host,
    Link,
    LinkStats,
    PredicateLoss,
    ScriptedLoss,
    SimulationRunaway,
    Simulator,
    TraceLog,
    UniformLoss,
    serialization_us,
)
from fecsim.rng import SplitMix64


class Sink:
    """Stands in for the receiving host: records (arrival time, datagram)."""

    def __init__(self, sim, name="b"):
        self.sim = sim
        self.name = name
        self.arrivals = []

    def on_datagram(self, dgram):
        self.arrivals.append((self.sim.now_us, dgram))


def dgram(size, pn=1, kind="stream", src="a", dst=None):
    return Datagram(bytes(size), pn, kind, src, dst)


# ---------------------------------------------------------------------------
# Serialization timing

def test_serialization_anchor_low_bandwidth():
    # 1200 bytes at 0.468 Mbps: 9.6e9 / 468000 = 20512.8..us, nearest 20513
    assert serialization_us(1200, 468_000) == 20513


def test_serialization_round_numbers():
    assert serialization_us(1200, 10_000_000) == 960
    assert serialization_us(125, 1_000_000) == 1000
    assert serialization_us(0, 1_000_000) == 0


def test_serialization_rounds_to_nearest():
    # 1 byte at 468 kbps is 17.094us on the wire
    assert serialization_us(1, 468_000) == 17
    # 999 bytes at 8 Mbps: exactly 999us
    assert serialization_us(999, 8_000_000) == 999
    with pytest.raises(ValueError):
        serialization_us(100, 0)


# ---------------------------------------------------------------------------
# Simulator

def test_simulator_orders_by_time_then_schedule_order():
    sim = Simulator()
    seen = []
    sim.schedule_at(50, seen.append, "b")
    sim.schedule_at(10, seen.append, "a")
    sim.schedule_at(50, seen.append, "c")  # same time: FIFO
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now_us == 50
    assert sim.idle


def test_simulator_keeps_fifo_order_of_same_time_events():
    sim = Simulator()
    seen = []
    for arg in "abcd":
        sim.schedule_at(10, seen.append, arg)
    sim.schedule_at(5, seen.append, None)  # None is an argument too
    sim.run()
    assert seen == [None, "a", "b", "c", "d"]
    assert sim.events_run == 5


def test_simulator_clamps_past_deadlines_to_now():
    sim = Simulator()
    times = []
    sim.schedule_at(
        100, lambda _: sim.schedule_at(30, lambda _: times.append(sim.now_us), None), None
    )
    sim.run()
    assert times == [100]  # never travels back in time


def test_simulator_stop_when():
    sim = Simulator()
    seen = []
    for t in (10, 20, 30):
        sim.schedule_at(t, seen.append, t)
    sim.run(stop_when=lambda: len(seen) >= 2)
    assert seen == [10, 20]  # the 30us event stays queued
    assert not sim.idle


def test_simulator_event_budget():
    sim = Simulator(max_events=10)

    def again(_):
        sim.schedule_at(sim.now_us + 1, again, None)

    again(None)
    with pytest.raises(SimulationRunaway):
        sim.run()


# ---------------------------------------------------------------------------
# Loss models

def test_uniform_edge_probabilities():
    never = UniformLoss(0.0, seed=1)
    assert all(never.decide() for _ in range(1000))
    always = UniformLoss(1.0, seed=1)
    assert not any(always.decide() for _ in range(1000))
    with pytest.raises(ValueError):
        UniformLoss(1.5)


def test_uniform_empirical_rate_and_reproducibility():
    n = 100_000
    drops = (~UniformLoss(0.06, seed=42).sequence(n)).sum()
    assert abs(drops / n - 0.06) < 0.003
    a = UniformLoss(0.3, seed=7).sequence(5000)
    b = UniformLoss(0.3, seed=7).sequence(5000)
    assert (a == b).all()
    c = UniformLoss(0.3, seed=8).sequence(5000)
    assert (a != c).any()


def test_uniform_decide_matches_sequence():
    scalar = UniformLoss(0.25, seed=9)
    vector = UniformLoss(0.25, seed=9)
    assert [scalar.decide() for _ in range(777)] == vector.sequence(777).tolist()


def ge_oracle(p, r, k, h, seed, count):
    """Reference Gilbert-Elliott walk: per decision, one transition draw
    then one delivery draw against the new state's delivery rate."""
    rng = SplitMix64(seed)
    bad = False
    out = []
    for _ in range(count):
        x = rng.next_float()
        if bad:
            if x < r:
                bad = False
        elif x < p:
            bad = True
        y = rng.next_float()
        out.append(y < (h if bad else k))
    return out


def test_ge_decide_matches_oracle_walk():
    rnd = random.Random(101)
    for trial in range(10):
        p = rnd.uniform(0.01, 0.08)
        r = rnd.uniform(0.08, 0.5)
        k = rnd.uniform(0.98, 1.0)
        h = rnd.uniform(0.0, 0.1)
        model = GilbertElliottLoss(p, r, k, h, seed=trial)
        want = ge_oracle(p, r, k, h, trial, 2000)
        assert [model.decide() for _ in range(2000)] == want


def test_ge_sequence_matches_decide():
    model_a = GilbertElliottLoss(0.05, 0.2, 0.99, 0.05, seed=3)
    model_b = GilbertElliottLoss(0.05, 0.2, 0.99, 0.05, seed=3)
    seq = model_a.sequence(3000)
    assert seq.tolist() == [model_b.decide() for _ in range(3000)]
    assert model_a.state == model_b.state  # walks end in the same state


def test_ge_stationary_rate_formula():
    model = GilbertElliottLoss(0.01, 0.08, 0.98, 0.0)
    assert model.stationary_loss_rate == pytest.approx(0.1288888, abs=1e-6)
    # empirical agreement on a long walk
    drops = (~model.sequence(1_000_000)).sum()
    assert abs(drops / 1_000_000 - model.stationary_loss_rate) < 0.002


def test_ge_good_state_with_perfect_delivery_never_drops():
    model = GilbertElliottLoss(0.0, 0.5, 1.0, 0.0, seed=5)
    assert model.sequence(10_000).all()
    assert model.state == GOOD


def test_ge_parameter_validation():
    with pytest.raises(ValueError):
        GilbertElliottLoss(1.2, 0.5)
    with pytest.raises(ValueError):
        GilbertElliottLoss(0.0, 0.0)
    with pytest.raises(ValueError):
        GilbertElliottLoss(0.1, 0.1, h=-0.2)


def test_ge_state_transitions_are_observable():
    # force an immediate good->bad flip and stay there
    model = GilbertElliottLoss(1.0, 0.0, 1.0, 0.0, seed=1)
    assert model.state == GOOD
    assert model.decide() is False  # first decision lands in bad, h=0 drops
    assert model.state == BAD


def test_scripted_and_predicate_loss():
    scripted = ScriptedLoss([True, False, True])
    assert [scripted.decide() for _ in range(5)] == [True, False, True, True, True]
    pred = PredicateLoss(lambda d: d.kind == "repair")
    assert pred.decide(dgram(10, kind="stream"))
    assert not pred.decide(dgram(10, kind="repair"))


# ---------------------------------------------------------------------------
# Links

def collecting_link(sim, bandwidth=1_000_000, delay=5_000, **kwargs):
    return Link(sim, bandwidth, delay, **kwargs), Sink(sim)


def test_link_serialization_then_delay():
    sim = Simulator()
    link, sink = collecting_link(sim)  # 1 Mbps, 5ms
    link.send(dgram(125, pn=1, dst=sink))  # 1000us on the wire
    link.send(dgram(250, pn=2, dst=sink))  # queued behind it, 2000us
    sim.run()
    assert [(t, d.packet_number) for t, d in sink.arrivals] == [(6_000, 1), (8_000, 2)]
    assert link.stats.wire_bytes == 375
    assert link.stats.wire_packets == 2


def test_link_preserves_fifo_order():
    sim = Simulator()
    link, sink = collecting_link(sim)
    for pn in range(1, 31):
        link.send(dgram(100, pn=pn, dst=sink))
    sim.run()
    assert [d.packet_number for _, d in sink.arrivals] == list(range(1, 31))


def test_link_drop_tail_queue():
    sim = Simulator()
    link, sink = collecting_link(sim, queue_packets=2)
    for pn in range(1, 6):
        link.send(dgram(100, pn=pn, dst=sink))  # 1 serialising + 2 queued + 2 dropped
    sim.run()
    assert [d.packet_number for _, d in sink.arrivals] == [1, 2, 3]
    assert link.stats.queue_drops == 2


def test_link_random_loss_occupies_wire():
    sim = Simulator()
    link, sink = collecting_link(sim, loss=ScriptedLoss([True, False, True]))
    for pn in (1, 2, 3):
        link.send(dgram(100, pn=pn, dst=sink))
    sim.run()
    assert [d.packet_number for _, d in sink.arrivals] == [1, 3]
    assert link.stats.random_drops == 1
    assert link.stats.wire_packets == 3  # the dropped packet still burned time
    assert link.stats.wire_bytes == 300


def test_link_conservation():
    sim = Simulator()
    offered = 200
    link, sink = collecting_link(
        sim, loss=UniformLoss(0.3, seed=11), queue_packets=3
    )
    for pn in range(offered):
        link.send(dgram(400, pn=pn, dst=sink))
    sim.run()
    st = link.stats
    assert len(sink.arrivals) + st.random_drops == st.wire_packets
    assert st.wire_packets + st.queue_drops == offered


def test_shared_loss_model_consumes_draws_in_event_order():
    # one loss instance across both directions: the first packet to finish
    # serialising consumes the first scripted decision
    sim = Simulator()
    loss = ScriptedLoss([False, True])
    fast, fast_sink = collecting_link(sim, bandwidth=8_000_000, loss=loss)
    slow, slow_sink = collecting_link(sim, bandwidth=1_000_000, loss=loss)
    slow.send(dgram(100, pn=1, dst=slow_sink))  # finishes at 800us
    fast.send(dgram(100, pn=2, dst=fast_sink))  # finishes at 100us: eats the drop
    sim.run()
    assert fast_sink.arrivals == []
    assert [d.packet_number for _, d in slow_sink.arrivals] == [1]


class DequeLink:
    """Reference model of :class:`Link`: a deque of waiting datagrams and a
    busy flag, where each datagram's ``_finish`` event is scheduled only
    when it starts serialising (``_begin``), at the previous one's finish."""

    def __init__(self, sim, bandwidth_bps, delay_us, loss=None, queue_packets=50, trace=None):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_us = delay_us
        self.loss = loss
        self.queue_packets = queue_packets
        self.stats = LinkStats()
        self._trace = trace
        self._queue = deque()
        self._busy = False

    def send(self, dgram):
        if self._busy:
            if len(self._queue) >= self.queue_packets:
                self.stats.queue_drops += 1
                if self._trace:
                    self._trace("drop_queue", dgram)
                return
            self._queue.append(dgram)
        else:
            self._begin(dgram)

    def _begin(self, dgram):
        self._busy = True
        wire_us = serialization_us(len(dgram.data), self.bandwidth_bps)
        self.sim.schedule_at(self.sim.now_us + wire_us, self._finish, dgram)

    def _finish(self, dgram):
        self.stats.wire_bytes += len(dgram.data)
        self.stats.wire_packets += 1
        if self.loss is None or self.loss.decide(dgram):
            self.sim.schedule_at(self.sim.now_us + self.delay_us, dgram.dst.on_datagram, dgram)
        else:
            self.stats.random_drops += 1
            if self._trace:
                self._trace("drop_random", dgram)
        if self._queue:
            self._begin(self._queue.popleft())
        else:
            self._busy = False


def drive_link(link_cls, sends, queue_packets, script):
    """Offer ``sends`` ((instant, size) pairs) to one link at 8 Mbps, one
    byte per microsecond on the wire, and return what came out."""
    sim = Simulator()
    sink = Sink(sim)
    traced = []
    link = link_cls(
        sim, 8_000_000, 700, loss=ScriptedLoss(script), queue_packets=queue_packets,
        trace=lambda event, d: traced.append((sim.now_us, event, d.packet_number)),
    )
    for pn, (at, size) in enumerate(sends):
        sim.schedule_at(at, link.send, dgram(size, pn=pn, dst=sink))
    sim.run()
    arrivals = [(t, d.packet_number) for t, d in sink.arrivals]
    return arrivals, traced, link.stats


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        st.tuples(st.integers(0, 40).map(lambda n: 10 * n), st.integers(1, 8).map(lambda n: 10 * n)),
        max_size=24,
    ),
    st.integers(0, 3),
    st.lists(st.booleans(), max_size=24),
)
# sends at 60 and 90 land on the exact microseconds packets 0 and 1 finish
@example([(0, 60), (10, 30), (60, 10), (90, 20), (90, 10)], 1, [True, False])
def test_link_matches_deque_reference(sends, queue_packets, script):
    sends = sorted(sends)
    got = drive_link(Link, sends, queue_packets, script)
    want = drive_link(DequeLink, sends, queue_packets, script)
    assert got == want


class StubConnection:
    """A connection whose timer deadline the test moves.  The host calls
    ``on_timer`` at every timer event it fires; when the deadline is due,
    the stub records the instant and leaves ``after_timer`` as the
    deadline, as a probe deadline outlives the hole timer that fired."""

    def __init__(self, after_timer):
        self.deadline = None
        self.after_timer = after_timer
        self.timer_calls = []

    def flush(self, now):
        return []

    def next_timer_us(self):
        return self.deadline

    def on_timer(self, now):
        if self.deadline is not None and self.deadline <= now:
            self.timer_calls.append(now)
            self.deadline = self.after_timer


def test_host_keeps_one_timer_armed():
    sim = Simulator()
    conn = StubConnection(after_timer=200)
    host = Host(sim, conn, "h")
    host.route = (None, None)  # the stub sends nothing
    timers = []  # (pushed at, deadline) of every timer event
    schedule_at = sim.schedule_at

    def recording_schedule_at(time_us, fn, arg):
        if fn == host._on_timer:
            timers.append((sim.now_us, arg))
        schedule_at(time_us, fn, arg)

    sim.schedule_at = recording_schedule_at

    def move_deadline(deadline):
        conn.deadline = deadline
        host.pump()

    move_deadline(100)
    for at, deadline in ((10, 200), (20, 50), (60, 300), (250, None)):
        sim.schedule_at(at, move_deadline, deadline)
    sim.run()
    # 200 is later than the armed 100: no push.  50 is earlier: pushed, and
    # due when it fires, which leaves 200 armed, so the 100 event is stale.
    # 300 is later than the armed 200: re-armed only when 200 fires, not
    # due.  The deadline is cleared at 250, so nothing is due at 300.
    assert timers == [(0, 100), (20, 50), (50, 200), (200, 300)]
    assert conn.timer_calls == [50]
    assert sim.now_us == 300
    assert sim.events_run == 8  # four moves, timers at 50, 100, 200 and 300


# ---------------------------------------------------------------------------
# Trace log

def test_trace_log_line_format():
    sim = Simulator()
    log = TraceLog(sim)
    sim.schedule_at(1234, lambda _: log.emit("client", "send", 7, "stream"), None)
    sim.schedule_at(2000, lambda _: log.emit("client", "connect", None, ""), None)
    sim.run()
    assert log.lines == ["1.234 client.send 7 stream", "2.000 client.connect -"]
    assert log.text() == "1.234 client.send 7 stream\n2.000 client.connect -\n"


def test_trace_log_link_tracer():
    sim = Simulator()
    log = TraceLog(sim)
    link = Link(sim, 1_000_000, 0, loss=ScriptedLoss([False]), trace=log.link_tracer())
    link.send(dgram(100, pn=9, src="c1", dst=Sink(sim, "s1")))
    sim.run()
    assert log.lines == ["0.800 net.drop_random 9 c1->s1 stream 100B"]
