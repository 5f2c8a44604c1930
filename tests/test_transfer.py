"""End-to-end transfers over the emulated path: reliability under loss,
FEC recovery behaviour, congestion-signal equivalence, reproducibility."""

import hashlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fecsim.experiments import PRESETS, LossSpec, Scenario, lhs_scenarios, run_transfer
from fecsim.framework import FecFrame
from fecsim.frames import parse_packet
from fecsim.netem import (
    PredicateLoss,
    ScriptedLoss,
    SimulationRunaway,
    UniformLoss,
    serialization_us,
)
from fecsim.transport import (
    FEC_PACKET_CAP,
    FEC_STREAM_BUDGET,
    FEC_SYMBOL_SIZE,
    RECOVERED_STRATEGIES,
    STREAM_BUDGET,
    FecConfig,
)
from transfer_monitor import TransferMonitor

CLEAN = Scenario("clean", 1_890_000, 380_500, LossSpec("none"))
UNIFORM = Scenario("uni", 468_000, 131_000, LossSpec("uniform", p=0.033))
BURSTY = Scenario("ge", 1_890_000, 380_500, LossSpec("ge", p=0.01, r=0.08, k=0.98))

VARIANTS = {
    "baseline": None,
    "rs": FecConfig.rs(30, 20),
    "rlc": FecConfig.rlc(3, 2, 20),
    "xor": FecConfig.xor(4, 4),
}


def drop_nth_response_stream(indices):
    """Predicate loss that drops exactly the i-th server stream packets."""
    counter = {"n": 0}
    wanted = set(indices)

    def fn(d):
        if d.src == "server" and d.kind == "stream":
            i = counter["n"]
            counter["n"] += 1
            return i in wanted
        return False

    return PredicateLoss(fn)


def server_cwnd_reductions(trace_text):
    return [int(x) for x in re.findall(r"server\.cwnd_reduce \d+ cwnd=(\d+)", trace_text)]


# ---------------------------------------------------------------------------
# Clean-path behaviour

def test_clean_small_transfer_matches_closed_form():
    result = run_transfer(CLEAN, None, 1000, seed=0)
    assert result.completed
    # two round trips (handshake, then request/response) dominate; the
    # response body is one packet of serialization on top
    closed_form = 4 * CLEAN.one_way_delay_us + serialization_us(
        1025, CLEAN.bandwidth_bps
    )
    assert result.dct_us == pytest.approx(closed_form, rel=0.05)


def test_clean_transfers_complete_without_loss_events():
    for name, fec in VARIANTS.items():
        result = run_transfer(CLEAN, fec, 10_000, seed=0)
        assert result.completed, name
        assert result.random_drops == 0 and result.queue_drops == 0
        assert result.recoveries == 0, name
        assert result.client_stats.lost_packets == 0, name
        assert result.server_stats.lost_packets == 0, name


def test_fec_adds_wire_overhead_but_not_latency_for_small_files():
    base = run_transfer(CLEAN, None, 1000, seed=0)
    fec = run_transfer(CLEAN, VARIANTS["rlc"], 1000, seed=0)
    assert fec.wire_bytes > base.wire_bytes
    # the repair rides behind the response, not in front of it
    assert fec.dct_us == pytest.approx(base.dct_us, rel=0.10)


@pytest.mark.parametrize("variant", ["baseline", "rs", "rlc", "xor"])
def test_each_repair_symbol_is_one_packet(variant):
    """Every repair packet holds one repair frame carrying a whole symbol,
    so no symbol is split over two packets.  Protected packets fit that
    symbol width; a connection without FEC still fills whole packets."""
    sent = []  # (kind, size, parsed packet) of every server datagram

    def record(d):
        if d.src == "server":
            sent.append((d.kind, len(d.data), parse_packet(d.data)))
        return False

    result = run_transfer(
        CLEAN, VARIANTS[variant], 50_000, seed=0, loss_model=PredicateLoss(record)
    )
    assert result.completed
    repairs = [pkt.frames for kind, _, pkt in sent if kind == "repair"]
    for frames in repairs:
        (frame,) = frames
        assert type(frame) is FecFrame
        assert frame.fin and frame.chunk_offset == 0
        assert len(frame.payload) == FEC_SYMBOL_SIZE
    assert len({frames[0].repair_id for frames in repairs}) == len(repairs)
    streams = [(size, pkt) for kind, size, pkt in sent if kind == "stream"]
    largest = max(len(pkt.frames[0].data) for _, pkt in streams)
    if variant == "baseline":
        assert not repairs and largest == STREAM_BUDGET
    else:
        assert repairs and largest == FEC_STREAM_BUDGET
        assert all(pkt.fec_protected for _, pkt in streams)
        assert max(size for size, _ in streams) == FEC_PACKET_CAP


def test_fec_code_rate_orders_wire_overhead():
    lighter = run_transfer(CLEAN, FecConfig.rlc(5, 4, 20), 50_000, seed=0)
    heavier = run_transfer(CLEAN, FecConfig.rlc(3, 2, 20), 50_000, seed=0)
    base = run_transfer(CLEAN, None, 50_000, seed=0)
    assert base.wire_bytes < lighter.wire_bytes < heavier.wire_bytes


# ---------------------------------------------------------------------------
# Reliability under loss (every pattern must still complete, data verified)

def test_transfers_complete_under_uniform_loss():
    drops = 0
    for name, fec in VARIANTS.items():
        for seed in range(4):
            result = run_transfer(UNIFORM, fec, 10_000, seed=seed)
            assert result.completed, (name, seed)
            assert result.dct_us is not None and result.dct_us > 0
            drops += result.random_drops
    assert drops > 0  # the path actually dropped packets somewhere


def test_transfers_complete_under_bursty_loss():
    for name in ("baseline", "rlc", "rs"):
        for seed in range(4):
            result = run_transfer(BURSTY, VARIANTS[name], 20_000, seed=seed)
            assert result.completed, (name, seed)


def test_fec_recovers_losses_under_uniform_loss():
    total = 0
    for seed in range(6):
        result = run_transfer(UNIFORM, VARIANTS["rlc"], 20_000, seed=seed)
        assert result.completed
        total += result.recoveries
    assert total > 0  # at these loss rates recovery genuinely happens


# ---------------------------------------------------------------------------
# Recovery semantics end to end

def test_recovered_packet_is_never_retransmitted():
    result = run_transfer(
        CLEAN,
        VARIANTS["rlc"],
        50_000,
        seed=0,
        loss_model=drop_nth_response_stream([2]),
        collect_trace=True,
    )
    assert result.completed
    assert result.client_stats.recovered_packets == 1
    assert result.server_stats.peer_recovered_packets == 1
    assert result.server_stats.lost_packets == 0
    # no stream data was ever retransmitted (probe resends do not count:
    # they carry kind "probe")
    assert not re.search(r"server\.retransmit \d+ stream", result.trace_text)


def test_recovery_still_reduces_congestion_window():
    result = run_transfer(
        CLEAN,
        VARIANTS["rlc"],
        50_000,
        seed=0,
        loss_model=drop_nth_response_stream([2]),
    )
    assert result.server_stats.cwnd_reductions == 1


def test_recovered_signal_matches_baseline_congestion_response():
    # for a loss that FEC repairs promptly, the Recovered frame must
    # produce the same congestion reaction the baseline gets from its ack
    # holes: same number of reductions, at nearly the same window size
    for position in (0, 2, 7):
        drop = [position]
        base = run_transfer(
            CLEAN, None, 50_000, seed=0,
            loss_model=drop_nth_response_stream(drop), collect_trace=True,
        )
        fec = run_transfer(
            CLEAN, VARIANTS["rlc"], 50_000, seed=0,
            loss_model=drop_nth_response_stream(drop), collect_trace=True,
        )
        assert fec.server_stats.lost_packets == 0  # recovery beat both thresholds
        assert fec.server_stats.peer_recovered_packets == 1
        base_red = server_cwnd_reductions(base.trace_text)
        fec_red = server_cwnd_reductions(fec.trace_text)
        assert len(base_red) == len(fec_red) == 1
        # window sizes differ only by signal-arrival timing
        assert fec_red[0] == pytest.approx(base_red[0], rel=0.20)


def test_silent_ack_masks_congestion_signal():
    drop = drop_nth_response_stream([2])
    result = run_transfer(
        CLEAN, VARIANTS["rlc"], 50_000, seed=0,
        strategy="silent_ack", loss_model=drop,
    )
    assert result.completed
    assert result.client_stats.recovered_packets == 1
    assert result.server_stats.peer_recovered_packets == 0
    assert result.server_stats.cwnd_reductions == 0  # the loss went unseen


def test_no_ack_strategy_forces_retransmission_sized_signal():
    result = run_transfer(
        CLEAN, VARIANTS["rlc"], 50_000, seed=0,
        strategy="no_ack", loss_model=drop_nth_response_stream([2]),
        collect_trace=True,
    )
    assert result.completed
    assert result.client_stats.recovered_packets == 1
    # the sender never hears about the recovery, so it declares the loss
    assert result.server_stats.lost_packets == 1
    assert result.server_stats.cwnd_reductions == 1


# ---------------------------------------------------------------------------
# Reproducibility and budgets

def test_same_seed_reproduces_identical_traces():
    a = run_transfer(UNIFORM, VARIANTS["rlc"], 10_000, seed=5, collect_trace=True)
    b = run_transfer(UNIFORM, VARIANTS["rlc"], 10_000, seed=5, collect_trace=True)
    assert a.trace_text == b.trace_text
    assert (a.dct_us, a.wire_bytes) == (b.dct_us, b.wire_bytes)
    c = run_transfer(UNIFORM, VARIANTS["rlc"], 10_000, seed=6, collect_trace=True)
    assert c.trace_text != a.trace_text


def test_lossy_trace_bytes_are_pinned():
    """The concatenated trace text of 60 lossy transfers (da2gc and two
    sampled bursty paths; every FEC variant under every recovery strategy,
    baseline with Recovered frames only; 10 and 50 kB at seed 7), against
    the sha256 recorded when it last changed on purpose.  It covers
    losses, recoveries, probes and abandoned packets, so a refactor of the
    send path that moves any packet or timer moves this value."""
    digest = hashlib.sha256()
    for scenario in [PRESETS["da2gc"], *lhs_scenarios(7, 4)[:2]]:
        for size in (10_000, 50_000):
            for fec in VARIANTS.values():
                strategies = RECOVERED_STRATEGIES if fec else RECOVERED_STRATEGIES[:1]
                for strategy in strategies:
                    result = run_transfer(
                        scenario, fec, size, seed=7, strategy=strategy, collect_trace=True
                    )
                    digest.update(result.trace_text.encode())
    assert digest.hexdigest() == "782f96e614ccf1a40b5496c851ef59f3315008f9c2cd63478a9d15aed7798537"


def test_event_budget_violation_is_annotated():
    with pytest.raises(SimulationRunaway) as err:
        run_transfer(UNIFORM, None, 1_000_000, seed=0, max_events=500)
    assert "uni/baseline/1000000B" in str(err.value)


# ---------------------------------------------------------------------------
# Sender invariants over drawn transfers

DROP_LIST = st.sets(st.integers(0, 60), max_size=15).map(
    lambda drops: ScriptedLoss([i not in drops for i in range(max(drops, default=-1) + 1)])
)
BOUNDED_UNIFORM = st.builds(
    UniformLoss, st.floats(0.0, 0.2), seed=st.integers(0, 2**32 - 1)
)


@given(
    bandwidth_bps=st.sampled_from([468_000, 1_890_000, 8_000_000]),
    one_way_delay_us=st.integers(1_000, 400_000),
    queue_packets=st.integers(4, 50),
    loss=st.one_of(DROP_LIST, BOUNDED_UNIFORM),
    variant=st.sampled_from(sorted(VARIANTS)),
    strategy=st.sampled_from(RECOVERED_STRATEGIES),
    size_bytes=st.integers(1, 20_000),
)
def test_sender_invariants_hold_over_drawn_transfers(
    bandwidth_bps, one_way_delay_us, queue_packets, loss, variant, strategy, size_bytes
):
    """Every loss declaration retires the oldest packet in flight, lost
    frames queue in ascending packet-number order, no packet carries two
    resendable frames, and stream, repair and handshake packets leave only
    when the window has room for one more, on any path, loss and variant."""
    path = Scenario("drawn", bandwidth_bps, one_way_delay_us, LossSpec("none"), queue_packets)
    result = run_transfer(
        path, VARIANTS[variant], size_bytes, seed=0, strategy=strategy,
        loss_model=loss, max_events=200_000, watch=TransferMonitor(),
    )
    assert result.completed


@pytest.mark.parametrize("variant", ["baseline", "rlc"])
def test_a_watched_transfer_returns_what_an_unwatched_one_does(variant):
    """The monitor chains the trace log's tracer and wraps ``flush``, and
    changes nothing: the watched result, trace text included, equals the
    unwatched one, losses and all."""
    monitor = TransferMonitor()
    fec = VARIANTS[variant]
    watched = run_transfer(UNIFORM, fec, 50_000, seed=7, collect_trace=True, watch=monitor)
    assert watched == run_transfer(UNIFORM, fec, 50_000, seed=7, collect_trace=True)
    assert ".lost " in watched.trace_text
    assert len(monitor.packets) == 2 and all(monitor.packets.values())
