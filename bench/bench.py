"""Micro-benchmarks of the coding layer, the packet codec, the ACK and
loss paths and the event loop, and the seed-0 output hashes.

Run from the root of a checkout; fecsim is imported from that checkout's
``src/``::

    python3 bench/bench.py --out BENCH_16.json

The JSON records:

* ``micro``: the median time of
  - ``addmul_row`` on a 1208-byte row;
  - ``rs_encode`` of a (30,20) block, and ``rs_decode`` of one with 10
    sources erased;
  - ``rlc_coefficients`` and ``rlc_encode`` for a 20-symbol window, and
    ``RlcDecoder.add_repair`` of a repair over that window that rebuilds
    its one missing source;
  - ``ReceiverFec.on_fec_frame`` over a block's whole repair frames,
    after its surviving sources: a (30,20) block with 10 sources erased,
    which the tenth repair rebuilds, and a harness xor block of 4 with
    one source erased;
  - ``SenderFec.next_source_id`` plus ``commit_source`` per source, for
    each of the harness codes xor, rs and rlc, at ``FEC_SYMBOL_SIZE``,
    the repairs each group emits included (samples of 400 sources,
    whole groups of every code);
  - ``Connection._on_ack_frame`` on a 300-packet flight, encoding an
    ACK and ``parse_frames`` of one, at 1, 12, 22 and 32 ranges (1, 12
    and 22 are the mean ranges per ACK measured on ``fecsim run --seed
    0`` and ``fecsim fairness --seed 0 --count 1`` before the range-list
    layout, 32 the most an ACK carries).  Encoding is building the frame
    from its bounds with ``AckFrame.of``, which packs through
    ``RangeSet.frame``, the one range-list encoder, and taking its bytes
    with ``encode_frame``;
  - ``Connection._ack_frame``, building the ACK from a 64-range
    ``RangeSet`` whose kept bytes are current;
  - ``Connection.next_timer_us`` on a 300-packet flight after an ACK that
    leaves two holes, and the ``Connection.on_timer`` call that declares
    both lost by the time threshold;
  - ``encode_packet`` and ``parse_packet`` of a full protected packet
    holding one stream frame;
  - ``Simulator.run`` per no-op event, over 1000 events at increasing
    times, and ``GilbertElliottLoss.decide``, which ``Link._finish`` calls
    for every packet, at the middle of the sampled parameter box.
  The coding-layer symbols are 1208 bytes,
  ``symbol_size_for(MAX_PACKET_SIZE)``: the width the perfbench ``codec``
  workload codes at.  The transport codes at ``FEC_SYMBOL_SIZE`` (1168
  bytes) so that a repair symbol fits one repair frame; the row cost
  scales with the width;
* ``receiver_state``: the bytes ``tracemalloc`` sees a ``ReceiverFec``
  gain from its 2,000th to its 20,000th source, for each of the harness
  codes xor, rs and rlc, with every 50th source lost and every repair fed.
  A receiver whose state is bounded by its code gains about nothing.
  Beside each, ``forged_chunk_bytes``: the bytes ``tracemalloc`` sees a
  ``ReceiverFec`` at ``FEC_SYMBOL_SIZE`` hold after a flood of 8 forged
  repairs, each sent as 255 non-final chunks of 32,767 bytes (the widest
  chunk a repair frame carries), every chunk parsed from its own wire
  bytes, with the number of chunks it refused.  Last,
  ``transport.forged_stream_bytes``: the bytes ``tracemalloc`` sees a
  client of a 10 MB response gain from 2,000 pattern frames of 1,000 B,
  each in its own packet and 1,000 B past the one before, so none
  reaches offset 0.  A receive stream that keeps byte ranges, not bytes,
  holds bytes per range;
* ``outputs``: the sha256, the heap events (the sum of
  ``Simulator.events_run`` over the run), the feedback packets (those
  ``Connection.flush`` returns with ``kind == "feedback"``, over every
  connection of the run) and the host time of one
  ``fecsim run --seed 0`` and one ``fecsim fairness --seed 0 --count 1``.
  Equal hashes between two checkouts show that a change left the
  simulated results byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import timeit
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fecsim import cli, experiments, gf256, schemes  # noqa: E402
from fecsim.framework import (  # noqa: E402
    MAX_CHUNK_PAYLOAD,
    MAX_CHUNKS,
    FecFrame,
    MalformedFrame,
    ReceiverFec,
    SenderFec,
    block_repair_id,
    conv_repair_id,
    encode_fec_frame,
    parse_fec_frame,
)
from fecsim.netem import GilbertElliottLoss, Simulator  # noqa: E402
from fecsim.frames import (  # noqa: E402
    AckFrame,
    HandshakeFrame,
    Packet,
    StreamFrame,
    encode_frame,
    encode_packet,
    parse_frames,
    parse_packet,
)
from fecsim.transport import (  # noqa: E402
    Connection,
    ConnectionConfig,
    FEC_SYMBOL_SIZE,
    MAX_PACKET_SIZE,
    STREAM_BUDGET,
    SentRecord,
    pattern_bytes,
)

FLIGHT = 300
RANGES = 32
ACK_SIZES = (1, 12, 22, RANGES)
EVENTS = 1000
FRESH_REPEATS = 1000
SYMBOL = schemes.symbol_size_for(MAX_PACKET_SIZE)
RS = schemes.BlockCodeParams(30, 20)
RS_ERASED = 10
# (harness code, sources erased from its one block, micro entry name)
RECEIVER_BLOCKS = (
    ("rs", RS_ERASED, "rs_30_20_10_erased"),
    ("xor", 1, "xor_one_erased"),
)
WINDOW = 20
RLC_SEED = 0xBEEF
RECEIVER_SPAN = (2_000, 20_000)
RECEIVER_LOSS_EVERY = 50
FORGED_REPAIRS = 8
FORGED_STREAM = (10_000_000, 2_000, 1_000)  # response size, frames, bytes per frame
SENDER_SOURCES = 400  # whole groups of every harness code


def ack_with_gaps(ranges: int = RANGES) -> AckFrame:
    """``ranges`` ranges of 8 packets over the oldest packets of the
    flight, with a one-packet hole between neighbours: every hole is
    lost."""
    return AckFrame.of(tuple(v for i in range(ranges) for v in (1 + 9 * i, 8 + 9 * i)))


def server_with_flight() -> Connection:
    conn = Connection("server", ConnectionConfig())
    for pn in range(1, FLIGHT + 1):
        conn._sent[pn] = SentRecord(0, MAX_PACKET_SIZE)
    conn._next_pn = FLIGHT + 1
    conn._bytes_in_flight = FLIGHT * MAX_PACKET_SIZE
    return conn


def server_with_holes() -> Connection:
    """The 300-packet flight after an ACK at 100 ms of packets 1-150 and
    153: packets 151 and 152 are holes, too shallow for the reorder
    threshold, so only the hole timer can declare them lost."""
    conn = server_with_flight()
    conn._on_ack_frame(AckFrame.of((1, 150, 153, 153)), 100_000)
    return conn


def loss_path_micro() -> dict:
    conn = server_with_holes()
    deadline = conn.next_timer_us()
    conn.on_timer(deadline)
    if conn.stats.lost_packets != 2:
        raise SystemExit("the hole timer must declare both holes lost")
    conn = server_with_holes()
    return {
        "transport.next_timer_us_300_flight_2_holes": bench_call(conn.next_timer_us),
        "transport.on_timer_300_flight_2_time_losses": bench_fresh(
            server_with_holes, lambda c: c.on_timer(deadline)
        ),
    }


def packet_micro() -> dict:
    offset = 1_000_000
    frame = StreamFrame(0, offset, False, pattern_bytes(offset, STREAM_BUDGET))
    packet = Packet(7, [frame], True, 0x1234)
    wire = encode_packet(packet)
    if len(wire) != MAX_PACKET_SIZE or parse_packet(wire) != packet:
        raise SystemExit("a full stream packet must fill the packet and round-trip")
    return {
        "frames.encode_packet_full_stream": bench_call(lambda: encode_packet(packet)),
        "frames.parse_packet_full_stream": bench_call(lambda: parse_packet(wire)),
    }


def ack_build_micro() -> dict:
    """The feedback path's ACK: 64 two-packet ranges received, so the
    frame carries the newest 32."""
    conn = Connection("client", ConnectionConfig(), request_size=1)
    for i in range(2 * RANGES):
        conn._received_pns.add(3 * i + 1)
        conn._received_pns.add(3 * i + 2)
    ack = conn._ack_frame()
    if len(conn._received_pns) != 2 * RANGES or len(ack.ranges) != RANGES:
        raise SystemExit("the ACK must carry the newest 32 of 64 ranges")
    return {"transport.ack_frame_64_ranges": bench_call(conn._ack_frame)}


def _noop(_) -> None:
    pass


def netem_micro() -> dict:
    def loaded() -> Simulator:
        sim = Simulator()
        for t in range(EVENTS):
            sim.schedule_at(t, _noop, None)
        return sim

    sim = loaded()
    sim.run()
    if sim.events_run != EVENTS or not sim.idle:
        raise SystemExit("the simulator must run every scheduled event")
    per_run = bench_fresh(loaded, Simulator.run)
    loss = GilbertElliottLoss(0.045, 0.29, 0.99, 0.05, seed=0)
    return {
        "netem.simulator_empty_event": {
            **per_run,
            "median_us": per_run["median_us"] / EVENTS,
            "events_per_sample": EVENTS,
        },
        "netem.gilbert_elliott_decide": bench_call(loss.decide),
    }


def bench_fresh(make, run) -> dict:
    """Median time of ``run(make())`` for calls that change their
    receiver's state; only ``run`` is timed."""
    samples = []
    for _ in range(FRESH_REPEATS):
        obj = make()
        start = time.perf_counter_ns()
        run(obj)
        samples.append((time.perf_counter_ns() - start) / 1000)
    return {"median_us": statistics.median(samples), "samples": len(samples)}


def ack_micro() -> dict:
    """``_on_ack_frame`` on the 300-packet flight, and encoding the ACK
    from its bounds and parsing it, at each of ``ACK_SIZES`` ranges."""
    out = {}
    for ranges in ACK_SIZES:
        ack = ack_with_gaps(ranges)
        bounds = ack.bounds
        wire = encode_frame(ack)
        if parse_frames(wire) != [ack] or len(ack.ranges) != ranges:
            raise SystemExit("the ACK frame does not round-trip")
        conn = server_with_flight()
        conn._on_ack_frame(ack, 100_000)
        if conn.stats.lost_packets != ranges - 1:
            raise SystemExit("the ACK must declare every hole lost")
        out[f"transport.on_ack_frame_300_flight_{ranges}_ranges"] = bench_fresh(
            server_with_flight, lambda c: c._on_ack_frame(ack, 100_000)
        )
        out[f"frames.encode_ack_{ranges}_ranges"] = bench_call(
            lambda: encode_frame(AckFrame.of(bounds))
        )
        out[f"frames.parse_ack_{ranges}_ranges"] = bench_call(lambda: parse_frames(wire))
    return out


def coding_micro() -> dict:
    """The coding-layer entries, each checked once against its inverse."""
    symbols = np.random.default_rng(0).integers(0, 256, (RS.n, SYMBOL), dtype=np.uint8)
    sources = list(symbols[: RS.k])
    repairs = {r.scheme_specific: r.payload for r in schemes.rs_encode(sources, RS)}
    survivors = {off: sym for off, sym in enumerate(sources) if off >= RS_ERASED}
    solved = schemes.rs_decode(survivors, repairs, RS)
    if any(not np.array_equal(solved[off], sources[off]) for off in range(RS_ERASED)):
        raise SystemExit("rs_decode must rebuild the erased sources")

    window = sources[:WINDOW]
    rlc_repair = schemes.rlc_encode(window, 0, RLC_SEED).payload

    def decoder_missing_one() -> schemes.RlcDecoder:
        dec = schemes.RlcDecoder(WINDOW)
        for seq, sym in enumerate(window[1:], 1):
            dec.add_source(seq, sym)
        return dec

    got = decoder_missing_one().add_repair(0, WINDOW, RLC_SEED, rlc_repair)
    if len(got) != 1 or not np.array_equal(got[0][1], window[0]):
        raise SystemExit("add_repair must rebuild the missing source")

    acc = symbols[RS.k].copy()
    return {
        "gf256.addmul_row_1208": bench_call(lambda: gf256.addmul_row(acc, 0x53, symbols[0])),
        "schemes.rs_encode_30_20": bench_call(lambda: schemes.rs_encode(sources, RS), number=50),
        "schemes.rs_decode_30_20_10_erased": bench_call(
            lambda: schemes.rs_decode(survivors, repairs, RS), number=50
        ),
        "schemes.rlc_coefficients_20": bench_call(
            lambda: schemes.rlc_coefficients(RLC_SEED, WINDOW)
        ),
        "schemes.rlc_encode_20": bench_call(
            lambda: schemes.rlc_encode(window, 0, RLC_SEED), number=200
        ),
        "schemes.rlc_add_repair_20_one_missing": bench_fresh(
            decoder_missing_one, lambda dec: dec.add_repair(0, WINDOW, RLC_SEED, rlc_repair)
        ),
    }


def survivors(scheme: int, sources: list[tuple[int, bytes]]) -> ReceiverFec:
    receiver = ReceiverFec(scheme, SYMBOL)
    for raw, packet in sources:
        receiver.on_source_symbol(raw, packet)
    return receiver


def feed_repairs(frames: list[FecFrame], receiver: ReceiverFec) -> list:
    return [pair for frame in frames for pair in receiver.on_fec_frame(frame)]


def receiver_micro() -> dict:
    """``ReceiverFec`` rebuilding one block from its whole repair frames,
    fed after the block's surviving sources; only the repairs are timed."""
    rng = np.random.default_rng(1)
    out = {}
    for code, erased, name in RECEIVER_BLOCKS:
        cfg = experiments.VARIANTS[code]
        sender = SenderFec(cfg.scheme, cfg.make_params(), SYMBOL)
        sources = []
        for _ in range(cfg.k):
            packet = rng.integers(0, 256, SYMBOL - 2, dtype=np.uint8).tobytes()
            sources.append((sender.next_source_id(), packet))
            sender.commit_source(*sources[-1])
        make = partial(survivors, cfg.scheme, sources[erased:])
        run = partial(feed_repairs, list(sender.pending))
        if run(make()) != sources[:erased]:
            raise SystemExit(f"{code}: ReceiverFec must rebuild the erased sources")
        out[f"framework.receiver_{name}"] = bench_fresh(make, run)
    return out


def sender_micro() -> dict:
    """``next_source_id`` plus ``commit_source`` per source at the
    transport's symbol width, repairs included, for each harness code."""
    packet = pattern_bytes(0, FEC_SYMBOL_SIZE - 2)
    out = {}
    for code in ("xor", "rs", "rlc"):
        cfg = experiments.VARIANTS[code]
        sender = SenderFec(cfg.scheme, cfg.make_params(), FEC_SYMBOL_SIZE)
        sender.configure_lanes(cfg.lanes)
        for _ in range(SENDER_SOURCES):
            sender.commit_source(sender.next_source_id(), packet)
        if len(sender.pending) != SENDER_SOURCES // cfg.k * cfg.repairs:
            raise SystemExit(f"{code}: every whole group must emit its repairs")

        def commit(sender=sender) -> None:
            sender.commit_source(sender.next_source_id(), packet)
            sender.pending.clear()

        out[f"framework.sender_commit_{code}"] = bench_call(commit, number=SENDER_SOURCES)
    return out


def receiver_state() -> dict:
    """The receiver-state entries.  The sender's state is bounded and its
    repairs are dropped once fed, so the growth is the receiver's.  The
    span is long because the RLC decoder sweeps its old symbols every 256
    calls, which moves a single reading by up to about 330 KB."""
    first, last = RECEIVER_SPAN
    out = {}
    for code in ("xor", "rs", "rlc"):
        cfg = experiments.VARIANTS[code]
        sender = SenderFec(cfg.scheme, cfg.make_params(), SYMBOL)
        sender.configure_lanes(cfg.lanes)
        receiver = ReceiverFec(cfg.scheme, SYMBOL, window=max(1, cfg.window))
        recovered = 0
        tracemalloc.start()
        try:
            for i in range(last):
                if i == first:
                    start = tracemalloc.get_traced_memory()[0]
                packet = i.to_bytes(4, "big") * 300
                raw = sender.next_source_id()
                sender.commit_source(raw, packet)
                if i % RECEIVER_LOSS_EVERY != RECEIVER_LOSS_EVERY - 1:
                    recovered += len(receiver.on_source_symbol(raw, packet))
                for frame in sender.pending:
                    recovered += len(receiver.on_fec_frame(frame))
                sender.pending.clear()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        if recovered != last // RECEIVER_LOSS_EVERY:
            raise SystemExit(f"{code}: the receiver must rebuild every lost source")
        out[f"framework.receiver_growth_{code}"] = {
            "bytes": grown,
            "sources": [first, last],
            "recovered": recovered,
        }
        out[f"framework.forged_chunk_bytes_{code}"] = forged_chunk_bytes(cfg)
    out["transport.forged_stream_bytes"] = forged_stream_bytes()
    return out


def forged_chunk_bytes(cfg) -> dict:
    """The bytes a receiver holds after ``FORGED_REPAIRS`` repairs of
    ``MAX_CHUNKS - 1`` widest non-final chunks each, none of which can
    complete a symbol."""
    receiver = ReceiverFec(cfg.scheme, FEC_SYMBOL_SIZE, window=max(1, cfg.window))
    payload = bytes(MAX_CHUNK_PAYLOAD)
    chunks = refused = 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for r in range(FORGED_REPAIRS):
            if cfg.scheme == schemes.SCHEME_RLC:
                repair_id = conv_repair_id(0, r + 1)
            else:
                repair_id = block_repair_id(0, r, r)
            for chunk in range(MAX_CHUNKS - 1):
                chunks += 1
                wire = encode_fec_frame(
                    FecFrame(False, chunk, repair_id, 1, FORGED_REPAIRS, payload)
                )
                try:
                    receiver.on_fec_frame(parse_fec_frame(wire)[0])
                except MalformedFrame:
                    refused += 1
        del wire
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return {"bytes": held, "chunks": chunks, "refused": refused}


def forged_stream_bytes() -> dict:
    """The bytes a client holds after ``FORGED_STREAM``'s gapped pattern
    frames, which its request size allows but which leave its cursor at
    0.  The packets are encoded before tracing starts."""
    size, frames, width = FORGED_STREAM
    cli = Connection("client", ConnectionConfig(), request_size=size)
    cli.start(0)
    cli.flush(0)
    cli.on_datagram(encode_packet(Packet(1, [HandshakeFrame(1)])), 1000)
    cli.flush(1000)
    offsets = range(width, 2 * width * frames, 2 * width)
    wires = [
        encode_packet(Packet(2 + i, [StreamFrame(0, off, False, pattern_bytes(off, width))]))
        for i, off in enumerate(offsets)
    ]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i, wire in enumerate(wires):
            cli.on_datagram(wire, 2000 + i)
            cli.flush(2000 + i)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    if cli.received_bytes != 0:
        raise SystemExit("no forged frame may reach the cursor")
    return {"bytes": held, "frames": frames, "frame_bytes": width, "request_size": size}


def bench_call(fn, number: int = 2000, repeat: int = 15) -> dict:
    per_call = [
        t / number * 1e6 for t in timeit.repeat(fn, number=number, repeat=repeat)
    ]
    return {
        "median_us": statistics.median(per_call),
        "samples": repeat,
        "calls_per_sample": number,
    }


def cli_output(argv: list[str]) -> dict:
    sims: list[Simulator] = []
    feedback = 0

    def counted(*args, **kwargs) -> Simulator:
        sims.append(Simulator(*args, **kwargs))
        return sims[-1]

    def connection(*args, **kwargs) -> Connection:
        conn = Connection(*args, **kwargs)
        flush = conn.flush

        def flush_counted(now: int) -> list:
            nonlocal feedback
            out = flush(now)
            feedback += sum(p.kind == "feedback" for p in out)
            return out

        conn.flush = flush_counted
        return conn

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        experiments, "Simulator", counted
    ), mock.patch.object(experiments, "Connection", connection):
        out = os.path.join(tmp, "out.csv")
        start = time.perf_counter()
        cli.main(argv + ["--out", out])
        wall = time.perf_counter() - start
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    events = sum(sim.events_run for sim in sims)
    return {
        "argv": argv,
        "sha256": digest,
        "events": events,
        "feedback_packets": feedback,
        "wall_s": round(wall, 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()

    report = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "micro": {
            **coding_micro(),
            **receiver_micro(),
            **sender_micro(),
            **ack_micro(),
            **ack_build_micro(),
            **loss_path_micro(),
            **packet_micro(),
            **netem_micro(),
        },
        "receiver_state": receiver_state(),
        "outputs": {
            "run_csv_seed0": cli_output(["run", "--seed", "0"]),
            "fairness_csv_seed0": cli_output(
                ["fairness", "--seed", "0", "--count", "1"]
            ),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
