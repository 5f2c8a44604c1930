"""The benchmark's three workloads.

* ``matrix-da2gc`` - ``fecsim run --seed N``: the default completion-time
  matrix, da2gc x baseline/rs/rlc x 1k/10k/50k/1m x 9 repetitions.
* ``fairness-mss`` - ``fecsim fairness --seed N --count 1``: one
  shared-bottleneck run per background behaviour.
* ``codec`` - seeded packet streams through ``framework.SenderFec``, the
  repair-frame wire format and ``framework.ReceiverFec`` under a seeded
  erasure plan, for xor, rs and rlc.  No transport or emulator runs.

A workload object builds its inputs from the seed once, then runs whole
rounds of the same operations.  Each round is timed as a whole, then
checked.  The first two drive the program through its command-line entry
point and watch the objects each transfer creates (``Recorder``), which
costs a few calls per transfer.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import checks
from checks import CodeGroup, ContentionRun, PathShape, RepairSample, Transfer
from layertrace import Patches, Tracer, instrument

# The paths as the workloads define them; the program's presets must agree.
DA2GC = PathShape(bandwidth_bps=468_000, one_way_delay_us=131_000)
MSS = PathShape(bandwidth_bps=1_890_000, one_way_delay_us=380_500)


@dataclass
class Round:
    """What one round did."""

    wall_s: float
    attempted: int
    failed: int
    failures: list[str]
    digests: dict[str, str]
    sim_dct_geomean_ms: float
    wire_mb: float
    op_ms: list[float]  # host milliseconds per transfer or stream
    counts: dict[str, float] = field(default_factory=dict)  # program counters


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def program_counts(objects, fx) -> dict[str, int]:
    """Counters the program keeps on the objects one transfer created."""
    counts = dict.fromkeys(
        ("retransmissions", "lost_packets", "probe_packets", "cwnd_reductions",
         "wire_packets", "random_drops", "queue_drops", "events"), 0,
    )
    for obj in objects:
        if isinstance(obj, fx.transport.Connection):
            s = obj.stats
            counts["retransmissions"] += s.retransmitted_packets
            counts["lost_packets"] += s.lost_packets
            counts["probe_packets"] += s.probe_packets
            counts["cwnd_reductions"] += s.cwnd_reductions
        elif isinstance(obj, fx.netem.Network):
            for link in obj.links.values():
                counts["wire_packets"] += link.stats.wire_packets
                counts["random_drops"] += link.stats.random_drops
                counts["queue_drops"] += link.stats.queue_drops
        elif isinstance(obj, fx.netem.Simulator):
            counts["events"] += obj.events_run
    return counts


class Recorder(Patches):
    """Watches the experiments module: every ``Simulator``, ``Network``
    and ``Connection`` it creates during a call of ``entry`` is handed to
    ``summarize(args, result, objects)`` when the call returns, and only
    the summary is kept."""

    def __init__(self, fx, entry: str, summarize: Callable):
        super().__init__()
        self.summaries: list = []
        self.host_s: list[float] = []
        created: list = []
        xp = fx.experiments

        def factory(cls):
            def make(*args, **kwargs):
                obj = cls(*args, **kwargs)
                created.append(obj)
                return obj

            return make

        def watched(fn):
            def call(*args, **kwargs):
                created.clear()
                result = None
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self.host_s.append(perf_counter() - start)
                    self.summaries.append(summarize(args, result, list(created)))
                    created.clear()

            return call

        for name in ("Simulator", "Network", "Connection"):
            self.set(xp, name, factory(getattr(xp, name)))
        self.set(xp, entry, watched(getattr(xp, entry)))


def _timed_cli(fx, argv, recorder: Callable[[], Recorder], tracer: Optional[Tracer]):
    """Run the command line once, watched by a fresh recorder and, with a
    tracer, inside the layer spans.  Returns (wall seconds, recorder)."""
    with instrument(fx, tracer) if tracer is not None else Patches():
        with recorder() as watching:
            start = perf_counter()
            status = fx.cli.main(argv)
            wall = perf_counter() - start
    if status != 0:
        raise RuntimeError(f"fecsim {' '.join(argv)} exited with {status}")
    return wall, watching


def _sum_counts(dicts) -> dict[str, float]:
    total: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


# ---------------------------------------------------------------------------


class Matrix:
    """``fecsim run --seed N``: 108 downloads over the da2gc preset."""

    name = "matrix-da2gc"
    SIZES = (("1k", 1_000), ("10k", 10_000), ("50k", 50_000), ("1m", 1_000_000))
    VARIANTS = ("baseline", "rs", "rlc")
    REPS = 9

    def __init__(self, fx, seed: int, out_dir):
        self.fx = fx
        self.argv = ["run", "--seed", str(seed), "--out", str(out_dir / f"{self.name}-seed{seed}.csv")]
        self.cells = [(label, v, size) for label, size in self.SIZES for v in self.VARIANTS]
        self.attempted = len(self.cells) * self.REPS

    def _summarize(self, args, result, objects):
        client = next(o for o in objects if isinstance(o, self.fx.transport.Connection) and o.role == "client")
        transfer = Transfer(
            size=args[2],
            completed=result is not None and result.completed,
            dct_us=None if result is None else result.dct_us,
            received=client.received_bytes,
            wire_bytes=sum(o.wire_bytes for o in objects if isinstance(o, self.fx.netem.Network)),
        )
        return transfer, program_counts(objects, self.fx)

    def run(self, tracer: Optional[Tracer] = None) -> Round:
        wall, recorder = _timed_cli(
            self.fx, self.argv, lambda: Recorder(self.fx, "run_transfer", self._summarize), tracer
        )
        transfers = [t for t, _ in recorder.summaries]
        with open(self.argv[-1], "rb") as fh:
            text = fh.read()
        completed = [t for t in transfers if t.completed and t.dct_us is not None]
        preset = self.fx.experiments.PRESETS["da2gc"]
        failures = []
        if (preset.bandwidth_bps, preset.one_way_delay_us) != (DA2GC.bandwidth_bps, DA2GC.one_way_delay_us):
            failures.append(f"da2gc preset is {preset}, the workload expects {DA2GC}")
        failures += checks.transfer_failures(transfers, DA2GC)
        failures += checks.wire_failures(sum(t.wire_bytes for t in transfers), sum(t.size for t in transfers))
        failures += checks.run_csv_failures(text.decode(), self.cells, self.REPS, transfers)
        return Round(
            wall_s=wall,
            attempted=self.attempted,
            failed=self.attempted - len(completed),
            failures=failures,
            digests={"run_csv": _sha256(text)},
            sim_dct_geomean_ms=geomean(t.dct_us / 1000 for t in completed),
            wire_mb=sum(t.wire_bytes for t in transfers) / 1e6,
            op_ms=[s * 1000 for s in recorder.host_s],
            counts=_sum_counts(c for _, c in recorder.summaries),
        )


class Fairness:
    """``fecsim fairness --seed N --count 1``: a 10 MB foreground against a
    16 MB background, once per background behaviour."""

    name = "fairness-mss"
    BACKGROUNDS = ("baseline", "recovered_frame", "silent_ack")
    FG_SIZE = 10_000_000

    def __init__(self, fx, seed: int, out_dir):
        self.fx = fx
        self.argv = ["fairness", "--seed", str(seed), "--count", "1",
                     "--out", str(out_dir / f"{self.name}-seed{seed}.csv")]
        self.attempted = len(self.BACKGROUNDS)

    def _summarize(self, args, result, objects):
        conns = [o for o in objects if isinstance(o, self.fx.transport.Connection)]
        fg = next(c for c in conns if c.role == "client" and c.request_size == self.FG_SIZE)
        bg = next(c for c in conns if c.role == "client" and c is not fg)
        network = next(o for o in objects if isinstance(o, self.fx.netem.Network))
        sim = next(o for o in objects if isinstance(o, self.fx.netem.Simulator))
        run = ContentionRun(
            background=args[0],
            fg=Transfer(
                size=self.FG_SIZE,
                completed=result is not None,
                dct_us=None if result is None else result.fg_dct_us,
                received=fg.received_bytes,
                wire_bytes=network.wire_bytes,
            ),
            bg_received=bg.received_bytes,
            elapsed_us=sim.now_us,
            random_drops=network.random_drops,
        )
        return run, program_counts(objects, self.fx)

    def run(self, tracer: Optional[Tracer] = None) -> Round:
        wall, recorder = _timed_cli(
            self.fx, self.argv, lambda: Recorder(self.fx, "fairness_run", self._summarize), tracer
        )
        runs = [r for r, _ in recorder.summaries]
        with open(self.argv[-1], "rb") as fh:
            text = fh.read()
        completed = [r for r in runs if r.fg.completed]
        mss = self.fx.experiments.PRESETS["mss"]
        failures = []
        if (mss.bandwidth_bps, mss.one_way_delay_us) != (MSS.bandwidth_bps, MSS.one_way_delay_us):
            failures.append(f"mss preset is {mss}, the workload expects {MSS}")
        failures += checks.transfer_failures([r.fg for r in runs], MSS)
        failures += checks.wire_failures(
            sum(r.fg.wire_bytes for r in runs), sum(r.fg.received + r.bg_received for r in runs)
        )
        failures += checks.fairness_failures(runs, MSS)
        failures += checks.fairness_csv_failures(text.decode(), self.BACKGROUNDS, runs)
        return Round(
            wall_s=wall,
            attempted=self.attempted,
            failed=self.attempted - len(completed),
            failures=failures,
            digests={"fairness_csv": _sha256(text)},
            sim_dct_geomean_ms=geomean(r.fg.dct_us / 1000 for r in completed),
            wire_mb=sum(r.fg.wire_bytes for r in runs) / 1e6,
            op_ms=[s * 1000 for s in recorder.host_s],
            counts=_sum_counts(c for _, c in recorder.summaries),
        )


# ---------------------------------------------------------------------------


@dataclass
class StreamResult:
    code: str
    originals: dict[int, bytes] = field(default_factory=dict)
    erased: set[int] = field(default_factory=set)
    recovered: list[tuple[int, bytes]] = field(default_factory=list)
    groups: list[CodeGroup] = field(default_factory=list)
    first_repairs: list = field(default_factory=list)  # PendingRepair of the first group
    last_repairs: list = field(default_factory=list)  # and of the last one
    dct_ms: Optional[float] = None
    wire_bytes: int = 0


class Codec:
    """Seeded packet streams through the FEC framework, per code.

    The erasure plan works per block (xor, rs) or window step (rlc) and
    stays within what the code is guaranteed to repair: at most one
    erasure per xor block, at most n - k per rs block, and per rlc step
    either one source or the step's repair.  Every erased source must
    therefore come back, which the checks verify.  Repair symbols can lose
    any non-empty subset of their chunks.

    The simulated figures clock the stream onto the da2gc path in emission
    order (sources as they are committed, repairs as they are emitted):
    ``wire_mb`` counts source packets and repair packets (packet header,
    repair-frame header and chunk), and a stream's completion time is when
    its last source is received or rebuilt at the far end.
    """

    name = "codec"
    # (code, fecsim variant, erasures per group the code must repair)
    CODES = (("xor", "xor", 1), ("rs", "rs", 10), ("rlc", "rlc", 1))
    STREAMS_PER_CODE = 4
    PACKETS_PER_STREAM = 400  # whole xor interleave groups and rs blocks

    def __init__(self, fx, seed: int, out_dir):
        self.fx = fx
        frames_mod = fx.frames
        self.max_chunk = frames_mod.MAX_PACKET_SIZE - frames_mod.PACKET_HEADER_LEN - fx.framework.FEC_FRAME_HEADER_LEN
        self.symbol_size = fx.schemes.symbol_size_for(frames_mod.MAX_PACKET_SIZE)
        self.packet_header = frames_mod.PACKET_HEADER_LEN
        rng = np.random.default_rng(seed)
        self.streams = []
        for code, variant, limit in self.CODES:
            for _ in range(self.STREAMS_PER_CODE):
                n = self.PACKETS_PER_STREAM
                full = frames_mod.MAX_PACKET_SIZE
                lengths = np.where(rng.random(n) < 0.75, full, rng.integers(1, full, n))
                data = rng.integers(0, 256, int(lengths.sum()), dtype=np.uint8).tobytes()
                cuts = np.concatenate(([0], np.cumsum(lengths)))
                packets = [data[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
                self.streams.append((code, variant, limit, packets, int(rng.integers(1 << 62))))
        self.attempted = len(self.streams)

    def _code_stream(self, code, variant, limit, packets, plan_seed, digest) -> StreamResult:
        fw = self.fx.framework
        cfg = self.fx.experiments.VARIANTS[variant]
        rlc = cfg.scheme == self.fx.schemes.SCHEME_RLC
        sender = fw.SenderFec(cfg.scheme, cfg.make_params(), self.symbol_size)
        if cfg.lanes > 1:
            sender.configure_lanes(cfg.lanes)
        receiver = fw.ReceiverFec(cfg.scheme, self.symbol_size, window=max(1, cfg.window))
        plan = random.Random(plan_seed)
        out = StreamResult(code)
        available: dict[int, int] = {}  # source id -> wire position it became available at
        open_groups: dict[int, list[tuple[int, int]]] = {}  # block or step -> [(id, position)]

        def deliver(sources, repairs):
            n_src = len(sources)
            size = n_src + len(repairs)
            if code == "rlc":
                choice = plan.randrange(3)
                erased_at = set() if choice == 0 else {plan.randrange(n_src)} if choice == 1 else set(range(n_src, size))
            else:
                erased_at = set(plan.sample(range(size), plan.randint(0, min(limit, size))))
            group = CodeGroup(len(erased_at), [])
            for j, (raw, pos) in enumerate(sources):
                if j in erased_at:
                    out.erased.add(raw)
                    group.erased_sources.append(raw)
                    continue
                available.setdefault(raw, pos)
                for rec in receiver.on_source_symbol(raw, out.originals[raw]):
                    out.recovered.append(rec)
                    available.setdefault(rec[0], pos)
            for r, (_, wire_frames) in enumerate(repairs):
                dropped = plan.randrange(1, 1 << len(wire_frames)) if n_src + r in erased_at else 0
                for c, (data, pos) in enumerate(wire_frames):
                    if dropped >> c & 1:
                        continue
                    frame, _ = fw.parse_fec_frame(data)
                    for rec in receiver.on_fec_frame(frame):
                        out.recovered.append(rec)
                        available.setdefault(rec[0], pos)
            out.groups.append(group)

        def emit():
            by_group: dict[int, list] = {}
            while sender.pending:
                pending = sender.pending.pop(0)
                wire_frames = []
                for f in fw.chunk_repair(pending, self.max_chunk):
                    data = fw.encode_fec_frame(f)
                    digest.update(data)
                    out.wire_bytes += self.packet_header + len(data)
                    wire_frames.append((data, out.wire_bytes))
                key = -1 if rlc else pending.repair_id >> 40
                by_group.setdefault(key, []).append((pending, wire_frames))
            for key, repairs in by_group.items():
                deliver(open_groups.pop(key), repairs)
                if not out.first_repairs:
                    out.first_repairs = [p for p, _ in repairs]
                out.last_repairs = [p for p, _ in repairs]

        for packet in packets:
            raw = sender.next_source_id()
            sender.commit_source(raw, packet)
            out.originals[raw] = packet
            out.wire_bytes += len(packet)
            open_groups.setdefault(-1 if rlc else raw >> 8, []).append((raw, out.wire_bytes))
            if sender.pending:
                emit()
        sender.flush()
        if sender.pending:
            emit()
        if len(available) == len(packets):
            out.dct_ms = max(available.values()) * 8e3 / DA2GC.bandwidth_bps + DA2GC.one_way_delay_us / 1e3
        return out

    def _samples(self, res: StreamResult) -> list[RepairSample]:
        """The first and last groups' repairs, with the packets they cover,
        for the GF(2^8) reference check."""
        samples = []
        for pending in res.first_repairs + res.last_repairs:
            hi = pending.repair_id >> 32
            if res.code == "rlc":
                ids = range(hi, hi + pending.nss)
            else:
                ids = [(hi >> 8 << 8) | o for o in range(pending.nss)]
            samples.append(RepairSample(
                code=res.code,
                index=hi & 0xFF,
                repairs=pending.nrs,
                seed=pending.repair_id & 0xFFFFFFFF,
                sources=[res.originals[i] for i in ids],
                payload=pending.payload,
            ))
        return samples

    def run(self, tracer: Optional[Tracer] = None) -> Round:
        digest = hashlib.sha256()
        results, op_ms = [], []
        with instrument(self.fx, tracer) if tracer is not None else Patches():
            start = perf_counter()
            for stream in self.streams:
                t = perf_counter()
                results.append(self._code_stream(*stream, digest))
                op_ms.append((perf_counter() - t) * 1000)
            wall = perf_counter() - start
        failures = []
        for res, (_, _, limit, _, _) in zip(results, self.streams):
            failures += checks.codec_failures(res.code, limit, res.originals, res.erased, res.recovered, res.groups)
            failures += checks.repair_failures(self._samples(res))
        done = [r.dct_ms for r in results if r.dct_ms is not None]
        return Round(
            wall_s=wall,
            attempted=self.attempted,
            failed=0,
            failures=failures,
            digests={"repair_frames": digest.hexdigest()},
            sim_dct_geomean_ms=geomean(done),
            wire_mb=sum(r.wire_bytes for r in results) / 1e6,
            op_ms=op_ms,
        )


WORKLOADS = {w.name: w for w in (Matrix, Fairness, Codec)}
