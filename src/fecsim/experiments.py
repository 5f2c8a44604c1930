"""Experiment harness: path presets, Latin-hypercube path sampling,
single transfers, paired download-completion-time comparisons and the
shared-bottleneck fairness study.

Every run is a pure function of its seed.  Result files are CSV (with a
JSON mirror) carrying a schema tag in the first column and fixed number
formatting (millisecond fields as ``.3f``, ratio fields as ``.6f``), so
repeating a run yields a byte-identical file.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .netem import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_QUEUE_PACKETS,
    GilbertElliottLoss,
    Host,
    Network,
    SimulationRunaway,
    Simulator,
    TraceLog,
    UniformLoss,
)
from .rng import derive_seed
from .transport import (
    Connection,
    ConnectionConfig,
    FecConfig,
    STRATEGY_RECOVERED_FRAME,
    Stats,
)

RUN_SCHEMA = "run.v1"
COMPARE_SCHEMA = "compare.v1"
FAIRNESS_SCHEMA = "fairness.v1"

RUN_COLUMNS = [
    "schema",
    "scenario",
    "variant",
    "strategy",
    "size",
    "size_bytes",
    "seed",
    "reps",
    "dct_ms",
    "rep_dct_ms",
    "wire_bytes",
    "retransmissions",
    "recoveries",
]
COMPARE_COLUMNS = [
    "schema",
    "record",
    "scenario",
    "size",
    "seed",
    "variant_a",
    "variant_b",
    "dct_a_ms",
    "dct_b_ms",
    "ratio",
    "fraction",
]
FAIRNESS_COLUMNS = [
    "schema",
    "record",
    "background",
    "seed",
    "fg_start_ms",
    "fg_dct_ms",
    "bg_received_bytes",
]


class UnknownPreset(KeyError):
    """No path preset under that name."""


class ConfigMismatch(ValueError):
    """Two record sets disagree on anything other than the variant."""


@contextmanager
def open_output(path: str):
    """Open ``path`` for writing; "-" means stdout."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_csv(path: str, columns: Sequence[str], rows) -> None:
    """Write ``rows`` (dicts keyed by column name) under a ``columns``
    header; a column a row leaves out is written empty."""
    with open_output(path) as fh:
        writer = csv.DictWriter(fh, columns, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Scenarios

@dataclass(frozen=True)
class LossSpec:
    kind: str  # none | uniform | ge
    p: float = 0.0
    r: float = 0.0
    k: float = 1.0
    h: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "uniform", "ge"):
            raise ValueError(f"unknown loss kind {self.kind!r}")

    def make(self, seed: int):
        if self.kind == "none":
            return None
        if self.kind == "uniform":
            return UniformLoss(self.p, seed=seed)
        return GilbertElliottLoss(self.p, self.r, self.k, self.h, seed=seed)


@dataclass(frozen=True)
class Scenario:
    """One emulated path: symmetric bandwidth/delay plus a loss process
    shared by both directions."""

    name: str
    bandwidth_bps: int
    one_way_delay_us: int
    loss: LossSpec
    queue_packets: int = DEFAULT_QUEUE_PACKETS


# Narrow-band aeronautical path presets: a direct air-to-ground shape and
# a much longer satellite shape.
PRESETS: dict[str, Scenario] = {
    "da2gc": Scenario(
        "da2gc", 468_000, 131_000, LossSpec("uniform", p=0.033)
    ),
    "mss": Scenario(
        "mss", 1_890_000, 380_500, LossSpec("uniform", p=0.06)
    ),
}


def preset(name: str) -> Scenario:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(name) from None


# Sampling box for randomised path exploration.
PARAMETER_BOX: dict[str, tuple[float, float]] = {
    "bandwidth_mbps": (0.3, 10.0),
    "loss_p": (0.01, 0.08),
    "loss_r": (0.08, 0.5),
    "loss_k": (0.98, 1.0),
    "loss_h": (0.0, 0.1),
    "one_way_delay_ms": (100.0, 400.0),
}

VARIANTS: dict[str, Optional[FecConfig]] = {
    "baseline": None,
    "rs": FecConfig.rs(30, 20),
    "rlc": FecConfig.rlc(3, 2, 20),
    "xor": FecConfig.xor(4, 4),
}

SIZES: dict[str, int] = {
    "1k": 1_000,
    "10k": 10_000,
    "50k": 50_000,
    "1m": 1_000_000,
}

DEFAULT_REPS = 9
DEFAULT_VARIANTS = ("baseline", "rs", "rlc")


def latin_hypercube(
    seed: int, count: int, box: Mapping[str, tuple[float, float]]
) -> list[dict[str, float]]:
    """``count`` stratified samples of the box: every dimension is split
    into ``count`` equal bins, each used exactly once (bin midpoints,
    independently shuffled per dimension)."""
    if count < 1:
        raise ValueError("need at least one sample")
    rnd = random.Random(seed)
    perms: dict[str, list[int]] = {}
    for name in box:
        perm = list(range(count))
        rnd.shuffle(perm)
        perms[name] = perm
    samples = []
    for i in range(count):
        point = {}
        for name, (lo, hi) in box.items():
            u = (perms[name][i] + 0.5) / count
            point[name] = lo + u * (hi - lo)
        samples.append(point)
    return samples


def lhs_scenarios(
    seed: int,
    count: int,
    box: Optional[Mapping[str, tuple[float, float]]] = None,
) -> list[Scenario]:
    """Bursty-loss scenarios drawn by Latin-hypercube sampling."""
    box = dict(PARAMETER_BOX if box is None else box)
    if set(box) != set(PARAMETER_BOX):
        raise ValueError(f"sampling dimensions {sorted(box)} are not {sorted(PARAMETER_BOX)}")
    _check_box(box)
    return [
        Scenario(
            name=f"lhs{i:03d}",
            bandwidth_bps=int(round(point["bandwidth_mbps"] * 1e6)),
            one_way_delay_us=int(round(point["one_way_delay_ms"] * 1e3)),
            loss=LossSpec(
                "ge",
                p=point["loss_p"],
                r=point["loss_r"],
                k=point["loss_k"],
                h=point["loss_h"],
            ),
        )
        for i, point in enumerate(latin_hypercube(seed, count, box))
    ]


def _check_box(box: Mapping[str, tuple[float, float]]) -> None:
    """Raise ``ValueError`` naming the first dimension whose bounds are
    inverted or outside its domain: probabilities lie in [0, 1]; bandwidth
    (at least 1 bit/s) and delay (not negative) stay finite in bit/s and us.
    A loss chain moves only if ``loss_p`` or ``loss_r`` can be positive."""
    for name, (lo, hi) in box.items():
        if lo > hi:
            raise ValueError(f"{name}: min {lo} exceeds max {hi}")
        top = 1.0 if name.startswith("loss_") else sys.float_info.max / 1e6
        if not 0.0 <= lo <= hi <= top or (name == "bandwidth_mbps" and lo * 1e6 < 1.0):
            raise ValueError(f"{name}: bounds {lo} and {hi} leave the dimension's domain")
    if box["loss_p"][1] + box["loss_r"][1] <= 0.0:
        raise ValueError("loss_p and loss_r: both maxima are 0, so p + r is never positive")


def parse_ranges_file(path: str) -> dict[str, tuple[float, float]]:
    """Read a sampling box from flat ``<dimension>_min = value`` /
    ``<dimension>_max = value`` lines (# starts a comment).  Dimensions
    not mentioned keep their default bounds, so an empty file selects
    the stock box.  A bad value or box raises ``ValueError``."""
    box = {name: [lo, hi] for name, (lo, hi) in PARAMETER_BOX.items()}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            for suffix, idx in (("_min", 0), ("_max", 1)):
                if key.endswith(suffix) and key[: -len(suffix)] in box:
                    try:
                        box[key[: -len(suffix)]][idx] = float(value)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: {key} is not a number") from None
                    break
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    _check_box(box)
    return {name: (lo, hi) for name, (lo, hi) in box.items()}


# ---------------------------------------------------------------------------
# Single transfers

@dataclass
class TransferResult:
    completed: bool
    dct_us: Optional[int]
    wire_bytes: int
    retransmissions: int
    recoveries: int
    client_stats: Stats
    server_stats: Stats
    random_drops: int
    queue_drops: int
    trace_text: Optional[str] = None


def _attach_transfer(
    sim: Simulator,
    network: Network,
    config: ConnectionConfig,
    request_size: int,
    prefix: str = "",
    trace: Optional[TraceLog] = None,
) -> tuple[Connection, Connection, Host]:
    """The client and server of one download, each on a host named
    ``prefix`` + role, attached to ``network`` as a pair."""

    def tracer(role: str):
        return trace.connection_tracer(role) if trace else None

    client = Connection(
        "client", config, request_size=request_size, trace=tracer("client")
    )
    server = Connection("server", config, trace=tracer("server"))
    client_host = Host(sim, client, prefix + "client")
    network.attach_pair(client_host, Host(sim, server, prefix + "server"))
    return client, server, client_host


def run_transfer(
    scenario: Scenario,
    fec: Optional[FecConfig],
    size_bytes: int,
    seed: int,
    strategy: str = STRATEGY_RECOVERED_FRAME,
    *,
    loss_model=None,
    collect_trace: bool = False,
    max_events: int = DEFAULT_MAX_EVENTS,
    watch: Optional[Callable] = None,
) -> TransferResult:
    """One client/server download over the scenario's path.

    The emulation runs to full idle, so trailing repair symbols and
    acknowledgements count towards the wire-byte total; the completion
    time is stamped when the client has the entire response, measured
    from the start of its connection attempt.  ``watch``, if given, is
    called as ``watch(sim, network, (client, server))`` before the first event.
    """
    sim = Simulator(max_events=max_events)
    trace = TraceLog(sim) if collect_trace else None
    loss = scenario.loss.make(seed) if loss_model is None else loss_model
    network = Network(
        sim,
        scenario.bandwidth_bps,
        scenario.one_way_delay_us,
        scenario.queue_packets,
        loss=loss,
        trace=trace.link_tracer() if trace else None,
    )
    config = ConnectionConfig(fec=fec, recovered_strategy=strategy)
    client, server, client_host = _attach_transfer(
        sim, network, config, size_bytes, trace=trace
    )
    if watch is not None:
        watch(sim, network, (client, server))
    client_host.start()
    try:
        sim.run()
    except SimulationRunaway as exc:
        fec_label = fec.label() if fec else "baseline"
        raise SimulationRunaway(
            f"{scenario.name}/{fec_label}/{size_bytes}B seed {seed}: {exc}"
        ) from None
    return TransferResult(
        completed=client.complete_at_us is not None,
        dct_us=client.complete_at_us,
        wire_bytes=network.wire_bytes,
        retransmissions=client.stats.retransmitted_packets
        + server.stats.retransmitted_packets,
        recoveries=client.stats.recovered_packets
        + server.stats.recovered_packets,
        client_stats=client.stats,
        server_stats=server.stats,
        random_drops=network.random_drops,
        queue_drops=network.queue_drops,
        trace_text=trace.text() if trace else None,
    )


# ---------------------------------------------------------------------------
# Run matrices

@dataclass(frozen=True)
class ExperimentRecord:
    """One scenario x variant x size cell: the per-repetition completion
    times, their median, and the wire metrics of the median repetition.
    ``dct_us`` is None when a repetition did not complete (such cells are
    logged but excluded from ratio tables); ``failure`` then says how:
    ``"runaway"`` when it exhausted the event budget, ``"incomplete"`` when
    the emulation went idle with the download unfinished.  The run CSV
    writes both as an empty median, so ``failure`` is not compared."""

    scenario: str
    variant: str
    strategy: str
    size_label: str
    size_bytes: int
    seed: int
    reps: int
    dct_us: Optional[int]
    rep_dcts_us: tuple[int, ...]
    wire_bytes: int
    retransmissions: int
    recoveries: int
    failure: str = field(default="", compare=False)


def run_matrix(
    scenarios: Sequence[Scenario],
    variants: Mapping[str, Optional[FecConfig]],
    sizes: Mapping[str, int],
    reps: int = DEFAULT_REPS,
    base_seed: int = 0,
    strategy: str = STRATEGY_RECOVERED_FRAME,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> list[ExperimentRecord]:
    """Median download-completion time over ``reps`` repetitions for every
    scenario x size x variant cell.

    The repetition seeds depend on the scenario and size only, never on
    the variant, so two variants face identical loss processes and their
    records pair up for ratio analysis.  The reported wire bytes,
    retransmission and recovery counts come from the repetition that
    produced the median completion time.  A cell with a repetition that
    exhausts the event budget or goes idle unfinished is recorded with an
    empty median instead of aborting the sweep; ``rep_dcts_us`` holds the
    repetitions that completed.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    records = []
    for si, scenario in enumerate(scenarios):
        for zi, (size_label, size_bytes) in enumerate(sizes.items()):
            cell_seed = derive_seed(base_seed, si, zi)
            for variant_name, fec in variants.items():
                results = []
                failure = ""
                try:
                    for rep in range(reps):
                        results.append(
                            run_transfer(
                                scenario,
                                fec,
                                size_bytes,
                                derive_seed(cell_seed, rep),
                                strategy,
                                max_events=max_events,
                            )
                        )
                except SimulationRunaway:
                    failure = "runaway"
                done = [r for r in results if r.dct_us is not None]
                if not failure and len(done) < reps:
                    failure = "incomplete"
                median = None if failure else sorted(done, key=lambda r: r.dct_us)[reps // 2]
                records.append(
                    ExperimentRecord(
                        scenario=scenario.name,
                        variant=variant_name,
                        strategy=strategy,
                        size_label=size_label,
                        size_bytes=size_bytes,
                        seed=cell_seed,
                        reps=reps,
                        dct_us=median.dct_us if median else None,
                        rep_dcts_us=tuple(r.dct_us for r in done),
                        wire_bytes=median.wire_bytes if median else 0,
                        retransmissions=median.retransmissions if median else 0,
                        recoveries=median.recoveries if median else 0,
                        failure=failure,
                    )
                )
    return records


def _record_row(r: ExperimentRecord) -> dict:
    return {
        "schema": RUN_SCHEMA,
        "scenario": r.scenario,
        "variant": r.variant,
        "strategy": r.strategy,
        "size": r.size_label,
        "size_bytes": r.size_bytes,
        "seed": r.seed,
        "reps": r.reps,
        "dct_ms": "" if r.dct_us is None else f"{r.dct_us / 1000:.3f}",
        "rep_dct_ms": ";".join(f"{d / 1000:.3f}" for d in r.rep_dcts_us),
        "wire_bytes": r.wire_bytes,
        "retransmissions": r.retransmissions,
        "recoveries": r.recoveries,
    }


def write_run_csv(records: Sequence[ExperimentRecord], path: str) -> None:
    _write_csv(path, RUN_COLUMNS, map(_record_row, records))


def write_run_json(records: Sequence[ExperimentRecord], path: str) -> None:
    """JSON mirror of the run CSV: a list of objects with the same keys
    and the same string formatting."""
    rows = [
        {c: str(row[c]) for c in RUN_COLUMNS} for row in map(_record_row, records)
    ]
    with open_output(path) as fh:
        json.dump(rows, fh, indent=2, sort_keys=False)
        fh.write("\n")


def read_run_csv(path: str) -> list[ExperimentRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RUN_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: unsupported schema, missing {', '.join(missing)}")
        for row in reader:
            # DictReader keys surplus fields under None and fills missing ones with None.
            if None in row or None in row.values():
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(reader.fieldnames)} fields"
                )
            if row["schema"] != RUN_SCHEMA:
                raise ValueError(
                    f"{path}:{reader.line_num}: unsupported schema {row['schema']!r}"
                )
            try:
                record = ExperimentRecord(
                    scenario=row["scenario"],
                    variant=row["variant"],
                    strategy=row["strategy"],
                    size_label=row["size"],
                    size_bytes=int(row["size_bytes"]),
                    seed=int(row["seed"]),
                    reps=int(row["reps"]),
                    dct_us=round(float(row["dct_ms"]) * 1000)
                    if row["dct_ms"]
                    else None,
                    rep_dcts_us=tuple(
                        round(float(ms) * 1000)
                        for ms in row["rep_dct_ms"].split(";")
                        if ms
                    ),
                    wire_bytes=int(row["wire_bytes"]),
                    retransmissions=int(row["retransmissions"]),
                    recoveries=int(row["recoveries"]),
                )
                if record.dct_us is not None and record.dct_us <= 0:  # a ratio's divisor
                    raise ValueError(f"dct_ms {row['dct_ms']} is not positive")
            except (ValueError, OverflowError) as exc:  # a bad or infinite number
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Paired comparison

@dataclass(frozen=True)
class ComparePair:
    scenario: str
    size_label: str
    seed: int
    variant_a: str
    variant_b: str
    dct_a_us: int
    dct_b_us: int

    @property
    def ratio(self) -> float:
        return self.dct_a_us / self.dct_b_us


@dataclass
class CompareResult:
    pairs: list[ComparePair]
    ecdf: list[tuple[float, float]]
    fraction_le_one: float
    median_ratio: float
    dropped: int  # cells excluded because one side never completed


def compare_records(
    records_a: Sequence[ExperimentRecord],
    records_b: Sequence[ExperimentRecord],
) -> CompareResult:
    """Pair two record sets cell by cell; the ratio is DCT_a / DCT_b.

    Cells pair on (scenario, size, seed).  The two sets must describe
    the same cells with the same strategy, byte size and repetition
    count - only the variant may differ - otherwise
    :class:`ConfigMismatch` is raised.  Pairs where either side has no
    median (failed cell) are dropped from the table but counted.
    """
    def index(records):
        out = {}
        for r in records:
            key = (r.scenario, r.size_label, r.seed)
            if key in out:
                raise ConfigMismatch(f"duplicate cell {key} in one set")
            out[key] = r
        return out

    side_a, side_b = index(records_a), index(records_b)
    if not side_a or not side_b:
        raise ConfigMismatch("empty record set")
    if set(side_a) != set(side_b):
        odd = sorted(set(side_a) ^ set(side_b))[:3]
        raise ConfigMismatch(f"unpaired cells, e.g. {odd}")
    pairs = []
    dropped = 0
    for key in sorted(side_a):
        ra, rb = side_a[key], side_b[key]
        for field_name in ("strategy", "size_bytes", "reps"):
            if getattr(ra, field_name) != getattr(rb, field_name):
                raise ConfigMismatch(
                    f"{key}: {field_name} differs "
                    f"({getattr(ra, field_name)!r} vs {getattr(rb, field_name)!r})"
                )
        if ra.dct_us is None or rb.dct_us is None:
            dropped += 1
            continue
        pairs.append(
            ComparePair(
                ra.scenario,
                ra.size_label,
                ra.seed,
                ra.variant,
                rb.variant,
                ra.dct_us,
                rb.dct_us,
            )
        )
    if not pairs:
        raise ConfigMismatch("no completed pairs to compare")
    ratios = sorted(p.ratio for p in pairs)
    n = len(ratios)
    ecdf = [(ratio, (i + 1) / n) for i, ratio in enumerate(ratios)]
    return CompareResult(
        pairs=pairs,
        ecdf=ecdf,
        fraction_le_one=sum(1 for r in ratios if r <= 1.0) / n,
        median_ratio=statistics.median(ratios),
        dropped=dropped,
    )


def write_compare_csv(result: CompareResult, path: str) -> None:
    rows = [
        {
            "schema": COMPARE_SCHEMA,
            "record": "pair",
            "scenario": p.scenario,
            "size": p.size_label,
            "seed": p.seed,
            "variant_a": p.variant_a,
            "variant_b": p.variant_b,
            "dct_a_ms": f"{p.dct_a_us / 1000:.3f}",
            "dct_b_ms": f"{p.dct_b_us / 1000:.3f}",
            "ratio": f"{p.ratio:.6f}",
        }
        for p in result.pairs
    ]
    points = [("ecdf", point) for point in result.ecdf]
    points.append(("summary", (result.median_ratio, result.fraction_le_one)))
    rows += [
        {
            "schema": COMPARE_SCHEMA,
            "record": record,
            "ratio": f"{ratio:.6f}",
            "fraction": f"{fraction:.6f}",
        }
        for record, (ratio, fraction) in points
    ]
    _write_csv(path, COMPARE_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Fairness

FAIRNESS_BACKGROUNDS = ("baseline", "recovered_frame", "silent_ack")
FAIRNESS_BG_FEC = FecConfig.rlc(7, 6, 20)
FAIRNESS_FG_SIZE = 10_000_000
FAIRNESS_BG_SIZE = 16_000_000
FAIRNESS_FG_DELAY_US = 5_000_000
FAIRNESS_JITTER_US = 1_000_000
# The contention outcome is sensitive to the bottleneck queue depth: a
# deep queue confines losses to the foreground flow's slow-start shock,
# which is the phase where masking recovery signals pays off.
FAIRNESS_QUEUE_PACKETS = 250


@dataclass(frozen=True)
class FairnessRun:
    background: str
    seed: int
    fg_start_us: int
    fg_dct_us: int
    bg_received_bytes: int


def fairness_run(
    background: str, seed: int, *, watch: Optional[Callable] = None
) -> FairnessRun:
    """One shared-bottleneck contention run.

    A background 16 MB download starts at t=0 and saturates the path; a
    foreground 10 MB download (plain transport, no FEC) joins five
    seconds later plus a seed-dependent jitter below one second.  The
    path is the long-delay preset without random loss, so every loss is
    a congestion (queue) drop.  The run stops the moment the foreground
    client finishes.

    ``background`` selects the competing flow's behaviour: "baseline"
    (no FEC) or FEC with the "recovered_frame" / "silent_ack" recovery
    signalling strategies.  ``watch`` is called as ``watch(sim, network,
    (fg_client, fg_server, bg_client, bg_server))`` before the first event.
    """
    if background == "baseline":
        bg_config = ConnectionConfig(fec=None)
    elif background in ("recovered_frame", "silent_ack"):
        bg_config = ConnectionConfig(
            fec=FAIRNESS_BG_FEC, recovered_strategy=background
        )
    else:
        raise ValueError(f"unknown background behaviour {background!r}")
    sim = Simulator()
    mss = PRESETS["mss"]
    network = Network(
        sim, mss.bandwidth_bps, mss.one_way_delay_us, FAIRNESS_QUEUE_PACKETS
    )
    fg_client, fg_server, fg_host = _attach_transfer(
        sim, network, ConnectionConfig(fec=None), FAIRNESS_FG_SIZE, "fg_"
    )
    bg_client, bg_server, bg_host = _attach_transfer(
        sim, network, bg_config, FAIRNESS_BG_SIZE, "bg_"
    )
    if watch is not None:
        watch(sim, network, (fg_client, fg_server, bg_client, bg_server))

    bg_host.start()
    fg_start = FAIRNESS_FG_DELAY_US + derive_seed(seed, 17) % (FAIRNESS_JITTER_US + 1)
    sim.schedule_at(fg_start, Host.start, fg_host)
    sim.run(stop_when=lambda: fg_client.complete_at_us is not None)
    if fg_client.complete_at_us is None:
        raise SimulationRunaway(
            f"fairness/{background} seed {seed} never completed"
        )
    assert network.random_drops == 0
    return FairnessRun(
        background=background,
        seed=seed,
        fg_start_us=fg_start,
        fg_dct_us=fg_client.complete_at_us - fg_start,
        bg_received_bytes=bg_client.received_bytes,
    )


def fairness_experiment(
    base_seed: int = 0, count: int = 9
) -> tuple[list[FairnessRun], dict[str, float]]:
    """Run the contention study over ``count`` seeds per background;
    returns the runs and the median foreground completion time (us) per
    background behaviour."""
    if count < 1:
        raise ValueError("count must be positive")
    runs = [
        fairness_run(background, derive_seed(base_seed, i))
        for background in FAIRNESS_BACKGROUNDS
        for i in range(count)
    ]
    medians = {
        background: statistics.median(
            r.fg_dct_us for r in runs if r.background == background
        )
        for background in FAIRNESS_BACKGROUNDS
    }
    return runs, medians


def write_fairness_csv(
    runs: Sequence[FairnessRun], medians: Mapping[str, float], path: str
) -> None:
    rows = [
        {
            "schema": FAIRNESS_SCHEMA,
            "record": "run",
            "background": r.background,
            "seed": r.seed,
            "fg_start_ms": f"{r.fg_start_us / 1000:.3f}",
            "fg_dct_ms": f"{r.fg_dct_us / 1000:.3f}",
            "bg_received_bytes": r.bg_received_bytes,
        }
        for r in runs
    ]
    rows += [
        {
            "schema": FAIRNESS_SCHEMA,
            "record": "summary",
            "background": background,
            "fg_dct_ms": f"{median / 1000:.3f}",
        }
        for background, median in medians.items()
    ]
    _write_csv(path, FAIRNESS_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Loss model traces

def loss_trace_lines(model, count: int) -> list[str]:
    """``index state deliver|drop`` lines for ``count`` decisions."""
    lines = []
    for i in range(count):
        deliver = model.decide(None)
        lines.append(f"{i} {model.state} {'deliver' if deliver else 'drop'}")
    return lines
