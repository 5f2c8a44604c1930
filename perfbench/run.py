#!/usr/bin/env python3
"""fecsim benchmark: one command for every workload.

    python3 perfbench/run.py --workload matrix-da2gc --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  The run sets up, then repeats whole rounds
of the workload until ``--seconds`` have passed (at least one round),
checks every round, and prints as the last line of standard output one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
Diagnostics go to standard error, and a record of the run to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
LAYER_MODULES = ("gf256", "rng", "schemes", "framework", "frames", "transport", "netem", "experiments", "cli")


def load_fecsim() -> SimpleNamespace:
    """Import every fecsim layer from this checkout's ``src/``."""
    if not (SRC / "fecsim" / "__init__.py").is_file():
        raise SystemExit(f"no fecsim sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"fecsim.{name}") for name in LAYER_MODULES}
    where = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"imported fecsim from {where}, not from {SRC}")
    return SimpleNamespace(**modules)


def set_up(workload: str, seed: int):
    """Everything a run does before its first timed round."""
    fx = load_fecsim()
    OUT.mkdir(exist_ok=True)
    return fx, workloads.WORKLOADS[workload](fx, seed, OUT)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of ``SETUP_SAMPLES`` fresh processes that only set up.

    No timeout is passed: with one, ``subprocess`` polls the child every
    50 ms, which would quantise the measurement."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def code_digest() -> str:
    """Identifies the program and benchmark code a result came from."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def recorded_digests(key: str, digests: dict) -> dict | None:
    """The output hashes an earlier run of the same code and seed recorded
    (recording these if there were none)."""
    path = OUT / "hashes.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    if key not in table:
        table[key] = digests
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return None
    return table[key]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def round_seconds(rounds) -> float:
    """Host seconds of one round: each operation's median time over the
    rounds, summed, plus the median time spent between operations.  The
    host's speed swings within seconds, so a per-operation median filters a
    slow spell that hit part of a round, where a median of whole rounds
    keeps it."""
    per_op = sum(statistics.median(ms) for ms in zip(*(r.op_ms for r in rounds))) / 1000
    between = statistics.median(r.wall_s - sum(r.op_ms) / 1000 for r in rounds)
    return per_op + between


def end_to_end(rounds, setup_times) -> dict:
    first = rounds[0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (round_seconds(rounds), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "sim_dct_geomean_ms": (first.sim_dct_geomean_ms, "ms"),
        "wire_mb": (first.wire_mb, "MB"),
    }


def per_layer(rounds, traced, tracer) -> dict:
    """Means per traced round from the tracer; program counters, host-time
    percentiles and rates from the untraced rounds."""
    import layertrace

    n = len(traced)

    def span_self(name):
        return tracer.self_s.get(name, 0.0) / n

    def total(*names):
        return tracer.total(*names) / n

    def calls(*names):
        return tracer.ncalls(*names) / n

    def count(key):
        return tracer.counts.get(key, 0) / n

    program = rounds[0].counts
    untraced_wall = round_seconds(rounds)
    traced_wall = statistics.fmean(r.wall_s for r in traced)
    op_ms = [ms for r in rounds for ms in r.op_ms]
    layers = {layer: tracer.layer_self_s(layer) / n for layer in layertrace.LAYERS}
    encode = ("schemes.encode_xor", "schemes.encode_rs", "schemes.encode_rlc")
    decode = ("schemes.decode_xor", "schemes.decode_rs", "schemes.decode_rlc_source", "schemes.decode_rlc_repair")
    frames_calls = calls("frames.encode_packet", "frames.parse_packet")
    datagrams = calls("transport.on_datagram")
    gf_mb = count("row_bytes") / 1e6
    m = {
        "transport.datagrams_in": (datagrams, "count"),
        "transport.on_datagram_self_s": (span_self("transport.on_datagram"), "s"),
        "transport.flush_self_s": (span_self("transport.flush"), "s"),
        "transport.on_timer_self_s": (span_self("transport.on_timer"), "s"),
        "transport.us_per_datagram": (ratio(layers["transport"] * 1e6, datagrams), "us"),
        "transport.ack_frames": (count("ack_frames"), "count"),
        "transport.ack_ranges": (count("ack_ranges"), "count"),
        "transport.retransmissions": (program.get("retransmissions", 0), "count"),
        "transport.lost_packets": (program.get("lost_packets", 0), "count"),
        "transport.probe_packets": (program.get("probe_packets", 0), "count"),
        "transport.cwnd_reductions": (program.get("cwnd_reductions", 0), "count"),
        "frames.encode_calls": (calls("frames.encode_packet"), "count"),
        "frames.parse_calls": (calls("frames.parse_packet"), "count"),
        "frames.us_per_packet": (ratio(layers["frames"] * 1e6, frames_calls), "us"),
        "netem.events": (program.get("events", 0), "count"),
        "netem.events_per_s": (ratio(program.get("events", 0), untraced_wall), "1/s"),
        "netem.wire_packets": (program.get("wire_packets", 0), "count"),
        "netem.random_drops": (program.get("random_drops", 0), "count"),
        "netem.queue_drops": (program.get("queue_drops", 0), "count"),
        "rng.draws": (count("draws"), "count"),
        "experiments.transfer_ms_p50": (percentile(op_ms, 0.5), "ms"),
        "experiments.transfer_ms_p90": (percentile(op_ms, 0.9), "ms"),
        "gf256.row_ops": (count("row_ops"), "count"),
        "gf256.mb": (gf_mb, "MB"),
        "gf256.mb_per_s": (ratio(gf_mb, layers["gf256"]), "MB/s"),
        "schemes.encode_calls": (calls(*encode), "count"),
        "schemes.decode_calls": (calls(*decode), "count"),
        "schemes.encode_us_per_symbol": (ratio(total(*encode) * 1e6, count("encoded_symbols")), "us"),
        "schemes.decode_us_per_symbol": (ratio(total(*decode) * 1e6, count("decoded_symbols")), "us"),
        "framework.sources": (calls("framework.commit_source"), "count"),
        "framework.repair_frames_sent": (count("repair_frames_sent"), "count"),
        "framework.repair_frames_received": (calls("framework.on_fec_frame"), "count"),
        "framework.recovered": (count("recovered"), "count"),
        "framework.repair_yield": (ratio(count("recovered"), count("repair_symbols_completed")), "ratio"),
    }
    for layer, seconds in layers.items():
        m[f"{layer}.self_s"] = (seconds, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.residual_s"] = (traced_wall - sum(layers.values()), "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    fx, workload = set_up(args.workload, args.seed)
    setup_times = setup_seconds(args.workload, args.seed)
    tracer = workloads.Tracer() if args.trace else None
    rounds, traced, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for traces in [None] + ([tracer] if tracer else []):
            gc.collect()  # every round starts from the same heap
            try:
                r = workload.run(traces)
            except Exception:
                # a crash fails every operation of the round and ends the run
                traceback.print_exc()
                attempted += workload.attempted
                failed += workload.attempted
                failures.append("a round raised")
                break
            (traced if traces else rounds).append(r)
            attempted += r.attempted
            failed += r.failed
            failures += r.failures
        else:
            if time.perf_counter() - start < args.seconds:
                continue
        break

    if rounds:
        key = f"{code_digest()}:{args.workload}:{args.seed}"
        digests = [r.digests for r in rounds + traced]
        failures += workloads.checks.digest_failures(digests, recorded_digests(key, digests[0]))
        for name in ("sim_dct_geomean_ms", "wire_mb"):
            if len({getattr(r, name) for r in rounds + traced}) > 1:
                failures.append(f"{name} differs between rounds of one run")
    complete = bool(rounds) and (not args.trace or bool(traced))
    metrics = {}
    if complete:
        metrics = per_layer(rounds, traced, tracer) if args.trace else end_to_end(rounds, setup_times)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "round_wall_s": [r.wall_s for r in rounds],
        "digests": rounds[0].digests if rounds else None,
        "failures": failures,
        "spans": {
            "self_s": tracer.self_s, "calls": tracer.calls, "counts": tracer.counts,
        } if traced else None,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": complete and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
