"""Per-layer spans around fecsim's public entry points.

``instrument`` replaces each entry point, where the layer above looks it
up, with a wrapper that records a span and a count.  A span's self time is
its duration minus the time of the spans it encloses, so the self times of
all layers plus the time spent outside every span add up to the traced
wall time.  Spans are aggregated by name while they close; nothing is
kept per call.

Layers, bottom up: gf256, rng, schemes, framework, frames, transport,
netem, experiments (which includes the command-line front end).
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Callable, Optional

import numpy as np

LAYERS = ("experiments", "netem", "transport", "frames", "framework", "schemes", "gf256", "rng")


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = [[0.0]]
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span called ``name``; ``count(counts, args,
        result)`` then tallies what the call did."""
        stack, self_s, total_s, calls, counts = (
            self._stack, self.self_s, self.total_s, self.calls, self.counts,
        )
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[name] += elapsed - children[0]
                total_s[name] += elapsed
                calls[name] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def total(self, *names: str) -> float:
        return sum(self.total_s.get(n, 0.0) for n in names)

    def ncalls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def _add(counts: dict, key: str, n: float) -> None:
    counts[key] = counts.get(key, 0) + n


def _row_op(counts, args, result) -> None:
    _, coeff, row = args
    if coeff:
        _add(counts, "row_ops", 1)
        _add(counts, "row_bytes", len(row))


def _matmul_ops(counts, args, result) -> None:
    ops = int(np.count_nonzero(np.asarray(args[0])))
    _add(counts, "row_ops", ops)
    _add(counts, "row_bytes", ops * result.shape[1])


def _solve_ops(counts, args, result) -> None:
    # Gauss-Jordan touches at most r rows per column: r * c row updates of
    # (matrix row + right-hand side) bytes.
    r, c = np.shape(args[0])
    _add(counts, "row_ops", r * c)
    _add(counts, "row_bytes", r * c * (c + np.shape(args[1])[-1]))


def _tally(key: str, size: Callable) -> Callable:
    def count(counts, args, result) -> None:
        _add(counts, key, size(args, result))

    return count


def _one(args, result) -> int:
    return 1


class _RepairCompletion:
    """Counts repair symbols whose every chunk reached a receiver."""

    def __init__(self) -> None:
        self._parts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __call__(self, counts, args, result) -> None:
        receiver, frame = args
        parts = self._parts.setdefault(receiver, {})
        chunks, fin = parts.get(frame.repair_id, (set(), None))
        chunks.add(frame.chunk_offset)
        if frame.fin:
            fin = frame.chunk_offset
        if fin is not None and len(chunks) == fin + 1:
            parts.pop(frame.repair_id, None)
            _add(counts, "repair_symbols_completed", 1)
        else:
            parts[frame.repair_id] = (chunks, fin)
        _add(counts, "recovered", len(result))


def instrument(fx, tracer: Tracer) -> Patches:
    """Wrap every entry point one fecsim layer calls in another.  ``fx``
    holds the fecsim modules; undo the returned patches to remove the
    spans."""
    xp, netem, transport, frames, framework, schemes, gf256, rng = (
        fx.experiments, fx.netem, fx.transport, fx.frames,
        fx.framework, fx.schemes, fx.gf256, fx.rng,
    )
    ack_frame = frames.AckFrame

    def count_acks(counts, args, packet) -> None:
        for f in packet.frames:
            if isinstance(f, ack_frame):
                _add(counts, "ack_frames", 1)
                _add(counts, "ack_ranges", len(f.ranges))

    recovered = _tally("recovered", lambda a, r: len(r))
    encoded = _tally("encoded_symbols", lambda a, r: len(r) if isinstance(r, list) else 1)
    decoded_one = _tally("decoded_symbols", _one)
    spans = [
        # experiments, called by the benchmark and by the CLI front end
        (fx.cli, "main", "experiments.cli_main", None),
        (xp, "run_matrix", "experiments.run_matrix", None),
        (xp, "run_transfer", "experiments.run_transfer", None),
        (xp, "fairness_experiment", "experiments.fairness_experiment", None),
        (xp, "fairness_run", "experiments.fairness_run", None),
        # netem, called by experiments
        (netem.Simulator, "run", "netem.run", None),
        # transport, called by experiments (construction) and netem hosts
        (transport.Connection, "__init__", "transport.init", None),
        (transport.Connection, "start", "transport.start", None),
        (transport.Connection, "on_datagram", "transport.on_datagram", None),
        (transport.Connection, "flush", "transport.flush", None),
        (transport.Connection, "on_timer", "transport.on_timer", None),
        (transport.Connection, "next_timer_us", "transport.next_timer_us", None),
        # frames, called by transport
        (transport, "encode_packet", "frames.encode_packet", None),
        (transport, "parse_packet", "frames.parse_packet", count_acks),
        # framework, called by transport, frames and the codec workload
        (framework.SenderFec, "next_source_id", "framework.next_source_id", None),
        (framework.SenderFec, "commit_source", "framework.commit_source", None),
        (framework.SenderFec, "flush", "framework.sender_flush", None),
        (framework.ReceiverFec, "on_source_symbol", "framework.on_source_symbol", recovered),
        (framework.ReceiverFec, "on_fec_frame", "framework.on_fec_frame", _RepairCompletion()),
        (framework, "chunk_repair", "framework.chunk_repair",
         _tally("repair_frames_sent", lambda a, r: len(r))),
        (framework, "encode_fec_frame", "framework.encode_fec_frame", None),
        (framework, "parse_fec_frame", "framework.parse_fec_frame", None),
        (frames, "parse_fec_frame", "framework.parse_fec_frame", None),
        # schemes, called by framework
        (schemes, "xor_encode", "schemes.encode_xor", encoded),
        (schemes, "rs_encode", "schemes.encode_rs", encoded),
        (schemes, "rlc_encode", "schemes.encode_rlc", encoded),
        (schemes, "xor_recover", "schemes.decode_xor",
         _tally("decoded_symbols", lambda a, r: sum(s is not None for s in a[0]) + 1)),
        (schemes, "rs_decode", "schemes.decode_rs",
         _tally("decoded_symbols", lambda a, r: len(a[0]) + len(a[1]))),
        (schemes.RlcDecoder, "add_source", "schemes.decode_rlc_source", decoded_one),
        (schemes.RlcDecoder, "add_repair", "schemes.decode_rlc_repair", decoded_one),
        (framework, "frame_symbol", "schemes.frame_symbol", None),
        (framework, "unframe_symbol", "schemes.unframe_symbol", None),
        # gf256, called by schemes
        (gf256, "addmul_row", "gf256.addmul_row", _row_op),
        (gf256, "matmul", "gf256.matmul", _matmul_ops),
        (gf256, "solve_linear_system", "gf256.solve_linear_system", _solve_ops),
        (gf256, "gf_pow", "gf256.gf_pow", None),
        # rng, called by netem loss models, framework, schemes, experiments
        (rng.SplitMix64, "next_float", "rng.next_float", _tally("draws", _one)),
        (rng.SplitMix64, "next_floats", "rng.next_floats", _tally("draws", lambda a, r: len(r))),
        (framework, "splitmix64_mix", "rng.splitmix64_mix", _tally("draws", _one)),
        (schemes, "xorshift32", "rng.xorshift32", _tally("draws", _one)),
        (xp, "derive_seed", "rng.derive_seed", _tally("draws", _one)),
    ]
    patches = Patches()
    for owner, attr, name, count in spans:
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    return patches
