"""Correctness checks for the benchmark's workloads.

Every check compares an output of fecsim with a value this file works out
on its own: physical floors from the path shape, byte counts from the
request sizes, medians from the per-repetition times, and repair payloads
from a pure-Python GF(2^8) multiply.  None of them compares against a
stored copy of an earlier output.  Each function returns a list of
failure messages; an empty list means the result passed.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

FIELD_POLY = 0x11D


@dataclass(frozen=True)
class PathShape:
    """The shape of an emulated path, as the benchmark defines it."""

    bandwidth_bps: int
    one_way_delay_us: int

    def dct_floor_us(self, payload_bytes: int) -> float:
        """Two round trips (handshake, then request and response) plus the
        time to clock the payload onto the bottleneck."""
        return 4 * self.one_way_delay_us + payload_bytes * 8e6 / self.bandwidth_bps

    def capacity_bytes(self, elapsed_us: int) -> float:
        return self.bandwidth_bps / 8 * elapsed_us / 1e6


@dataclass
class Transfer:
    """One download as the benchmark saw it."""

    size: int
    completed: bool
    dct_us: Optional[int]
    received: int
    wire_bytes: int


def transfer_failures(transfers: Sequence[Transfer], path: PathShape) -> list[str]:
    out = []
    for i, t in enumerate(transfers):
        if not t.completed or t.dct_us is None:
            out.append(f"transfer {i} ({t.size} B) never completed")
            continue
        if t.received != t.size:
            out.append(f"transfer {i}: client holds {t.received} B of {t.size} B")
        floor = path.dct_floor_us(t.size)
        if t.dct_us < floor:
            out.append(f"transfer {i}: DCT {t.dct_us} us below the floor {floor:.0f} us")
    return out


def wire_failures(wire_bytes: int, payload_bytes: int) -> list[str]:
    if wire_bytes < payload_bytes:
        return [f"{wire_bytes} B on the wire carry a {payload_bytes} B payload"]
    return []


def run_csv_failures(
    text: str,
    cells: Sequence[tuple[str, str, int]],
    reps: int,
    transfers: Sequence[Transfer],
) -> list[str]:
    """The run CSV against the transfers the benchmark watched.

    ``cells`` lists the expected (size label, variant, size bytes) rows in
    file order; each row's repetitions are the next ``reps`` transfers.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(cells):
        return [f"run CSV has {len(rows)} rows, expected {len(cells)}"]
    if len(transfers) != len(cells) * reps:
        return [f"watched {len(transfers)} transfers, expected {len(cells) * reps}"]
    out = []
    for i, (row, (size, variant, size_bytes)) in enumerate(zip(rows, cells)):
        got = (row["schema"], row["size"], row["variant"], row["size_bytes"])
        want = ("run.v1", size, variant, str(size_bytes))
        if got != want:
            out.append(f"run CSV row {i} is {got}, expected {want}")
            continue
        dcts = [t.dct_us for t in transfers[i * reps : (i + 1) * reps]]
        if None in dcts:
            continue  # already reported as an incomplete transfer
        if row["rep_dct_ms"] != ";".join(f"{d / 1000:.3f}" for d in dcts):
            out.append(f"run CSV row {i}: repetitions differ from the transfers")
        median = statistics.median(dcts)
        if row["dct_ms"] != f"{median / 1000:.3f}":
            out.append(f"run CSV row {i}: dct_ms {row['dct_ms']} is not the median {median / 1000:.3f}")
    return out


@dataclass
class ContentionRun:
    """One shared-bottleneck run as the benchmark saw it."""

    background: str
    fg: Transfer
    bg_received: int
    elapsed_us: int
    random_drops: int


def fairness_failures(runs: Sequence[ContentionRun], path: PathShape) -> list[str]:
    out = []
    for r in runs:
        if r.random_drops:
            out.append(f"{r.background}: {r.random_drops} random drops on a lossless path")
        delivered = r.fg.received + r.bg_received
        capacity = path.capacity_bytes(r.elapsed_us)
        if delivered > capacity:
            out.append(
                f"{r.background}: {delivered} B delivered in {r.elapsed_us} us, "
                f"the path carries at most {capacity:.0f} B"
            )
    return out


def fairness_csv_failures(
    text: str, backgrounds: Sequence[str], runs: Sequence[ContentionRun]
) -> list[str]:
    """The fairness CSV (one seed per background) against the runs watched."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 2 * len(backgrounds) or len(runs) != len(backgrounds):
        return [f"fairness CSV has {len(rows)} rows for {len(runs)} runs"]
    out = []
    for row, bg, run in zip(rows, backgrounds, runs):
        if (row["schema"], row["record"], row["background"]) != ("fairness.v1", "run", bg):
            out.append(f"fairness CSV run row for {bg} is {row}")
            continue
        if run.fg.dct_us is None:
            continue
        if row["fg_dct_ms"] != f"{run.fg.dct_us / 1000:.3f}":
            out.append(f"{bg}: fg_dct_ms {row['fg_dct_ms']} differs from {run.fg.dct_us} us")
        if row["bg_received_bytes"] != str(run.bg_received):
            out.append(f"{bg}: bg_received_bytes {row['bg_received_bytes']} differs from {run.bg_received}")
    for row, bg in zip(rows[len(backgrounds) :], backgrounds):
        runs_row = rows[backgrounds.index(bg)]
        if (row["record"], row["background"], row["fg_dct_ms"]) != ("summary", bg, runs_row["fg_dct_ms"]):
            out.append(f"fairness CSV summary for {bg} is {row}")
    return out


def digest_failures(digests: Sequence[dict], recorded: Optional[dict]) -> list[str]:
    """Every round of a run, and every earlier run of the same code and
    seed (``recorded``), must produce the same output hashes."""
    out = []
    for i, d in enumerate(digests[1:], 1):
        if d != digests[0]:
            out.append(f"round {i} output hashes {d} differ from round 0 {digests[0]}")
    if recorded is not None and digests and recorded != digests[0]:
        out.append(f"output hashes {digests[0]} differ from an earlier run's {recorded}")
    return out


# ---------------------------------------------------------------------------
# Codec checks


@dataclass
class CodeGroup:
    """One block (block codes) or window step (RLC) of a coded stream."""

    erasures: int  # erased source and repair symbols
    erased_sources: list[int]  # their source ids


def codec_failures(
    code: str,
    limit: int,
    originals: dict[int, bytes],
    erased: set[int],
    recovered: Sequence[tuple[int, bytes]],
    groups: Sequence[CodeGroup],
) -> list[str]:
    """Recovered packets against the originals the benchmark kept.

    ``limit`` is the number of erasures per group the code is guaranteed
    to repair under the workload's erasure plan.
    """
    out = []
    seen = set()
    for raw_id, data in recovered:
        if raw_id not in erased:
            out.append(f"{code}: reported recovery of {raw_id:#x}, which was received")
        elif raw_id in seen:
            out.append(f"{code}: recovered {raw_id:#x} twice")
        elif data != originals.get(raw_id):
            out.append(f"{code}: recovered {raw_id:#x} differs from the original")
        seen.add(raw_id)
    for g in groups:
        if g.erasures <= limit:
            lost = [s for s in g.erased_sources if s not in seen]
            if lost:
                out.append(
                    f"{code}: group with {g.erasures} erasures left "
                    f"{len(lost)} source(s) unrecovered, e.g. {lost[0]:#x}"
                )
    return out


def gf_mul(a: int, b: int) -> int:
    """Carry-less multiply of two bytes, reduced modulo x^8+x^4+x^3+x^2+1."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= FIELD_POLY
    return product


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return next(x for x in range(1, 256) if gf_mul(a, x) == 1)


@lru_cache(maxsize=256)
def _scale_table(coeff: int) -> bytes:
    return bytes(gf_mul(coeff, x) for x in range(256))


def frame(packet: bytes, width: int) -> bytes:
    """A packet as a ``width``-byte source symbol: 2-byte length, data, zeros."""
    return len(packet).to_bytes(2, "big") + packet + bytes(width - 2 - len(packet))


def combine(coeffs: Sequence[int], symbols: Sequence[bytes]) -> bytes:
    """sum(c_i * s_i) over GF(2^8), byte by byte."""
    acc = 0
    for c, sym in zip(coeffs, symbols):
        if c:
            acc ^= int.from_bytes(sym.translate(_scale_table(c)), "big")
    return acc.to_bytes(len(symbols[0]), "big")


@lru_cache(maxsize=None)
def rs_repair_rows(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Repair rows of the systematic (n, k) Reed-Solomon generator: the
    Vandermonde matrix over points 1..n times the inverse of its top k x k
    block."""

    def power(a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = gf_mul(out, a)
        return out

    v = [[power(i + 1, j) for j in range(k)] for i in range(n)]
    # Gauss-Jordan inverse of the top block.
    a = [row[:] + [int(i == j) for j in range(k)] for i, row in enumerate(v[:k])]
    for col in range(k):
        pivot = next(i for i in range(col, k) if a[i][col])
        a[col], a[pivot] = a[pivot], a[col]
        inv = gf_inv(a[col][col])
        a[col] = [gf_mul(inv, x) for x in a[col]]
        for i in range(k):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x ^ gf_mul(f, y) for x, y in zip(a[i], a[col])]
    top_inv = [row[k:] for row in a]
    rows = []
    for i in range(k, n):
        row = []
        for j in range(k):
            acc = 0
            for t in range(k):
                acc ^= gf_mul(v[i][t], top_inv[t][j])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def rlc_coefficients(seed: int, count: int) -> list[int]:
    """xorshift32 over the seed, low byte of each state, 0 taken as 1."""
    m = 0xFFFFFFFF
    state = seed & m
    out = []
    for _ in range(count):
        state ^= (state << 13) & m
        state ^= state >> 17
        state ^= (state << 5) & m
        out.append(state & 0xFF or 1)
    return out


@dataclass
class RepairSample:
    """A repair symbol as sent, with the source packets it covers."""

    code: str  # xor | rs | rlc
    index: int  # repair index inside the block (block codes)
    repairs: int  # repairs per block (block codes)
    seed: int  # coefficient seed (RLC)
    sources: list[bytes]  # covered packets, in offset / sequence order
    payload: bytes


def expected_repair(s: RepairSample) -> bytes:
    symbols = [frame(p, len(s.payload)) for p in s.sources]
    k = len(symbols)
    if s.code == "xor":
        coeffs = [1] * k
    elif s.code == "rs":
        coeffs = list(rs_repair_rows(k + s.repairs, k)[s.index])
    else:
        coeffs = rlc_coefficients(s.seed, k)
    return combine(coeffs, symbols)


def repair_failures(samples: Sequence[RepairSample]) -> list[str]:
    out = []
    for s in samples:
        if s.payload != expected_repair(s):
            out.append(f"{s.code}: repair payload differs from the GF(2^8) reference")
    return out
