"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single ``ACCEPTANCE <n> PASS|FAIL - <what>`` line
(visible under ``pytest -s``) and then asserts, so a plain pytest run
fails loudly on any regression.  The numbered criteria:

 1. erasure-code exactness (exhaustive + randomized)
 2. serialization-delay anchor at 0.468 Mbps
 3. tail-loss rescue margin on the da2gc path
 4. code-rate 2/3 wire/time overhead on a loss-free 1 MB transfer
 5. block vs sliding-window recovery latency, verified on event traces
 6. foreground fairness ordering of the background behaviours, and the
    pinned bytes of the first seed's fairness CSV
 7. bursty-loss model statistics against the analytic stationary rate
 8. small-file benefit / large-file penalty trend on the mss path
 9. byte-identical CSV, with pinned bytes, when the default matrix is
    re-run with one seed
"""

import hashlib
import itertools
import random
import re
import statistics
import time

import numpy as np

from fecsim import experiments as xp
from fecsim.cli import main as cli_main
from fecsim.experiments import LossSpec, Scenario, preset, run_transfer
from fecsim.netem import GilbertElliottLoss, PredicateLoss, serialization_us
from fecsim.rng import derive_seed
from fecsim.schemes import (
    BlockCodeParams,
    ConvolutionalParams,
    RlcDecoder,
    Unrecoverable,
    frame_symbol,
    rlc_encode,
    rs_decode,
    rs_encode,
)
from fecsim.transport import FecConfig


# sha256 of `fecsim run --seed 0` and `fecsim fairness --seed 0 --count 1`,
# recorded when their bytes last changed on purpose
RUN_CSV_SHA256 = "71c6cf71395e78124d0f4be626670f275e267e99f93f7b62bfcdea28470c4381"
FAIRNESS_CSV_SHA256 = "e169c8275f762217deddf7381b1940d577152c33493925f8cd891171ba30c7de"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(num: int, desc: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {verdict} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _random_symbols(rnd, count, width=64):
    return [
        frame_symbol(bytes(rnd.randrange(256) for _ in range(width - 24)), width)
        for _ in range(count)
    ]


def _drop_first_response_stream():
    state = {"n": 0}

    def fn(d):
        if d.src == "server" and d.kind == "stream":
            state["n"] += 1
            return state["n"] == 1
        return False

    return PredicateLoss(fn)


# ---------------------------------------------------------------------------
# 1. Erasure-code exactness


def test_criterion_01_erasure_code_exactness():
    t0 = time.perf_counter()

    # RS(6,4): every pattern of <=2 losses recovers byte-exactly, every
    # pattern of 3 losses fails.
    p64 = BlockCodeParams(6, 4)
    rnd = random.Random(1)
    sources = _random_symbols(rnd, 4)
    repairs = rs_encode(sources, p64)

    def survivors(missing):
        srcs = {i: sources[i] for i in range(4) if i not in missing}
        reps = {
            r.scheme_specific: r.payload
            for r in repairs
            if 4 + r.scheme_specific not in missing
        }
        return srcs, reps

    small_ok = True
    for e in range(3):
        for missing in itertools.combinations(range(6), e):
            srcs, reps = survivors(missing)
            out = rs_decode(srcs, reps, p64)
            for i in missing:
                if i < 4 and not np.array_equal(out[i], sources[i]):
                    small_ok = False
    for missing in itertools.combinations(range(6), 3):
        srcs, reps = survivors(missing)
        try:
            rs_decode(srcs, reps, p64)
            small_ok = False
        except Unrecoverable:
            pass

    # RS(30,20): 10^4 random trials of up to 10 erasures all recover.
    p3020 = BlockCodeParams(30, 20)
    rnd = random.Random(2)
    block = _random_symbols(rnd, 20)
    block_repairs = rs_encode(block, p3020)
    big_ok = True
    for _ in range(10_000):
        erased = rnd.randrange(1, 11)
        missing = set(rnd.sample(range(30), erased))
        srcs = {i: block[i] for i in range(20) if i not in missing}
        reps = {
            r.scheme_specific: r.payload
            for r in block_repairs
            if 20 + r.scheme_specific not in missing
        }
        out = rs_decode(srcs, reps, p3020)
        for i in missing:
            if i < 20 and not np.array_equal(out[i], block[i]):
                big_ok = False

    # RLC(3,2,20): 10^4 random single-loss trials; the loss is recovered
    # within 2 further emitted symbols (repair after every 2 sources plus
    # a trailing flush repair).
    params = ConvolutionalParams(3, 2, 20)
    rnd = random.Random(3)
    pool = _random_symbols(rnd, 60, width=48)
    rlc_ok = True
    for _ in range(10_000):
        total = rnd.randrange(2, 15)
        offset = rnd.randrange(len(pool) - total)
        sources = pool[offset : offset + total]
        lost = rnd.randrange(total)
        dec = RlcDecoder(window=params.c)
        emitted = 0
        recovered_after = [None]

        def feed(result):
            for seq, sym in result:
                if seq == lost and np.array_equal(sym, sources[lost]):
                    recovered_after[0] = emitted
                else:
                    recovered_after[0] = -1

        for i, s in enumerate(sources):
            if i != lost:
                feed(dec.add_source(i, s))
            if i > lost and recovered_after[0] is None:
                emitted += 1
            if (i + 1) % params.k == 0:
                start = max(0, i + 1 - params.c)
                repair = rlc_encode(sources[start : i + 1], start, seed=i)
                if i >= lost and recovered_after[0] is None:
                    emitted += 1
                feed(dec.add_repair(start, i + 1 - start, i, repair.payload))
        if recovered_after[0] is None and total % params.k != 0:
            start = max(0, total - params.c)
            repair = rlc_encode(sources[start:], start, seed=total + 1)
            emitted += 1
            feed(dec.add_repair(start, total - start, total + 1, repair.payload))
        if recovered_after[0] is None or not 0 <= recovered_after[0] <= 2:
            rlc_ok = False

    elapsed = time.perf_counter() - t0
    _report(
        1,
        f"erasure-code exactness: rs(6,4) exhaustive, rs(30,20) and "
        f"rlc(3,2,20) x10^4 trials in {elapsed:.1f}s (budget 60s)",
        small_ok and big_ok and rlc_ok and elapsed < 60.0,
    )


# ---------------------------------------------------------------------------
# 2. Serialization anchor


def test_criterion_02_serialization_anchor():
    got = serialization_us(1200, 468_000)
    _report(
        2,
        f"1200 B at 0.468 Mbps serializes in {got/1000:.2f} ms "
        f"(20.51 ms +/- 0.05 ms)",
        20_460 <= got <= 20_560,
    )


# ---------------------------------------------------------------------------
# 3. Tail-loss anchor


def test_criterion_03_tail_loss_anchor():
    sc = preset("da2gc")
    t0 = time.perf_counter()
    base = run_transfer(sc, None, 1_000, 7, loss_model=_drop_first_response_stream())
    fec = run_transfer(
        sc,
        FecConfig.rlc(3, 2, 20),
        1_000,
        7,
        loss_model=_drop_first_response_stream(),
    )
    elapsed = time.perf_counter() - t0
    delta_ms = (base.dct_us - fec.dct_us) / 1000.0
    _report(
        3,
        f"da2gc 1 kB with the sole response data packet dropped: baseline "
        f"is {delta_ms:.1f} ms slower than repair-assisted (needs > 500 ms)",
        base.completed
        and fec.completed
        and base.dct_us - fec.dct_us > 500_000
        and elapsed < 2.0,
    )


# ---------------------------------------------------------------------------
# 4. Overhead anchor


def test_criterion_04_overhead_anchor():
    # Deep queue so the loss-free 1 MB flight is never tail-dropped and the
    # wire-byte ratio reflects pure redundancy.
    deep = Scenario("deepq", 468_000, 131_000, LossSpec("none"), queue_packets=2000)
    base = run_transfer(deep, None, 1_000_000, 11)
    r23 = run_transfer(deep, FecConfig.rlc(3, 2, 20), 1_000_000, 11)
    r45 = run_transfer(deep, FecConfig.rlc(5, 4, 20), 1_000_000, 11)
    wire23 = r23.wire_bytes / base.wire_bytes
    dct23 = r23.dct_us / base.dct_us
    wire45 = r45.wire_bytes / base.wire_bytes
    dct45 = r45.dct_us / base.dct_us
    _report(
        4,
        f"loss-free 1 MB at rate 2/3: wire x{wire23:.3f} (1.50 +/- 0.05), "
        f"completion x{dct23:.3f} (>= 1.3); rate 4/5 reduces both "
        f"(x{wire45:.3f}, x{dct45:.3f})",
        1.45 <= wire23 <= 1.55
        and dct23 >= 1.3
        and wire45 < wire23
        and dct45 < dct23,
    )


# ---------------------------------------------------------------------------
# 5. Block vs sliding-window recovery latency


def _recovery_trace_facts(cfg):
    clean = Scenario("clean", 1_890_000, 380_500, LossSpec("none"))
    res = run_transfer(
        clean,
        cfg,
        50_000,
        5,
        loss_model=_drop_first_response_stream(),
        collect_trace=True,
    )
    lines = res.trace_text.splitlines()
    rec_idx = next(
        i for i, ln in enumerate(lines) if re.search(r"client\.recovered \d+", ln)
    )
    before = lines[:rec_idx]
    sources_seen = sum(1 for ln in before if "client.src_symbol" in ln)
    repair_ids = {
        m.group(1)
        for ln in before
        for m in [re.search(r"client\.repair_symbol \d+ (id=\S+)", ln)]
        if m
    }
    stream_retransmits = re.findall(r"server\.retransmit \d+ stream", res.trace_text)
    loss_reasons = re.findall(r"server\.lost \d+ (\w+)", res.trace_text)
    return res, sources_seen, len(repair_ids), stream_retransmits, loss_reasons


def test_criterion_05_recovery_latency_on_traces():
    res_rs, src_rs, rep_rs, retrans_rs, reasons_rs = _recovery_trace_facts(
        FecConfig.rs(30, 20)
    )
    res_rlc, src_rlc, rep_rlc, retrans_rlc, _ = _recovery_trace_facts(
        FecConfig.rlc(3, 2, 20)
    )
    rs_ok = (
        src_rs == 19
        and rep_rs == 1
        and len(retrans_rs) == 1
        and reasons_rs == ["reorder_threshold"]
        and res_rs.server_stats.lost_packets == 1
        and res_rs.client_stats.recovered_packets == 1
    )
    rlc_ok = (
        src_rlc + rep_rlc == 2
        and not retrans_rlc
        and res_rlc.server_stats.lost_packets == 0
        and res_rlc.client_stats.recovered_packets == 1
    )
    _report(
        5,
        f"first-in-block loss: rs(30,20) recovers after {src_rs} more "
        f"sources + {rep_rs} repair and the sender still retransmits under "
        f"the 3-packet threshold; rlc(3,2,20) recovers after "
        f"{src_rlc + rep_rlc} symbols with no retransmission",
        rs_ok and rlc_ok,
    )


# ---------------------------------------------------------------------------
# 6. Fairness ordering


def test_criterion_06_fairness_ordering(tmp_path):
    t0 = time.perf_counter()
    runs, medians = xp.fairness_experiment(base_seed=0, count=9)
    elapsed = time.perf_counter() - t0
    base = medians["baseline"]
    silent = medians["silent_ack"]
    rf = medians["recovered_frame"]
    _report(
        6,
        f"9-seed contention medians: silent-ack background {silent/1e6:.2f}s "
        f"> baseline {base/1e6:.2f}s; recovery-signalling background "
        f"{rf/1e6:.2f}s within 10% of baseline ({elapsed:.0f}s, budget 300s)",
        silent > base and abs(rf - base) <= 0.10 * base and elapsed < 300.0,
    )
    # The first seed's three runs are `fecsim fairness --seed 0 --count 1`:
    # one run per background, which is also its median.
    first = [r for r in runs if r.seed == derive_seed(0, 0)]
    path = tmp_path / "fairness.csv"
    xp.write_fairness_csv(first, {r.background: r.fg_dct_us for r in first}, str(path))
    assert _sha256(path) == FAIRNESS_CSV_SHA256


# ---------------------------------------------------------------------------
# 7. Bursty-loss statistics


def test_criterion_07_bursty_loss_statistics():
    rnd = random.Random(8)
    worst = 0.0
    ok = True
    for i in range(20):
        p = rnd.uniform(0.01, 0.08)
        r = rnd.uniform(0.08, 0.5)
        k = rnd.uniform(0.98, 1.0)
        h = rnd.uniform(0.0, 0.1)
        model = GilbertElliottLoss(p, r, k, h, seed=1000 + i)
        empirical = 1.0 - float(np.mean(model.sequence(1_000_000)))
        diff = abs(empirical - model.stationary_loss_rate)
        worst = max(worst, diff)
        if diff > 0.002:
            ok = False
    m1 = GilbertElliottLoss(0.03, 0.2, 0.99, 0.05, seed=99)
    m2 = GilbertElliottLoss(0.03, 0.2, 0.99, 0.05, seed=99)
    reproducible = bool(np.array_equal(m1.sequence(200_000), m2.sequence(200_000)))
    _report(
        7,
        f"20 random two-state loss models x10^6 decisions: worst deviation "
        f"from the analytic stationary rate {worst:.4f} (tolerance 0.002); "
        f"same seed reproduces the same drop sequence",
        ok and reproducible,
    )


# ---------------------------------------------------------------------------
# 8. Small-file benefit trend

# A run counts as "not deteriorated" up to this ratio.  Loss-free runs
# are identical except for the 4-byte coded-packet header (a ~2e-5
# ratio); one extra repair packet on this path (a 1168-byte symbol,
# 1193 bytes on the wire) would already cost ~3e-3 to serialize, so 1e-3
# admits header cost and nothing else.
TIE_TOLERANCE = 1.001


def test_criterion_08_small_file_benefit_trend():
    t0 = time.perf_counter()
    sc = preset("mss")
    fec = FecConfig.rlc(3, 2, 20)
    pooled_small = []
    large = []
    for size, bucket in ((1_000, pooled_small), (10_000, pooled_small), (1_000_000, large)):
        for seed in range(50):
            base = run_transfer(sc, None, size, seed)
            fecd = run_transfer(sc, fec, size, seed)
            assert base.completed and fecd.completed
            bucket.append(fecd.dct_us / base.dct_us)
    fraction = sum(1 for x in pooled_small if x <= TIE_TOLERANCE) / len(pooled_small)
    median_large = statistics.median(large)
    elapsed = time.perf_counter() - t0
    _report(
        8,
        f"mss path, 50 seeds: {fraction:.0%} of pooled 1 kB/10 kB runs are "
        f"not worse with repair symbols (needs > 50%), 1 MB median ratio "
        f"{median_large:.2f} > 1 ({elapsed:.0f}s, budget 600s)",
        fraction > 0.5 and median_large > 1.0 and elapsed < 600.0,
    )


# ---------------------------------------------------------------------------
# 9. Determinism of the default matrix


def test_criterion_09_default_matrix_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["run", "--seed", "0", "--out", str(first)]) == 0
    assert cli_main(["run", "--seed", "0", "--out", str(second)]) == 0
    a = first.read_bytes()
    b = second.read_bytes()
    _report(
        9,
        f"default matrix re-run with the same seed: {len(a)} CSV bytes, "
        f"byte-identical and equal to the recorded sha256",
        len(a) > 0 and a == b and _sha256(first) == RUN_CSV_SHA256,
    )
