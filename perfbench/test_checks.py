"""The benchmark's checkers must pass a sound result and reject a corrupted
one.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from checks import CodeGroup, ContentionRun, RepairSample, Transfer  # noqa: E402
from fecsim import schemes  # noqa: E402
from fecsim.schemes import BlockCodeParams  # noqa: E402
from workloads import DA2GC, MSS  # noqa: E402


def good_transfer(size=10_000, dct_us=800_000):
    return Transfer(size=size, completed=True, dct_us=dct_us, received=size, wire_bytes=size + 2_000)


def test_transfer_checks_pass_a_sound_download():
    assert checks.transfer_failures([good_transfer()], DA2GC) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        dict(completed=False, dct_us=None),
        dict(received=9_999),
        dict(received=10_001),
        # 4 x 131 ms + 10 kB at 0.468 Mbps is 695 ms
        dict(dct_us=690_000),
    ],
)
def test_transfer_checks_reject_corruption(corrupt):
    t = good_transfer()
    for k, v in corrupt.items():
        setattr(t, k, v)
    assert checks.transfer_failures([good_transfer(), t], DA2GC)


def test_dct_floor_is_two_round_trips_plus_serialisation():
    assert DA2GC.dct_floor_us(0) == 524_000
    assert DA2GC.dct_floor_us(58_500) == pytest.approx(524_000 + 1_000_000)


def test_wire_check():
    assert checks.wire_failures(1_001, 1_000) == []
    assert checks.wire_failures(999, 1_000)


CELLS = [("1k", "baseline", 1_000), ("1k", "rs", 1_000)]


def run_csv(transfers, reps=3, cells=CELLS):
    lines = ["schema,scenario,variant,strategy,size,size_bytes,seed,reps,dct_ms,rep_dct_ms,"
             "wire_bytes,retransmissions,recoveries"]
    for i, (label, variant, size) in enumerate(cells):
        dcts = [t.dct_us for t in transfers[i * reps : (i + 1) * reps]]
        median = statistics.median(dcts)
        reps_ms = ";".join(f"{d / 1000:.3f}" for d in dcts)
        lines.append(f"run.v1,da2gc,{variant},recovered_frame,{label},{size},7,{reps},"
                     f"{median / 1000:.3f},{reps_ms},1234,0,0")
    return "\n".join(lines) + "\n"


def matrix_transfers():
    return [good_transfer(1_000, 600_000 + 1_000 * i) for i in range(6)]


def test_run_csv_check_passes_a_matching_file():
    transfers = matrix_transfers()
    assert checks.run_csv_failures(run_csv(transfers), CELLS, 3, transfers) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("600.000;", "600.001;", 1),  # one repetition
        lambda text: text.replace(",601.000,", ",600.000,", 1),  # the median
        lambda text: text.rsplit("run.v1", 1)[0],  # a missing row
        lambda text: text.replace(",rs,", ",rlc,"),  # a wrong cell
    ],
)
def test_run_csv_check_rejects_corruption(corrupt):
    transfers = matrix_transfers()
    text = run_csv(transfers)
    assert corrupt(text) != text
    assert checks.run_csv_failures(corrupt(text), CELLS, 3, transfers)


def contention_run(background="baseline", **changes):
    run = ContentionRun(
        background=background,
        fg=Transfer(10_000_000, True, 130_000_000, 10_000_000, 30_000_000),
        bg_received=12_000_000,
        elapsed_us=135_000_000,
        random_drops=0,
    )
    for k, v in changes.items():
        setattr(run, k, v)
    return run


def test_fairness_checks():
    assert checks.fairness_failures([contention_run()], MSS) == []
    assert checks.fairness_failures([contention_run(random_drops=1)], MSS)
    # 1.89 Mbps for 135 s carries 31.9 MB; 10 MB + 22 MB is more
    assert checks.fairness_failures([contention_run(bg_received=22_000_000)], MSS)


BACKGROUNDS = ("baseline", "recovered_frame")


def fairness_csv(runs):
    lines = ["schema,record,background,seed,fg_start_ms,fg_dct_ms,bg_received_bytes"]
    for r in runs:
        lines.append(f"fairness.v1,run,{r.background},9,5000.000,{r.fg.dct_us / 1000:.3f},{r.bg_received}")
    for r in runs:
        lines.append(f"fairness.v1,summary,{r.background},,,{r.fg.dct_us / 1000:.3f},")
    return "\n".join(lines) + "\n"


def test_fairness_csv_check():
    runs = [contention_run(bg) for bg in BACKGROUNDS]
    text = fairness_csv(runs)
    assert checks.fairness_csv_failures(text, BACKGROUNDS, runs) == []
    for bad in (
        text.replace("130000.000", "130000.001", 1),
        text.replace("12000000", "12000001", 1),
        text.replace("summary,recovered_frame,,,130000.000", "summary,recovered_frame,,,1.000"),
        text.replace("run,recovered_frame", "run,silent_ack"),
    ):
        assert bad != text
        assert checks.fairness_csv_failures(bad, BACKGROUNDS, runs)


def test_digest_check():
    a, b = {"run_csv": "aa"}, {"run_csv": "bb"}
    assert checks.digest_failures([a, a], None) == []
    assert checks.digest_failures([a, a], a) == []
    assert checks.digest_failures([a, b], None)
    assert checks.digest_failures([a, a], b)


def codec_case():
    originals = {1: b"one", 2: b"two", 3: b"three"}
    erased = {2, 3}
    recovered = [(2, b"two"), (3, b"three")]
    groups = [CodeGroup(erasures=2, erased_sources=[2, 3])]
    return originals, erased, recovered, groups


def test_codec_check_passes_exact_recovery():
    assert checks.codec_failures("rs", 10, *codec_case()) == []


def test_codec_check_rejects_corruption():
    originals, erased, recovered, groups = codec_case()
    assert checks.codec_failures("rs", 10, originals, erased, [(2, b"twO"), (3, b"three")], groups)
    assert checks.codec_failures("rs", 10, originals, erased, recovered + [(1, b"one")], groups)
    assert checks.codec_failures("rs", 10, originals, erased, recovered + [(2, b"two")], groups)
    assert checks.codec_failures("rs", 10, originals, erased, recovered[:1], groups)
    # beyond the guaranteed limit nothing has to come back
    assert checks.codec_failures("xor", 1, originals, erased, [], groups) == []


def test_gf_mul_reference():
    assert checks.gf_mul(2, 0x80) == 0x1D
    assert checks.gf_mul(0x53, 0xCA) == checks.gf_mul(0xCA, 0x53)
    for a in (1, 2, 0x53, 0xFF):
        assert checks.gf_mul(a, checks.gf_inv(a)) == 1


def packets(n, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, int(rng.integers(1, 1201)), dtype=np.uint8).tobytes() for _ in range(n)]


def framed(ps):
    return [schemes.frame_symbol(p) for p in ps]


def program_repairs():
    """Repairs fecsim computes, paired with what they must equal."""
    ps = packets(20)
    out = [RepairSample("xor", 0, 1, 0, ps[:4], schemes.xor_encode(framed(ps[:4])).payload.tobytes())]
    for i, r in enumerate(schemes.rs_encode(framed(ps), BlockCodeParams(30, 20))):
        out.append(RepairSample("rs", i, 10, 0, ps, r.payload.tobytes()))
    r = schemes.rlc_encode(framed(ps[5:17]), 5, 0xBEEF)
    out.append(RepairSample("rlc", 0, 1, 0xBEEF, ps[5:17], r.payload.tobytes()))
    return out


def test_repair_reference_agrees_with_the_program():
    assert checks.repair_failures(program_repairs()) == []


def test_repair_reference_rejects_corrupted_payloads():
    for sample in program_repairs():
        flipped = bytearray(sample.payload)
        flipped[700] ^= 0x01
        sample.payload = bytes(flipped)
        assert checks.repair_failures([sample])
