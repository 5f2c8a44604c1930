"""Experiment harness: presets, path sampling, run matrices, result files,
ratio comparison, fairness plumbing, and the command-line front end."""

import csv
import dataclasses
import hashlib
import json
import re

import pytest

from fecsim import experiments as xp
from fecsim.cli import main as cli_main
from fecsim.netem import ScriptedLoss
from fecsim.transport import FecConfig
from transfer_monitor import TransferMonitor

FAST = xp.Scenario("fast", 10_000_000, 5_000, xp.LossSpec("none"))
FAST_LOSSY = xp.Scenario("fastloss", 10_000_000, 5_000, xp.LossSpec("uniform", p=0.03))
SMALL_SIZES = {"1k": 1_000, "10k": 10_000}
TWO_VARIANTS = {"baseline": None, "rlc": FecConfig.rlc(3, 2, 20)}


# ---------------------------------------------------------------------------
# Presets and sampling

def test_presets():
    da2gc = xp.preset("da2gc")
    assert (da2gc.bandwidth_bps, da2gc.one_way_delay_us) == (468_000, 131_000)
    assert da2gc.loss == xp.LossSpec("uniform", p=0.033)
    assert da2gc.queue_packets == 50
    mss = xp.preset("mss")
    assert (mss.bandwidth_bps, mss.one_way_delay_us) == (1_890_000, 380_500)
    assert mss.loss == xp.LossSpec("uniform", p=0.06)


def test_unknown_preset():
    with pytest.raises(xp.UnknownPreset):
        xp.preset("dialup")


def test_latin_hypercube_uses_every_bin_once():
    count = 8
    samples = xp.latin_hypercube(3, count, xp.PARAMETER_BOX)
    assert len(samples) == count
    for name, (lo, hi) in xp.PARAMETER_BOX.items():
        values = [s[name] for s in samples]
        assert all(lo <= v <= hi for v in values)
        bins = sorted(min(int((v - lo) / (hi - lo) * count), count - 1) for v in values)
        assert bins == list(range(count))


def test_latin_hypercube_determinism_and_midpoints():
    a = xp.latin_hypercube(5, 6, xp.PARAMETER_BOX)
    b = xp.latin_hypercube(5, 6, xp.PARAMETER_BOX)
    assert a == b
    c = xp.latin_hypercube(6, 6, xp.PARAMETER_BOX)
    assert a != c
    single = xp.latin_hypercube(0, 1, {"loss_p": (0.2, 0.4)})
    assert single == [{"loss_p": pytest.approx(0.3)}]
    with pytest.raises(ValueError):
        xp.latin_hypercube(0, 0, xp.PARAMETER_BOX)


def test_lhs_scenarios_shape():
    scenarios = xp.lhs_scenarios(1, 4)
    assert [s.name for s in scenarios] == ["lhs000", "lhs001", "lhs002", "lhs003"]
    for s in scenarios:
        assert s.loss.kind == "ge"
        assert 300_000 <= s.bandwidth_bps <= 10_000_000
        assert 100_000 <= s.one_way_delay_us <= 400_000
        assert 0.01 <= s.loss.p <= 0.08


def test_lhs_scenarios_rejects_bad_boxes():
    with pytest.raises(ValueError):
        xp.lhs_scenarios(1, 3, {"loss_p": (0.1, 0.2)})  # missing dimensions
    bad = dict(xp.PARAMETER_BOX)
    bad["color"] = (0.0, 1.0)
    with pytest.raises(ValueError):
        xp.lhs_scenarios(1, 3, bad)
    negative = dict(xp.PARAMETER_BOX, one_way_delay_ms=(-300.0, -200.0))
    with pytest.raises(ValueError, match="one_way_delay_ms"):
        xp.lhs_scenarios(1, 3, negative)
    still = dict(xp.PARAMETER_BOX, loss_p=(0.0, 0.0), loss_r=(0.0, 0.0))
    with pytest.raises(ValueError, match="^loss_p and loss_r: "):
        xp.lhs_scenarios(1, 3, still)
    # finite in ms and Mbit/s, but infinite in us and bit/s
    huge = {"one_way_delay_ms": (100.0, 1e306), "bandwidth_mbps": (1e303, 1e303)}
    for name, bounds in huge.items():
        with pytest.raises(ValueError, match=f"^{name}: "):
            xp.lhs_scenarios(1, 3, dict(xp.PARAMETER_BOX, **{name: bounds}))


def test_parse_ranges_file_empty_gives_default_box(tmp_path):
    path = tmp_path / "ranges.txt"
    path.write_text("")
    assert xp.parse_ranges_file(str(path)) == xp.PARAMETER_BOX


def test_parse_ranges_file_overrides_and_comments(tmp_path):
    path = tmp_path / "ranges.txt"
    path.write_text(
        "# narrow paths only\n"
        "bandwidth_mbps_min = 1.0\n"
        "bandwidth_mbps_max = 2.0  # inline comment\n"
        "\n"
        "loss_h_max = 0.05\n"
    )
    box = xp.parse_ranges_file(str(path))
    assert box["bandwidth_mbps"] == (1.0, 2.0)
    assert box["loss_h"] == (0.0, 0.05)
    assert box["loss_p"] == xp.PARAMETER_BOX["loss_p"]


def test_parse_ranges_file_errors(tmp_path):
    bad_key = tmp_path / "a.txt"
    bad_key.write_text("latency_min = 5\n")
    with pytest.raises(ValueError, match="unknown key"):
        xp.parse_ranges_file(str(bad_key))
    no_eq = tmp_path / "b.txt"
    no_eq.write_text("bandwidth_mbps_min 5\n")
    with pytest.raises(ValueError, match="expected"):
        xp.parse_ranges_file(str(no_eq))
    inverted = tmp_path / "c.txt"
    inverted.write_text("loss_p_min = 0.5\nloss_p_max = 0.1\n")
    with pytest.raises(ValueError, match="exceeds"):
        xp.parse_ranges_file(str(inverted))
    out_of_domain = {
        "loss_h_min = nan\n": "loss_h",
        "loss_p_max = 2\n": "loss_p",
        "loss_k_min = -0.1\n": "loss_k",
        "bandwidth_mbps_min = 0\n": "bandwidth_mbps",
        "bandwidth_mbps_min = 1e-7\n": "bandwidth_mbps",  # rounds to 0 bit/s
        "one_way_delay_ms_min = -300\none_way_delay_ms_max = -200\n": "one_way_delay_ms",
        "one_way_delay_ms_max = inf\n": "one_way_delay_ms",
        "one_way_delay_ms_max = 1e306\n": "one_way_delay_ms",  # infinite in us
        "bandwidth_mbps_min = 1e303\nbandwidth_mbps_max = 1e303\n": "bandwidth_mbps",
        "loss_p_min = 0\nloss_p_max = 0\nloss_r_min = 0\nloss_r_max = 0\n": (
            "loss_p and loss_r"
        ),
    }
    for i, (text, dimension) in enumerate(out_of_domain.items()):
        path = tmp_path / f"d{i}.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{dimension}: "):
            xp.parse_ranges_file(str(path))
    not_a_number = tmp_path / "e.txt"
    not_a_number.write_text("# comment\nloss_r_max = abc\n")
    with pytest.raises(ValueError, match=f"^{not_a_number}:2: loss_r_max is not a number"):
        xp.parse_ranges_file(str(not_a_number))


# ---------------------------------------------------------------------------
# Run matrix

def test_run_matrix_pairs_variants_on_identical_seeds():
    records = xp.run_matrix([FAST], TWO_VARIANTS, SMALL_SIZES, reps=3, base_seed=7)
    assert len(records) == 4  # 1 scenario x 2 sizes x 2 variants
    by_cell = {}
    for r in records:
        assert r.reps == 3 and len(r.rep_dcts_us) == 3
        assert r.dct_us == sorted(r.rep_dcts_us)[1]  # median repetition
        by_cell.setdefault((r.scenario, r.size_label), set()).add(r.seed)
    for seeds in by_cell.values():
        assert len(seeds) == 1  # the seed never depends on the variant
    assert len({s for group in by_cell.values() for s in group}) == len(by_cell)


def test_run_matrix_is_deterministic():
    a = xp.run_matrix([FAST_LOSSY], TWO_VARIANTS, {"1k": 1000}, reps=3, base_seed=1)
    b = xp.run_matrix([FAST_LOSSY], TWO_VARIANTS, {"1k": 1000}, reps=3, base_seed=1)
    assert a == b
    c = xp.run_matrix([FAST_LOSSY], TWO_VARIANTS, {"1k": 1000}, reps=3, base_seed=2)
    assert [r.rep_dcts_us for r in a] != [r.rep_dcts_us for r in c]


def test_run_matrix_records_failed_cells_instead_of_raising():
    # the budget is half the events the cell's first repetition runs uncapped
    sims = []
    first_rep = xp.derive_seed(xp.derive_seed(0, 0, 0), 0)
    assert xp.run_transfer(
        FAST_LOSSY, None, 10_000, first_rep, watch=lambda sim, *_: sims.append(sim)
    ).completed
    records = xp.run_matrix(
        [FAST_LOSSY], {"baseline": None}, {"10k": 10_000}, reps=2,
        base_seed=0, max_events=sims[0].events_run // 2,
    )
    assert len(records) == 1
    assert records[0].dct_us is None
    assert records[0].wire_bytes == 0
    assert records[0].failure == "runaway"


def test_run_matrix_records_an_incomplete_repetition(monkeypatch, tmp_path):
    """A repetition that goes idle with the download unfinished (no DCT)
    leaves the cell's median empty, as a runaway does, but is told apart
    from one; the other cells keep their medians."""
    real = xp.run_transfer

    def stub(scenario, fec, size_bytes, seed, *args, **kwargs):
        result = real(scenario, fec, size_bytes, seed, *args, **kwargs)
        if fec is not None and seed == xp.derive_seed(xp.derive_seed(0, 0, 0), 1):
            return dataclasses.replace(result, completed=False, dct_us=None)
        return result

    monkeypatch.setattr(xp, "run_transfer", stub)
    records = xp.run_matrix(
        [FAST_LOSSY], {"baseline": None, "rlc": FecConfig.rlc(3, 2, 4)},
        {"1k": 1_000}, reps=3, base_seed=0,
    )
    base, rlc = records
    assert base.dct_us is not None and base.failure == ""
    assert (rlc.dct_us, rlc.wire_bytes, rlc.failure) == (None, 0, "incomplete")
    assert len(rlc.rep_dcts_us) == 2  # the repetitions that completed
    path = tmp_path / "incomplete.csv"
    xp.write_run_csv(records, str(path))
    assert xp.read_run_csv(str(path)) == records


# ---------------------------------------------------------------------------
# Result files

def matrix_records():
    return xp.run_matrix([FAST_LOSSY], TWO_VARIANTS, SMALL_SIZES, reps=3, base_seed=4)


def test_run_csv_roundtrip_and_byte_determinism(tmp_path):
    records = matrix_records()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    xp.write_run_csv(records, str(p1))
    xp.write_run_csv(records, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.split(",") == xp.RUN_COLUMNS
    assert xp.read_run_csv(str(p1)) == records


def test_run_json_mirrors_csv(tmp_path):
    records = matrix_records()
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    xp.write_run_csv(records, str(csv_path))
    xp.write_run_json(records, str(json_path))
    with open(csv_path, newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads(json_path.read_text())
    assert json_rows == [dict(row) for row in csv_rows]


def test_read_run_csv_rejects_other_schemas(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("schema,scenario\nrun.v999,x\n")
    with pytest.raises(ValueError, match="unsupported schema"):
        xp.read_run_csv(str(path))


def test_failed_cell_roundtrips_as_missing_median(tmp_path):
    record = xp.ExperimentRecord(
        scenario="s", variant="baseline", strategy="recovered_frame",
        size_label="1k", size_bytes=1000, seed=9, reps=2,
        dct_us=None, rep_dcts_us=(), wire_bytes=0,
        retransmissions=0, recoveries=0,
    )
    path = tmp_path / "fail.csv"
    xp.write_run_csv([record], str(path))
    assert xp.read_run_csv(str(path)) == [record]


# ---------------------------------------------------------------------------
# Comparison

def test_compare_ratio_and_reciprocity():
    records = matrix_records()
    base = [r for r in records if r.variant == "baseline"]
    rlc = [r for r in records if r.variant == "rlc"]
    ab = xp.compare_records(base, rlc)
    ba = xp.compare_records(rlc, base)
    assert len(ab.pairs) == len(SMALL_SIZES)
    fwd = {(p.scenario, p.size_label, p.seed): p.ratio for p in ab.pairs}
    rev = {(p.scenario, p.size_label, p.seed): p.ratio for p in ba.pairs}
    for key, ratio in fwd.items():
        assert ratio * rev[key] == pytest.approx(1.0, abs=1e-12)
    assert ab.dropped == 0
    # the ECDF is a proper distribution function over the ratios
    ratios = sorted(p.ratio for p in ab.pairs)
    assert ab.ecdf == [(r, (i + 1) / len(ratios)) for i, r in enumerate(ratios)]
    assert ab.fraction_le_one == sum(1 for r in ratios if r <= 1) / len(ratios)


def test_compare_rejects_mismatched_sets():
    records = matrix_records()
    base = [r for r in records if r.variant == "baseline"]
    rlc = [r for r in records if r.variant == "rlc"]
    with pytest.raises(xp.ConfigMismatch, match="duplicate"):
        xp.compare_records(base + base, rlc)
    with pytest.raises(xp.ConfigMismatch, match="empty"):
        xp.compare_records([], rlc)
    with pytest.raises(xp.ConfigMismatch, match="unpaired"):
        xp.compare_records(base[:1], rlc)
    import dataclasses

    other_reps = [dataclasses.replace(r, reps=99) for r in rlc]
    with pytest.raises(xp.ConfigMismatch, match="reps differs"):
        xp.compare_records(base, other_reps)
    other_strategy = [dataclasses.replace(r, strategy="no_ack") for r in rlc]
    with pytest.raises(xp.ConfigMismatch, match="strategy differs"):
        xp.compare_records(base, other_strategy)


def test_compare_drops_cells_without_median():
    import dataclasses

    records = matrix_records()
    base = [r for r in records if r.variant == "baseline"]
    rlc = [r for r in records if r.variant == "rlc"]
    rlc[0] = dataclasses.replace(rlc[0], dct_us=None)
    result = xp.compare_records(base, rlc)
    assert result.dropped == 1
    assert len(result.pairs) == len(SMALL_SIZES) - 1
    broken = [dataclasses.replace(r, dct_us=None) for r in rlc]
    with pytest.raises(xp.ConfigMismatch, match="no completed pairs"):
        xp.compare_records(base, broken)


def test_compare_csv_layout(tmp_path):
    records = matrix_records()
    result = xp.compare_records(
        [r for r in records if r.variant == "baseline"],
        [r for r in records if r.variant == "rlc"],
    )
    path = tmp_path / "ratios.csv"
    xp.write_compare_csv(result, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    kinds = [row["record"] for row in rows]
    n = len(result.pairs)
    assert kinds == ["pair"] * n + ["ecdf"] * n + ["summary"]
    assert rows[-1]["ratio"] == f"{result.median_ratio:.6f}"
    assert rows[-1]["fraction"] == f"{result.fraction_le_one:.6f}"
    assert all(row["schema"] == xp.COMPARE_SCHEMA for row in rows)


# ---------------------------------------------------------------------------
# Fairness plumbing (scaled down for speed; the full-size study runs in
# the acceptance suite)

def shrink_fairness(monkeypatch):
    monkeypatch.setattr(xp, "FAIRNESS_FG_SIZE", 30_000)
    monkeypatch.setattr(xp, "FAIRNESS_BG_SIZE", 60_000)
    monkeypatch.setattr(xp, "FAIRNESS_FG_DELAY_US", 500_000)
    monkeypatch.setattr(xp, "FAIRNESS_JITTER_US", 100_000)


def test_fairness_run_smoke(monkeypatch):
    shrink_fairness(monkeypatch)
    run = xp.fairness_run("baseline", seed=1)
    assert run.background == "baseline"
    assert 500_000 <= run.fg_start_us <= 600_000
    assert run.fg_dct_us > 0
    again = xp.fairness_run("baseline", seed=1)
    assert run == again
    fec_run = xp.fairness_run("recovered_frame", seed=1)
    assert fec_run.fg_dct_us > 0


@pytest.mark.parametrize("background", xp.FAIRNESS_BACKGROUNDS)
def test_monitored_contention_run_equals_an_unwatched_one(monkeypatch, background):
    """The transfer monitor holds its invariants over all four connections
    of a contention run whose queue drops packets, a repair-sending
    background's client rebuilds some of its dropped packets, and watching
    the run changes nothing."""
    shrink_fairness(monkeypatch)
    monkeypatch.setattr(xp, "FAIRNESS_QUEUE_PACKETS", 8)
    monitor, wired = TransferMonitor(), []

    def watch(sim, network, connections):
        wired.append((network, connections))
        monitor(sim, network, connections)

    run = xp.fairness_run(background, seed=1, watch=watch)
    assert run == xp.fairness_run(background, seed=1)
    [(network, (_, _, bg_client, _))] = wired
    assert network.queue_drops > 0
    assert sum(conn.stats.lost_packets for conn in monitor.packets) > 0
    assert len(monitor.packets) == 4 and all(monitor.packets.values())
    if background != "baseline":
        assert bg_client.stats.recovered_packets > 0


def test_fairness_run_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown background"):
        xp.fairness_run("chatty", seed=0)


def test_fairness_experiment_and_csv(monkeypatch, tmp_path):
    shrink_fairness(monkeypatch)
    runs, medians = xp.fairness_experiment(base_seed=0, count=2)
    assert len(runs) == 6
    assert set(medians) == set(xp.FAIRNESS_BACKGROUNDS)
    path = tmp_path / "fairness.csv"
    xp.write_fairness_csv(runs, medians, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["record"] for r in rows] == ["run"] * 6 + ["summary"] * 3
    assert all(r["schema"] == xp.FAIRNESS_SCHEMA for r in rows)


# ---------------------------------------------------------------------------
# Loss traces

def test_loss_trace_lines_format():
    lines = xp.loss_trace_lines(ScriptedLoss([True, False, True]), 3)
    assert lines == ["0 scripted deliver", "1 scripted drop", "2 scripted deliver"]


def test_loss_trace_lines_ge_states():
    model = xp.GilbertElliottLoss(0.5, 0.5, 1.0, 0.0, seed=2)
    lines = xp.loss_trace_lines(model, 50)
    assert all(re.fullmatch(r"\d+ (good|bad) (deliver|drop)", l) for l in lines)
    states = {l.split()[1] for l in lines}
    assert states == {"good", "bad"}  # the walk visits both states


# ---------------------------------------------------------------------------
# Command line

def test_cli_run_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "results.csv"
    mirror = tmp_path / "results.json"
    rc = cli_main([
        "run", "--preset", "mss", "--sizes", "1k", "--variants",
        "baseline,rlc", "--reps", "2", "--seed", "3",
        "--out", str(out), "--json", str(mirror),
    ])
    assert rc == 0
    records = xp.read_run_csv(str(out))
    assert [r.variant for r in records] == ["baseline", "rlc"]
    assert all(r.reps == 2 for r in records)
    assert json.loads(mirror.read_text())


def test_cli_rejects_unknown_preset(tmp_path):
    with pytest.raises(SystemExit, match="unknown preset: dialup"):
        cli_main(["run", "--preset", "dialup", "--out", str(tmp_path / "x.csv")])


def test_cli_rejects_unknown_size():
    with pytest.raises(SystemExit):
        cli_main(["run", "--preset", "mss", "--sizes", "2k", "--out", "-"])


def test_cli_run_with_ranges_samples_paths(tmp_path):
    ranges = tmp_path / "ranges.txt"
    # keep the sampled paths fast so the test stays quick
    ranges.write_text(
        "bandwidth_mbps_min = 8\nbandwidth_mbps_max = 10\n"
        "one_way_delay_ms_min = 1\none_way_delay_ms_max = 5\n"
        "loss_h_max = 0.02\n"
    )
    out = tmp_path / "lhs.csv"
    rc = cli_main([
        "run", "--ranges", str(ranges), "--samples", "2", "--sizes", "1k",
        "--variants", "baseline", "--reps", "1", "--out", str(out),
    ])
    assert rc == 0
    records = xp.read_run_csv(str(out))
    assert [r.scenario for r in records] == ["lhs000", "lhs001"]


def test_cli_compare_end_to_end(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    records = matrix_records()
    xp.write_run_csv([r for r in records if r.variant == "rlc"], str(a))
    xp.write_run_csv([r for r in records if r.variant == "baseline"], str(b))
    out = tmp_path / "ratios.csv"
    rc = cli_main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["record"] == "summary"


def test_cli_compare_mismatch_exits_with_message(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    records = matrix_records()
    xp.write_run_csv([r for r in records if r.variant == "rlc"], str(a))
    xp.write_run_csv([r for r in records if r.variant == "baseline"][:1], str(b))
    with pytest.raises(SystemExit, match="unpaired"):
        cli_main(["compare", "--a", str(a), "--b", str(b), "--out", "-"])


@pytest.mark.parametrize(
    "text, missing",
    [("a,b\n1,2\n", "schema"), ("schema,scenario\nrun.v1,x\n", "rep_dct_ms")],
    ids=["foreign-header", "partial-header"],
)
def test_cli_compare_rejects_foreign_csv(tmp_path, text, missing):
    foreign, good = tmp_path / "foreign.csv", tmp_path / "good.csv"
    foreign.write_text(text)
    xp.write_run_csv(matrix_records(), str(good))
    with pytest.raises(SystemExit, match=missing):
        cli_main(["compare", "--a", str(foreign), "--b", str(good), "--out", "-"])


@pytest.mark.parametrize("extra", [None, "surplus"], ids=["short-row", "long-row"])
def test_cli_compare_rejects_ragged_row(tmp_path, extra):
    ragged, good = tmp_path / "ragged.csv", tmp_path / "good.csv"
    xp.write_run_csv(matrix_records(), str(good))
    header, row = good.read_text().splitlines()[:2]
    row = "run.v1,x" if extra is None else f"{row},{extra}"
    ragged.write_text(f"{header}\n{row}\n")
    want = f"ragged.csv:2: expected {len(xp.RUN_COLUMNS)} fields"
    with pytest.raises(SystemExit, match=want):
        cli_main(["compare", "--a", str(ragged), "--b", str(good), "--out", "-"])


@pytest.mark.parametrize(
    "column, value, want",
    [
        ("size_bytes", "x", "invalid literal for int"),
        ("dct_ms", "inf", "cannot convert float infinity"),
        ("dct_ms", "0.000", "dct_ms 0.000 is not positive"),
        ("dct_ms", "-1.000", "dct_ms -1.000 is not positive"),
    ],
)
def test_cli_compare_rejects_bad_numbers(tmp_path, column, value, want):
    """A bad number names its file and line; a DCT that is not positive
    cannot be a ratio's divisor."""
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    xp.write_run_csv(matrix_records(), str(good))
    header, row, *rest = good.read_text().splitlines()
    fields = row.split(",")
    fields[header.split(",").index(column)] = value
    bad.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    with pytest.raises(SystemExit, match=f"bad.csv:2: {want}"):
        cli_main(["compare", "--a", str(good), "--b", str(bad), "--out", "-"])


def test_cli_losstrace_formats(tmp_path):
    out = tmp_path / "trace.txt"
    rc = cli_main([
        "losstrace", "--model", "ge", "--params", "0.01,0.08,0.98,0",
        "--seed", "1", "--count", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(re.fullmatch(r"\d+ (good|bad) (deliver|drop)", l) for l in lines)


def test_cli_losstrace_validates_param_count():
    with pytest.raises(SystemExit, match="exactly one"):
        cli_main(["losstrace", "--model", "uniform", "--params", "0.1,0.2"])
    with pytest.raises(SystemExit, match="exactly four"):
        cli_main(["losstrace", "--model", "ge", "--params", "0.1"])


def test_cli_losstrace_uniform_reproducible(capsys):
    cli_main(["losstrace", "--model", "uniform", "--params", "0.5", "--count", "8"])
    first = capsys.readouterr().out
    cli_main(["losstrace", "--model", "uniform", "--params", "0.5", "--count", "8"])
    assert capsys.readouterr().out == first
    assert len(first.splitlines()) == 8


def test_cli_fairness_scaled(monkeypatch, tmp_path):
    shrink_fairness(monkeypatch)
    out = tmp_path / "fairness.csv"
    rc = cli_main(["fairness", "--seed", "1", "--count", "1", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["record"] for r in rows] == ["run"] * 3 + ["summary"] * 3


def test_cli_fairness_rejects_zero_count(tmp_path):
    out = tmp_path / "fairness.csv"
    with pytest.raises(SystemExit, match="count must be positive"):
        cli_main(["fairness", "--count", "0", "--out", str(out)])


def test_harness_output_bytes_are_pinned(monkeypatch, tmp_path):
    """The run CSV and JSON, the compare CSV and the fairness CSV at fixed
    seeds, against the sha256 values recorded when they were last changed
    on purpose.  A change that alters any of these bytes must say why and
    record the new values here."""

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    run = ["run", "--seed", "0", "--sizes", "1k,10k", "--reps", "3"]
    csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
    a, b, ratios = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "ratios.csv"
    assert cli_main(run + ["--out", str(csv_path), "--json", str(json_path)]) == 0
    assert cli_main(run + ["--variants", "rlc", "--out", str(a)]) == 0
    assert cli_main(run + ["--variants", "baseline", "--out", str(b)]) == 0
    assert cli_main(["compare", "--a", str(a), "--b", str(b), "--out", str(ratios)]) == 0
    shrink_fairness(monkeypatch)
    fairness = tmp_path / "fairness.csv"
    xp.write_fairness_csv(*xp.fairness_experiment(base_seed=0, count=1), str(fairness))
    assert {
        "run_csv": sha(csv_path),
        "run_json": sha(json_path),
        "compare_csv": sha(ratios),
        "fairness_csv": sha(fairness),
    } == {
        "run_csv": "b89cdd3a8c061e2ecbb80a49d163e17b9105e7245d98d89e73dd04ea35d8ad00",
        "run_json": "9a6aabda201950ba09061873bade169239db4c294ebb6d8c557a0e4460010a92",
        "compare_csv": "476b6ee419d4f890927c7738d276af077ef36a49c565f84d125f4c0382bbb047",
        "fairness_csv": "7d7ef7761b60465d2010e96160f0d3ab25f7a63081c41579f8d1e31cd441bab3",
    }
