"""The benchmark's layer spans still find every fecsim entry point.

``perfbench/layertrace.instrument`` looks each entry point up by name, so a
renamed or deleted name would break only a traced benchmark run.  One
traced codec round installs every span, so it fails here first.  One small
download checks what the spans count and what the matrix workload's
``Recorder`` summary reads off the program's objects.  The benchmark's
modules are imported from ``perfbench/`` and not changed.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

CODEC_SEED0_REPAIR_FRAMES = "406941eae057f1322456632efa6a409c1c2a616b5d80fc4d27a56afa73624b2d"


def layer_modules() -> SimpleNamespace:
    """The fecsim modules by the names ``perfbench/run.py`` loads them under."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert len(run.LAYER_MODULES) == 9
    return SimpleNamespace(
        **{name: importlib.import_module(f"fecsim.{name}") for name in run.LAYER_MODULES}
    )


def test_traced_codec_round_installs_every_span(tmp_path):
    tracer = layertrace.Tracer()
    result = workloads.Codec(layer_modules(), 0, tmp_path).run(tracer)
    assert result.failures == []
    assert result.digests["repair_frames"] == CODEC_SEED0_REPAIR_FRAMES
    assert tracer.calls["framework.on_fec_frame"] > 0
    # installed, though a codec round never runs the emulator
    assert tracer.calls["netem.run"] == 0


def rlc_transfer(fx, **kwargs):
    """One small download: da2gc, 10 kB, rlc, seed 1."""
    xp = fx.experiments
    return xp.run_transfer(xp.preset("da2gc"), xp.VARIANTS["rlc"], 10_000, seed=1, **kwargs)


def test_traced_transfer_counts_acks_and_their_ranges():
    """One small traced download: the wrapped ``transport.parse_packet``
    and ``transport.encode_packet`` run, and ``count_acks`` reads every
    parsed ACK's ranges."""
    fx = layer_modules()
    tracer = layertrace.Tracer()
    with layertrace.instrument(fx, tracer):
        result = rlc_transfer(fx)
    assert result.completed
    assert tracer.calls["frames.encode_packet"] > 0
    assert tracer.calls["frames.parse_packet"] > 0
    assert tracer.counts["ack_frames"] > 0
    assert tracer.counts["ack_ranges"] >= tracer.counts["ack_frames"]


def test_traced_transfer_counts_one_repair_frame_per_repair_packet():
    """The ``framework.chunk_repair`` span counts the repair frames the
    transport sends: one per repair packet in the trace."""
    fx = layer_modules()
    tracer = layertrace.Tracer()
    with layertrace.instrument(fx, tracer):
        result = rlc_transfer(fx, collect_trace=True)
    assert result.completed
    sent = re.findall(r"\.send \d+ repair$", result.trace_text, re.MULTILINE)
    assert tracer.counts["repair_frames_sent"] == len(sent) == 6


def test_recorder_summarizes_a_transfer_as_the_matrix_reads_it(tmp_path):
    """``workloads.Recorder`` sees the simulator, network and connections
    of one download, and the matrix workload's summary reads them."""
    fx = layer_modules()
    matrix = workloads.Matrix(fx, 0, tmp_path)
    with workloads.Recorder(fx, "run_transfer", matrix._summarize) as recorder:
        rlc_transfer(fx)
    ((transfer, counts),) = recorder.summaries
    assert isinstance(transfer, checks.Transfer)
    assert transfer.completed and transfer.received == transfer.size == 10_000
    assert transfer.wire_bytes > transfer.size
    assert counts["events"] > 0 and counts["wire_packets"] > 0


def test_recorder_and_watch_see_the_same_objects():
    """Under ``workloads.Recorder``, which swaps ``experiments``' globals,
    a download's ``watch`` is handed the very simulator, network and
    connections the recorder saw created."""
    fx = layer_modules()
    watched = []

    def watch(sim, network, connections):
        watched.extend((sim, network, *connections))

    with workloads.Recorder(fx, "run_transfer", lambda args, result, made: made) as rec:
        rlc_transfer(fx, watch=watch)
    (objects,) = rec.summaries
    assert [type(o).__name__ for o in objects] == [
        "Simulator", "Network", "Connection", "Connection"
    ]
    assert len(watched) == len(objects)
    assert all(w is o for w, o in zip(watched, objects))
