"""The benchmark's layer spans still find every fecsim entry point.

``perfbench/layertrace.instrument`` looks each entry point up by name, so a
renamed or deleted name would break only a traced benchmark run.  One
traced codec round installs every span, so it fails here first.  The
benchmark's modules are imported from ``perfbench/`` and not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

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


def test_traced_transfer_counts_acks_and_their_ranges():
    """One small traced download (da2gc, 10 kB, rlc): the wrapped
    ``transport.parse_packet`` and ``transport.encode_packet`` run, and
    ``count_acks`` reads every parsed ACK's ranges."""
    fx = layer_modules()
    tracer = layertrace.Tracer()
    with layertrace.instrument(fx, tracer):
        result = fx.experiments.run_transfer(
            fx.experiments.preset("da2gc"), fx.experiments.VARIANTS["rlc"], 10_000, seed=1
        )
    assert result.completed
    assert tracer.calls["frames.encode_packet"] > 0
    assert tracer.calls["frames.parse_packet"] > 0
    assert tracer.counts["ack_frames"] > 0
    assert tracer.counts["ack_ranges"] >= tracer.counts["ack_frames"]
