"""fecsim: a deterministic testbed for packet-level forward erasure
correction inside a miniature reliable transport.

Layers, bottom up:

* :mod:`fecsim.gf256` - GF(2^8) arithmetic and linear solving,
* :mod:`fecsim.schemes` - XOR, Reed-Solomon and sliding-window
  random linear codes over whole-packet symbols,
* :mod:`fecsim.framework` - scheme-agnostic ids, repair frames,
  chunking, emission scheduling and receiver bookkeeping,
* :mod:`fecsim.transport` - a QUIC-like request/response transport
  with loss detection, New Reno and recovery signalling,
* :mod:`fecsim.netem` - seeded discrete-event path emulation,
* :mod:`fecsim.experiments` / :mod:`fecsim.cli` - the measurement
  harness.
"""

from .schemes import (
    SCHEME_XOR,
    SCHEME_REED_SOLOMON,
    SCHEME_RLC,
    BlockCodeParams,
    ConvolutionalParams,
)
from .transport import (
    Connection,
    ConnectionConfig,
    FecConfig,
    STRATEGY_NO_ACK,
    STRATEGY_RECOVERED_FRAME,
    STRATEGY_SILENT_ACK,
)
from .netem import (
    GilbertElliottLoss,
    Network,
    Simulator,
    UniformLoss,
)
from .experiments import (
    PRESETS,
    SIZES,
    VARIANTS,
    ConfigMismatch,
    Scenario,
    UnknownPreset,
    compare_records,
    fairness_experiment,
    lhs_scenarios,
    preset,
    run_matrix,
    run_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "SCHEME_XOR",
    "SCHEME_REED_SOLOMON",
    "SCHEME_RLC",
    "BlockCodeParams",
    "ConvolutionalParams",
    "Connection",
    "ConnectionConfig",
    "FecConfig",
    "STRATEGY_NO_ACK",
    "STRATEGY_RECOVERED_FRAME",
    "STRATEGY_SILENT_ACK",
    "GilbertElliottLoss",
    "Network",
    "Simulator",
    "UniformLoss",
    "PRESETS",
    "SIZES",
    "VARIANTS",
    "ConfigMismatch",
    "Scenario",
    "UnknownPreset",
    "compare_records",
    "fairness_experiment",
    "lhs_scenarios",
    "preset",
    "run_matrix",
    "run_transfer",
    "__version__",
]
