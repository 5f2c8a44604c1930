"""The 168-cell sweep: one download per path, variant and size, printed
one line per cell, so two checkouts can be compared line by line.

Run from the root of a checkout; fecsim is imported from that checkout's
``src/``::

    python3 bench/sweep.py

The cells are the paths ``lhs_scenarios(7, 12)`` (lhs000-lhs011), then
the da2gc and mss presets; for each, the variants baseline, rs(30,20),
rlc(3,2,20) and xor(4) at 1, 10 and 50 kB.  The i-th path runs at seed
``derive_seed(0, i)`` with a budget of 100,000 events.  A cell's line
names it and gives its completion time, wire bytes, retransmissions and
recoveries, or ``runaway`` when it exhausted its event budget.  The
summary lines give the runaway count, the CPU seconds of the sweep and
the sha256 of the cell lines, which equal checkouts share.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fecsim.experiments import VARIANTS, lhs_scenarios, preset, run_transfer  # noqa: E402
from fecsim.netem import SimulationRunaway  # noqa: E402
from fecsim.rng import derive_seed  # noqa: E402

SWEEP_VARIANTS = ("baseline", "rs", "rlc", "xor")
SWEEP_SIZES = (1_000, 10_000, 50_000)
MAX_EVENTS = 100_000


def sweep_paths() -> list:
    return lhs_scenarios(7, 12) + [preset("da2gc"), preset("mss")]


def cell_line(path, variant: str, size: int, seed: int) -> str:
    name = f"{path.name}/{variant}/{size}B"
    try:
        res = run_transfer(path, VARIANTS[variant], size, seed, max_events=MAX_EVENTS)
    except SimulationRunaway:
        return f"{name} runaway"
    return (
        f"{name} dct_us={res.dct_us} wire_bytes={res.wire_bytes} "
        f"retransmissions={res.retransmissions} recoveries={res.recoveries}"
    )


def main() -> int:
    digest = hashlib.sha256()
    runaways = 0
    start = time.process_time()
    for i, path in enumerate(sweep_paths()):
        for variant in SWEEP_VARIANTS:
            for size in SWEEP_SIZES:
                line = cell_line(path, variant, size, derive_seed(0, i))
                runaways += line.endswith(" runaway")
                digest.update(line.encode() + b"\n")
                print(line, flush=True)
    print(f"runaways {runaways}")
    print(f"cpu_s {time.process_time() - start:.1f}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
