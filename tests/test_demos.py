"""The walkthrough demos still run against the current API.

Each demo runs as its own process, the way a reader starts it, with the
package on ``PYTHONPATH``.  ``06_fairness.py`` is left out: it takes
several seconds and repeats the setup of the fairness acceptance test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_erasure_codes.py",
    "02_repair_frames.py",
    "03_loss_models.py",
    "04_single_transfer.py",
    "05_dct_matrix.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
