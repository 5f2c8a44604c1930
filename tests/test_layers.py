"""The package's layer order: each layer module loads only the layers
beneath it, and the package root loads and exports nothing, so every
name has one import path, ``fecsim.<layer>``."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# bottom up, as the README's module table lists them
LAYERS = ("gf256", "rng", "schemes", "framework", "frames", "transport",
          "netem", "experiments", "cli")

PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return {m for m in sys.modules if m == "fecsim" or m.startswith("fecsim.")}

added, before = [], loaded()
for name in sys.argv[2:]:
    module = importlib.import_module(name)
    if name == "fecsim":
        exported = [n for n in vars(module) if not n.startswith("__")]
    added.append(sorted(loaded() - before))
    before = loaded()
print(json.dumps({"added": added, "exported": exported}))
"""


def test_each_layer_loads_only_the_layers_beneath_it():
    names = ["fecsim"] + [f"fecsim.{layer}" for layer in LAYERS]
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), *names],
        capture_output=True, text=True, check=True,
    ).stdout
    seen = json.loads(out)
    assert seen["exported"] == []
    assert seen["added"] == [[name] for name in names]
