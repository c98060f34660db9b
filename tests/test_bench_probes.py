"""The benchmark's per-layer probes must name functions ebsbm still has.

bench/layers.py wraps module-level names of the package to time each
layer; a function renamed or moved out of its module would leave that
layer's metrics at zero without any error.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_probe_resolves():
    sys.path.insert(0, str(BENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))
    assert layers.PROBES
    missing = [f"{p.module}.{p.attr}" for p in layers.PROBES
               if not callable(getattr(importlib.import_module(p.module), p.attr, None))]
    assert missing == []
