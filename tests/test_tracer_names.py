"""The benchmark's tracer still finds every library name it wraps.

``perfbench/layers.py`` names the functions it times.  A deleted or renamed
one only shows when the benchmark runs, and the unit suite does not run it,
so this test loads the tracer (reading ``perfbench/``, writing nothing there)
and checks that each named function resolves.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_layer_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        layers = importlib.import_module("layers")
        tracer = layers.Tracer()
    finally:
        sys.modules.pop("layers", None)
    expected = sorted(layers._span_name(layer, attr)
                      for layer, attrs in layers.LAYERS.items()
                      for attr in attrs)
    assert sorted(tracer.originals) == expected
