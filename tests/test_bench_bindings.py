"""The benchmark's tracer must resolve every engine name it wraps.

perfbench/tracer.py binds engine functions and methods by name; a rename in
the engine would break `perfbench/run.py --trace 1`.  This installs and
restores a Tracer without timing anything.
"""

import sys
from pathlib import Path

import scrollinflect.cli as cli
import scrollinflect.scroll as scroll
import scrollinflect.theorems as theorems

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402


def test_tracer_resolves_and_restores_its_targets():
    bound = {(mod, name): getattr(mod, name) for mod, name in
             [(scroll, "normalized_series"), (theorems, "normalized_series"),
              (cli, "h0")]}
    with tracer.Tracer():
        for (mod, name), original in bound.items():
            assert getattr(mod, name) is not original, (mod.__name__, name)
            assert getattr(mod, name).__wrapped__ is original
    for (mod, name), original in bound.items():
        assert getattr(mod, name) is original, (mod.__name__, name)
