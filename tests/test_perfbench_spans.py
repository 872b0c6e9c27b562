"""The benchmark's span tracer still finds every function it wraps.

`perfbench/run.py --trace 1` times lieflow by wrapping the functions that
`perfbench/spans.py` names in TARGETS. A target that is renamed or moved
would only show when a traced benchmark runs, so the tracer is installed
and removed here.
"""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    spans = load_spans()
    originals = {
        (mod, fn): getattr(importlib.import_module(f"lieflow.{mod}"), fn)
        for mod, fns in spans.TARGETS.items() for fn in fns
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, fn), original in originals.items():
            assert getattr(sys.modules[f"lieflow.{mod}"], fn) is not original, f"{mod}.{fn}"
    finally:
        tracer.uninstall()
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[f"lieflow.{mod}"], fn) is original, f"{mod}.{fn}"
