"""The benchmark's tracer can still find every name it patches.

``perfbench/spans.py`` wraps functions and methods of ``surplan`` by name
for the traced benchmark run. Renaming or moving one of them breaks only that
run, so this test installs the tracer once, runs nothing under it, and checks
that leaving restores the originals.
"""

import importlib.util
from pathlib import Path

import surplan.planner
import surplan.product

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_installs_and_restores_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (surplan.product.mission_distance, surplan.planner.Planner.step)
    tracer = spans.Tracer()
    with tracer.installed():
        assert surplan.product.mission_distance is not originals[0]
        assert surplan.planner.Planner.step is not originals[1]
    assert (surplan.product.mission_distance, surplan.planner.Planner.step) == originals
    assert tracer.take() == []
