"""The benchmark's tracer binds ``setn`` functions and methods by name. A
deletion or rename that breaks one of those bindings fails here, in the
Tier-1 suite, and not only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACE_POINTS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _trace_points()])
def test_trace_point_resolves_in_setn(module_name, attr):
    owner = importlib.import_module(f"setn.{module_name}")
    if "." in attr:
        # the tracer patches a method in the class's own namespace
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
        assert attr in vars(owner), f"{module_name}.{cls_name} defines no {attr}"
    assert callable(getattr(owner, attr))
