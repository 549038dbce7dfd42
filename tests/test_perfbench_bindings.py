"""The benchmark's tracer binds ``setn`` functions and methods by name, and
its workloads call the public API with fixed arguments. A deletion or
rename that breaks either fails here, in the Tier-1 suite, and not only when
the benchmark runs."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


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


@pytest.fixture(scope="module")
def bench():
    """``perfbench/test_bench.py``, whose ``tiny`` workloads run in seconds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("test_bench")


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_untraced_tiny_workload_runs_and_passes_its_checks(bench, name, tmp_path,
                                                                monkeypatch):
    # the traced runs stay in perfbench/test_bench.py: their span accounting
    # is a property of the benchmark, not of the package
    monkeypatch.setattr(bench.workloads, "OUT_DIR", tmp_path)
    out = bench.workloads.run_workload(bench.tiny(name), seed=2, seconds=1, trace=False)
    assert out["failed"] == 0 and all(out["checks"].values()), out["checks"]
