"""Tests of the benchmark itself, on universes small enough to run in seconds:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACE_POINTS, Tracer  # noqa: E402

setn = workloads.setn

TINY = {
    "train-ref": dict(n=60, config={"hidden_dim": 16, "max_tokens": 16}, embed_chunk=10,
                      score_repeats=2, setup_repeats=2),
    "train-full": dict(n=60, tokens_per_doc=12,
                       config={"gnn": "gat", "encoder_train": "all", "hidden_dim": 16,
                               "max_tokens": 16},
                       embed_chunk=10, score_repeats=2, setup_repeats=2),
    "infer-2000": dict(n=60, config={"hidden_dim": 16, "max_tokens": 16}, embed_chunk=10,
                       score_repeats=2, setup_repeats=2, loss_chunk=2),
}


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, **TINY[name])


def bindings() -> dict:
    """Every current binding of every trace point, keyed by (owner, attribute)."""
    out = {}
    for module_name, attr, _ in TRACE_POINTS:
        module = importlib.import_module(f"setn.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            out[(owner, meth)] = owner.__dict__[meth]
            continue
        original = getattr(module, attr)
        for key, mod in sys.modules.items():
            if mod is not None and (key == "setn" or key.startswith("setn.")):
                for name, value in vars(mod).items():
                    if value is original:
                        out[(mod, name)] = value
    return out


def train_digest(tracer=None) -> str:
    w = tiny("train-ref")
    ds, config, model = workloads.build_universe(w, seed=3, epochs=1)
    split = setn.split_dataset([r.stock_id for r in ds.records], config.proportions, config.seed)
    with tracer if tracer is not None else contextlib.nullcontext():
        setn.train(model, ds.graph, ds.records, split, config)
    return oracle.param_digest(model)


def test_tracing_keeps_digest_and_restores_originals():
    before = bindings()
    plain = train_digest()
    tracer = Tracer(setn, "test")
    traced = train_digest(tracer)
    assert traced == plain
    assert tracer.calls["text.block0"] > 0 and tracer.calls["text.block1"] > 0
    assert tracer.calls["autodiff.adam_step"] > 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_error():
    before = bindings()
    with pytest.raises(setn.DataError):
        with Tracer(setn, "test"):
            setn.sample_subgraph(setn.StockGraph(2, ()), 5)
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_times_add_up_to_root_spans():
    tracer = Tracer(setn, "test")
    train_digest(tracer)
    roots = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-9)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_a_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    out = workloads.run_workload(tiny(name), seed=2, seconds=1, trace=trace)
    assert out["failed"] == 0 and all(out["checks"].values()), out["checks"]
    assert set(out["end_to_end"]) | {"peak_rss_mb"} == set(run.END_TO_END)
    if trace:
        assert set(out["per_layer"]) == set(run.PER_LAYER)
        assert out["per_layer"]["trace.accounted_ratio"] > 0.5
    for unit, better in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
        assert unit and better in ("lower", "higher")


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_map_oracle_matches_library_with_ties():
    vectors = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]
    ids = list(range(5))
    labels = {0: 0, 1: 0, 2: 1, 3: 1, 4: 0}
    emb = setn.EmbeddingMatrix(ids, vectors)
    ranked = oracle.rankings(ids, emb.vectors, range(5))
    expected = oracle.map_at_k(ids, emb.vectors, np.array([labels[i] for i in ids]), (1, 2, 3),
                               ranked)
    assert setn.map_at_k(emb, labels, (1, 2, 3)) == pytest.approx(expected, abs=1e-12)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "train-ref",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
