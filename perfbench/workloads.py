"""The benchmark's workloads. ``run.py`` runs one of them per child process:

    python3 perfbench/workloads.py --workload train-ref --seed 0 --seconds 20 --trace 0

and reads the JSON object this prints as its last stdout line. Everything
goes through the public ``setn`` API, called as ``setn.<name>`` at call time
so that the tracer's wrappers are seen. Inputs derive from ``--seed`` only.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import setn  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

REPEATS = 2          # training workloads train twice per run to compare digests
KS = (5, 10, 50)
MAP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                   # "train" or "infer"
    n: int
    tokens_per_doc: int = 24
    config: dict = field(default_factory=dict)   # TrainConfig fields besides seed/epochs
    epoch_budget_s: float = 0.0  # seconds one epoch of one repeat may take, eval share included
    setup_repeats: int = 5
    embed_chunk: int = 30        # stocks per embed_universe call
    score_repeats: int = 25
    loss_chunk: int = 10         # infer: stocks in the forward + loss chunk after each slice

    def epochs(self, seconds: float) -> int:
        return max(1, int(seconds / (REPEATS * self.epoch_budget_s)))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train-ref",
            "the paper's reference recipe on n=300: a frozen block 0 recomputed per member, "
            "which a frozen-prefix cache would skip",
            "train", n=300, epoch_budget_s=5.0),
        Workload(
            "train-full",
            "full-encoder GAT on 64-token texts: no frozen prefix, so a prefix cache must "
            "leave it unchanged",
            "train", n=300, tokens_per_doc=64,
            config={"gnn": "gat", "encoder_train": "all"}, epoch_budget_s=10.0),
        Workload(
            "infer-2000",
            "embed --split all and MAP@K/theme scoring at n=2000: forward-only work and "
            "quadratic ranking",
            "infer", n=2000, embed_chunk=100, score_repeats=8),
    )
}


class EpochClock:
    """Log stream for ``setn.train``: stamps the time each epoch's line arrives."""

    def __init__(self):
        self.marks: list[float] = []

    def write(self, _line: str) -> None:
        self.marks.append(time.perf_counter())


class Run:
    """Counts operations and checks, and owns the tracer (traced runs) or
    the host-speed sampler (untraced runs)."""

    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.info: dict = {}
        self.tracer = Tracer(setn, f"{workload.name}-s{seed}-{os.getpid()}") if trace else None
        self.speed = None if trace else hostspeed.HostSpeed()
        self.traced_s = 0.0      # wall time of traced work that has an untraced twin
        self.untraced_s = 0.0    # wall time of that untraced twin

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        ok = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)
        self.checks[name] = self.checks.get(name, True) and ok

    def traced(self, on: bool):
        return self.tracer if (on and self.tracer is not None) else nullcontext()

    def seconds(self, start: float, end: float) -> float:
        """A measured interval at the nominal host speed (raw in traced runs)."""
        return self.speed.seconds(start, end) if self.speed is not None else end - start


def _timed(fn, *args):
    """Run ``fn`` from a freshly collected heap; returns (start, end, result).

    Without the collection, when the cyclic collector happens to run moved
    a 40 ms set-up between 26 and 62 ms within one process."""
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return start, time.perf_counter(), result


def _load_golden() -> dict:
    if GOLDEN_PATH.exists():
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


# ---------------------------------------------------------------------------
# set-up


def build_universe(w: Workload, seed: int, epochs: int = 1):
    ds = setn.generate_synthetic(setn.GeneratorSpec(n=w.n, tokens_per_doc=w.tokens_per_doc,
                                                    seed=seed))
    vocab = setn.Vocab.build(r.text for r in ds.records)
    config = setn.TrainConfig(seed=seed, epochs=epochs, **w.config)
    model = setn.build_model(config, vocab, ds.taxonomy.n_sectors, ds.taxonomy.n_industries)
    return ds, config, model


def checkpoint_roundtrip(model, config, tmp: Path):
    path = tmp / "model.setn"
    setn.save_model(model, path, config)
    loaded, _ = setn.load_model(path)
    return loaded


def setup_infer(w: Workload, seed: int, tmp: Path):
    ds, config, model = build_universe(w, seed)
    return ds, config, model, checkpoint_roundtrip(model, config, tmp)


# ---------------------------------------------------------------------------
# the evaluation pass: embed --split all, export, score


def embed_all(run: Run, model, ds, config, trace_second_half: bool = False,
              after_slice=None):
    """Embed the whole universe in equal slices; returns (ids, vectors, rates
    of the untraced slices). ``after_slice(i, traced)`` runs after slice i."""
    w = run.workload
    ids = [r.stock_id for r in ds.records]
    slices = [ids[i:i + w.embed_chunk] for i in range(0, len(ids), w.embed_chunk)]
    half = len(slices) // 2
    graph = setn.training.prepare_graph(ds.graph, config)
    rates, rows = [], []
    for i, chunk in enumerate(slices):
        traced = trace_second_half and i >= half
        with run.traced(traced):
            start, end, emb = _timed(setn.embed_universe, model, graph, ds.records, chunk,
                                     config.neighbor_direction)
        run.ops(len(chunk))
        rows.append(emb.vectors)
        if traced:
            run.traced_s += end - start
        else:
            rates.append(len(chunk) / run.seconds(start, end))
            if trace_second_half:  # workloads use an even slice count, so halves match
                run.untraced_s += end - start
        if after_slice is not None:
            after_slice(i, traced)
    return ids, np.vstack(rows), rates


def score(run: Run, ids, vectors, ds):
    """MAP@K on both taxonomies, then the theme metric, on a cold ranking
    cache; returns (start, end, queries, scores)."""
    emb = setn.EmbeddingMatrix(list(ids), vectors)
    sectors = {r.stock_id: r.sector for r in ds.records}
    industries = {r.stock_id: r.industry for r in ds.records}
    gc.collect()
    start = time.perf_counter()
    map_s = setn.map_at_k(emb, sectors, KS)
    map_i = setn.map_at_k(emb, industries, KS)
    theme, _ = setn.theme_metric(emb, ds.themes)
    end = time.perf_counter()
    queries = 2 * len(ids) + sum(len(m) for _, m in ds.themes.items())
    run.ops(queries)
    return start, end, queries, {"sector": map_s, "industry": map_i, "theme": theme}


def export_roundtrip(run: Run, ids, vectors, tmp: Path) -> None:
    """Write the embeddings as TSV (the embed command's output) and read them back."""
    tsv = tmp / "embeddings.tsv"
    setn.export_embeddings(ids, vectors, tsv, "tsv")
    back_ids, back = setn.load_embeddings(tsv)
    run.ops(1)
    run.check("export_roundtrip", back_ids == list(ids)
              and np.allclose(back, vectors, rtol=1e-8, atol=1e-12))


def check_scores(run: Run, ids, vectors, ds, scores, dim: int) -> None:
    """Shape and finiteness, then MAP@K and theme scores against the oracle."""
    run.check("embeddings_finite", np.all(np.isfinite(vectors)))
    run.check("embeddings_shape", vectors.shape == (len(ds.records), dim),
              f"got {vectors.shape}")
    ranked = oracle.rankings(list(ids), vectors, range(len(ids)))
    for level in ("sector", "industry"):
        labels = np.array([getattr(r, level) for r in ds.records])
        expected = oracle.map_at_k(list(ids), vectors, labels, KS, ranked)
        got = scores[level]
        run.check("map_oracle", all(abs(got[k] - expected[k]) <= MAP_TOLERANCE for k in KS),
                  f"{level}: {got} vs {expected}")
    row_of = {sid: i for i, sid in enumerate(ids)}
    expected_theme = oracle.theme_score(row_of, ds.themes, ranked)
    run.check("theme_oracle", abs(scores["theme"] - expected_theme) <= MAP_TOLERANCE,
              f"{scores['theme']} vs {expected_theme}")


def _median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# workloads


def run_train(run: Run, seconds: float) -> dict:
    """Train twice from the same seed (the second time traced, in a traced
    run), checkpoint, embed --split all, export and score after each."""
    w, seed = run.workload, run.seed
    tracing = run.tracer is not None
    epochs = w.epochs(seconds)
    run.info["epochs"] = epochs
    setup_s = [run.seconds(*_timed(build_universe, w, seed, epochs)[:2])
               for _ in range(w.setup_repeats)]

    epoch_rates, embed_rates, score_rates = [], [], []
    digests, emb_digests, core_s = [], [], []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_name:
        tmp = Path(tmp_name)
        for rep in range(REPEATS):
            traced = tracing and rep == REPEATS - 1
            with run.traced(traced):
                start = time.perf_counter()
                ds, config, model = build_universe(w, seed, epochs)
                split = setn.split_dataset([r.stock_id for r in ds.records],
                                           config.proportions, config.seed)
                clock = EpochClock()
                t0 = time.perf_counter()
                history = setn.train(model, ds.graph, ds.records, split, config,
                                     log_stream=clock)
                loaded = checkpoint_roundtrip(model, config, tmp)
                ids, vectors, rates = embed_all(run, model, ds, config)
                export_roundtrip(run, ids, vectors, tmp)
                score_start, score_end, queries, scores = score(run, ids, vectors, ds)
                core_s.append(time.perf_counter() - start)
            run.ops(epochs * len(split.train) + 1)
            if not traced:
                marks = [t0] + clock.marks
                epoch_rates += [len(split.train) / run.seconds(a, b)
                                for a, b in zip(marks, marks[1:])]
                embed_rates += rates
                score_rates.append(queries / run.seconds(score_start, score_end))
                for _ in range(w.score_repeats - 1):
                    score_start, score_end, queries, _ = score(run, ids, vectors, ds)
                    score_rates.append(queries / run.seconds(score_start, score_end))
            losses = [h["mean_train_loss"] for h in history]
            run.check("loss_finite", all(math.isfinite(x) for x in losses), str(losses))
            run.info["epoch_losses"] = losses
            digests.append(oracle.param_digest(model))
            run.check("checkpoint_roundtrip", oracle.param_digest(loaded) == digests[-1])
            emb_digests.append(oracle.array_digest(vectors))
            if rep == 0:
                check_scores(run, ids, vectors, ds, scores, model.dim)
    if tracing:
        run.untraced_s += core_s[0]
        run.traced_s += core_s[-1]

    run.check("param_digest_repeat", len(set(digests)) == 1, str(digests))
    run.check("embedding_digest_repeat", len(set(emb_digests)) == 1)
    run.info["param_sha256"] = digests[0]
    golden = _load_golden().get(w.name, {}).get(str(seed))
    if golden is not None and golden["epochs"] == epochs:
        run.check("param_digest_golden", golden["sha256"] == digests[0],
                  f"{digests[0]} vs golden {golden['sha256']}")
        run.info["golden"] = "match" if golden["sha256"] == digests[0] else "MISMATCH"
    else:
        run.info["golden"] = f"none recorded for seed {seed} at {epochs} epochs"

    return {
        "setup_s": _median(setup_s),
        "targets_per_s": _median(epoch_rates),
        "embed_stocks_per_s": _median(embed_rates),
        "score_queries_per_s": _median(score_rates),
        "map5_sector": scores["sector"][5],
        "map5_industry": scores["industry"][5],
    }


def run_infer(run: Run, seconds: float) -> dict:
    """Build and checkpoint an untrained model; embed --split all, with a
    forward + loss chunk after each slice; export; score. A traced run traces
    one extra set-up, the second half of the slices and chunks, the export
    and the last scoring."""
    w, seed = run.workload, run.seed
    tracing = run.tracer is not None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_name:
        tmp = Path(tmp_name)
        setup_s = []
        for _ in range(w.setup_repeats):
            start, end, state = _timed(setup_infer, w, seed, tmp)
            setup_s.append(run.seconds(start, end))
        run.ops(w.setup_repeats)
        if tracing:
            with run.tracer:
                start, end, state = _timed(setup_infer, w, seed, tmp)
            run.traced_s += end - start
            run.untraced_s += _median(setup_s)
        ds, config, built, model = state
        run.check("checkpoint_roundtrip", oracle.param_digest(built) == oracle.param_digest(model))
        run.info["param_sha256"] = oracle.param_digest(model)
        graph = setn.training.prepare_graph(ds.graph, config)

        # forward + loss chunks, a training step without backward and Adam,
        # interleaved with the embed slices so both see the same host states
        loss_values, target_rates = [], []

        def forward_loss(i: int, traced: bool) -> None:
            chunk = ds.records[i * w.loss_chunk:(i + 1) * w.loss_chunk]
            with run.traced(traced):
                start = time.perf_counter()
                for rec in chunk:
                    sub = setn.sample_subgraph(graph, rec.stock_id, config.neighbor_direction)
                    result = model.forward(sub, [ds.records[m] for m in sub.members])
                    loss_values.append(setn.compute_loss(result, rec.sector, rec.industry).item())
                end = time.perf_counter()
            run.ops(len(chunk))
            if traced:
                run.traced_s += end - start
            else:
                target_rates.append(len(chunk) / run.seconds(start, end))
                if tracing:
                    run.untraced_s += end - start

        ids, vectors, embed_rates = embed_all(run, model, ds, config, trace_second_half=tracing,
                                              after_slice=forward_loss)
        run.check("loss_finite", all(math.isfinite(x) for x in loss_values))
        with run.traced(tracing):
            export_roundtrip(run, ids, vectors, tmp)

        score_rates = []
        for rep in range(w.score_repeats):
            traced = tracing and rep == w.score_repeats - 1
            with run.traced(traced):
                start, end, queries, scores = score(run, ids, vectors, ds)
            if traced:
                run.traced_s += end - start
            else:
                score_rates.append(queries / run.seconds(start, end))
                if tracing and rep == 0:
                    run.untraced_s += end - start
    check_scores(run, ids, vectors, ds, scores, model.dim)

    return {
        "setup_s": _median(setup_s),
        "targets_per_s": _median(target_rates),
        "embed_stocks_per_s": _median(embed_rates),
        "score_queries_per_s": _median(score_rates),
        "map5_sector": scores["sector"][5],
        "map5_industry": scores["industry"][5],
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced part of the run


def layer_metrics(run: Run) -> dict:
    t = run.tracer
    self_s, calls, counts = t.self_s, t.calls, t.counts
    steps = calls["autodiff.adam_step"]
    rn_calls = calls["evaluation.ranked_neighbors"]
    m = {
        "text.tokenize.self_s": self_s["text.tokenize"],
        "text.encode.calls": calls["text.encode"],
        "text.encode.self_s": self_s["text.encode"],
        "text.block0.calls": calls["text.block0"],
        "text.block0.self_s": self_s["text.block0"],
        "text.block1.calls": calls["text.block1"],
        "text.block1.self_s": self_s["text.block1"],
        "text.pool.self_s": self_s["text.pool"],
        "graph.sample_subgraph.calls": calls["graph.sample_subgraph"],
        "graph.sample_subgraph.self_s": self_s["graph.sample_subgraph"],
        "graph.subgraph_members.mean":
            counts["graph.subgraph_members"] / max(1, calls["graph.sample_subgraph"]),
        "graph.gnn_layer.self_s": self_s["graph.gnn_layer"],
        "model.forward.calls": calls["model.forward"],
        "model.forward.self_s": self_s["model.forward"],
        "model.compute_loss.self_s": self_s["model.compute_loss"],
        "autodiff.backward.self_s": self_s["autodiff.backward"],
        "autodiff.adam_step.self_s": self_s["autodiff.adam_step"],
        "autodiff.tensors_created": counts["autodiff.Tensor.__init__"],
        "autodiff.tensors_per_step": counts["training.tensors"] / steps if steps else 0.0,
        "training.train.self_s": self_s["training.train"],
        "training.validation_s":
            t.span_durations("evaluation.embed_universe", "training.train")
            + t.span_durations("evaluation.map_at_k", "training.train"),
        "training.save_model_s": t.total_s["training.save_model"],
        "training.load_model_s": t.total_s["training.load_model"],
        "evaluation.embed_universe.self_s": self_s["evaluation.embed_universe"],
        "evaluation.map_at_k.self_s": self_s["evaluation.map_at_k"],
        "evaluation.theme_metric.self_s": self_s["evaluation.theme_metric"],
        "evaluation.ranked_neighbors.calls": rn_calls,
        "evaluation.ranked_cache_hit_ratio":
            counts["evaluation.ranked_cache_hits"] / rn_calls if rn_calls else 0.0,
        "data.generate_synthetic_s": t.total_s["data.generate_synthetic"],
        "data.export_embeddings_s": t.total_s["data.export_embeddings"],
        "trace.overhead_ratio": run.traced_s / run.untraced_s,
        "trace.wall_s": t.wall_s,
        "trace.accounted_ratio": sum(self_s.values()) / t.wall_s,
        "trace.spans": len(t.spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    return m


def machine_info() -> dict:
    info = {"python": sys.version.split()[0], "numpy": np.__version__, "blas": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return info


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its metrics, checks and machine info."""
    name = workload.name
    run = Run(workload, seed, trace)
    fn = run_train if run.workload.kind == "train" else run_infer
    with run.speed if run.speed is not None else nullcontext():
        end_to_end = fn(run, seconds)
    if run.speed is not None:
        run.info["host_slowdown"] = (statistics.median(run.speed.durations)
                                     / hostspeed.NOMINAL_PROBE_S)
    out = {
        "workload": name,
        "why": run.workload.why,
        "seed": seed,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "info": {**run.info, **machine_info()},
        "end_to_end": end_to_end,
    }
    if trace:
        out["per_layer"] = layer_metrics(run)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-s{seed}.jsonl"
        run.tracer.dump(spans_path)
        out["info"]["spans_file"] = os.path.relpath(spans_path, ROOT)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
