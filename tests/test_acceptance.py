"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The ordering criteria (5-8) train real models on
synthetic universes and take several minutes.
"""

import filecmp
import itertools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from setn.data import GeneratorSpec, generate_synthetic
from setn.evaluation import EmbeddingMatrix, evaluate_map, map_at_k, theme_metric
from setn.graph import (SUBGRAPH_HOPS, Subgraph, gat_attention, gat_layer,
                        gcn_layer, init_gnn_params, sample_subgraph)
from setn.model import compute_loss
from setn.text import MAX_TOKENS, Vocab
from setn.training import (TrainConfig, build_model, load_model, prepare_graph,
                           split_dataset, train)

from gradcheck import grad_check_params

SEEDS = (0, 1, 2, 3, 4)

pytestmark = pytest.mark.slow


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}  {name}  {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} ({detail})"


# ---------------------------------------------------------------------------
# shared model-training helper for the ordering criteria


def _train_and_score(spec: GeneratorSpec, cfg: TrainConfig) -> float:
    """Mean test MAP@5 on sector labels for one trained model."""
    ds = generate_synthetic(spec)
    vocab = Vocab.build(r.text for r in ds.records)
    split = split_dataset([r.stock_id for r in ds.records], cfg.proportions, cfg.seed)
    model = build_model(cfg, vocab, n_sectors=spec.sectors, n_industries=spec.industries)
    train(model, ds.graph, ds.records, split, cfg)
    g = prepare_graph(ds.graph, cfg)
    metrics = evaluate_map(model, g, ds.records, split.test, ks=(5,))
    return metrics["topix17"][5]


def _spec(seed, graph_signal, text_signal, direction_signal=0.0):
    return GeneratorSpec(n=300, sectors=6, industries=10, vocab_size=400,
                         tokens_per_doc=8, avg_degree=8,
                         graph_signal=graph_signal, text_signal=text_signal,
                         direction_signal=direction_signal, theme_count=4, seed=seed)


def _cfg(seed, **overrides):
    base = dict(epochs=10, hidden_dim=64, encoder_depth=1, max_tokens=24, seed=seed)
    base.update(overrides)
    return TrainConfig(**base)


def _mean_scores(graph_signal, text_signal, direction_signal, *config_variants):
    """Mean score over SEEDS for each config variant, in order.

    The runs are independent and deterministic, so two worker processes
    share them; each variant's mean is the same as a sequential loop's. Each
    worker's BLAS runs one thread, so the two do not share the cores with
    threads of their own.
    """
    specs, cfgs = [], []
    for overrides in config_variants:
        for seed in SEEDS:
            specs.append(_spec(seed, graph_signal, text_signal, direction_signal))
            cfgs.append(_cfg(seed, **overrides))
    # the spawned workers inherit the environment as it is when they start
    with (mock.patch.dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
          ProcessPoolExecutor(max_workers=2,
                              mp_context=multiprocessing.get_context("spawn")) as pool):
        scores = list(pool.map(_train_and_score, specs, cfgs))
    n = len(SEEDS)
    return [float(np.mean(scores[i:i + n])) for i in range(0, len(scores), n)]


@pytest.fixture(scope="module")
def joint_runs():
    """Criteria 5 and 6 share the dataset family and the joint-model runs."""
    t0 = time.time()
    joint, text_only = _mean_scores(0.6, 0.6, 0.0, dict(gnn="gcn", residual=True),
                                    dict(gnn="none"))
    elapsed_5 = time.time() - t0
    (no_residual,) = _mean_scores(0.6, 0.6, 0.0, dict(gnn="gcn", residual=False))
    return {"joint": joint, "text_only": text_only, "no_residual": no_residual,
            "elapsed_5": elapsed_5}


# ---------------------------------------------------------------------------
# 1. gradient correctness on a 5-node instance


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    spec = GeneratorSpec(n=5, sectors=3, industries=4, vocab_size=30,
                         tokens_per_doc=5, avg_degree=2, graph_signal=1.0,
                         text_signal=1.0, theme_count=2, seed=0)
    ds = generate_synthetic(spec)
    vocab = Vocab.build(r.text for r in ds.records)
    model = build_model(
        TrainConfig(hidden_dim=6, encoder_depth=1, max_tokens=8, seed=0,
                    gnn="gcn", residual=True, encoder_train="all", dropout=0.0),
        vocab, n_sectors=spec.sectors, n_industries=spec.industries)
    target = 0
    sub = sample_subgraph(ds.graph, target)
    recs = [ds.records[m] for m in sub.members]
    assert sub.size >= 2  # the instance must exercise neighbor aggregation

    def loss_fn():
        result = model.forward(sub, recs)
        return compute_loss(result, recs[0].sector, recs[0].industry)

    params = model.trainable_params()
    n_entries = sum(p.data.size for p in params)
    err = grad_check_params(loss_fn, params, h=1e-5)
    elapsed = time.time() - t0
    report(1, "gradient correctness vs finite differences",
           err < 1e-4 and elapsed < 30.0,
           f"rel_err={err:.2e} over {n_entries} parameters in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. layer oracles on the 2-node and 3-node fixtures


def _oracle_gcn(h, n, edges, weight, bias):
    a_hat = np.eye(n)
    for s, d in edges:
        a_hat[d, s] = 1.0
    deg = a_hat.sum(axis=1)
    norm = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            norm[i, j] = a_hat[i, j] / math.sqrt(deg[i] * deg[j])
    return np.maximum(norm @ h @ weight + bias, 0.0)


def _oracle_gat(h, n, edges, weight, bias, attention):
    d = weight.shape[0]
    wh = h @ weight
    allowed = {(i, i) for i in range(n)} | {(dst, src) for src, dst in edges}
    alpha = np.zeros((n, n))
    for i in range(n):
        scores = {}
        for j in range(n):
            if (i, j) in allowed:
                z = float(attention[:d] @ wh[i] + attention[d:] @ wh[j])
                scores[j] = z if z > 0 else 0.2 * z
        peak = max(scores.values())
        total = sum(math.exp(v - peak) for v in scores.values())
        for j, v in scores.items():
            alpha[i, j] = math.exp(v - peak) / total
    return np.maximum(alpha @ wh + bias, 0.0), alpha


def test_criterion_2_layer_oracles():
    from setn.autodiff import Tensor
    rng = np.random.default_rng(42)
    fixtures = [
        (2, ((0, 1),)),            # u -> v
        (3, ((1, 0), (2, 0))),     # star into the target
    ]
    worst_gcn = worst_gat = worst_rowsum = 0.0
    for n, edges in fixtures:
        sub = Subgraph(target=0, members=tuple(range(n)), edges=edges)
        h = rng.normal(size=(n, 3))
        p = init_gnn_params(3, rng, with_attention=True)
        got_gcn = gcn_layer(Tensor(h), sub, p).data
        want_gcn = _oracle_gcn(h, n, edges, p.weight.data, p.bias.data)
        worst_gcn = max(worst_gcn, float(np.max(np.abs(got_gcn - want_gcn))))

        got_gat = gat_layer(Tensor(h), sub, p).data
        want_gat, want_alpha = _oracle_gat(h, n, edges, p.weight.data,
                                           p.bias.data, p.attention.data)
        worst_gat = max(worst_gat, float(np.max(np.abs(got_gat - want_gat))))

        alpha = gat_attention(Tensor(h), sub, p).data
        worst_rowsum = max(worst_rowsum, float(np.max(np.abs(alpha.sum(axis=1) - 1.0))))
        worst_gat = max(worst_gat, float(np.max(np.abs(alpha - want_alpha))))

    report(2, "GNN layers match dense hand oracles",
           worst_gcn < 1e-10 and worst_gat < 1e-10 and worst_rowsum < 1e-12,
           f"gcn={worst_gcn:.2e} gat={worst_gat:.2e} rowsum={worst_rowsum:.2e}")


# ---------------------------------------------------------------------------
# 3. MAP oracle equivalence on small universes


def _brute_ap(ranked_rel, total_relevant, k):
    if total_relevant == 0:
        return 0.0
    score = hits = 0
    for i in range(1, min(k, len(ranked_rel)) + 1):
        if ranked_rel[i - 1]:
            hits += 1
            score += hits / i
    return score / min(k, total_relevant)


def _brute_rankings(ids, vectors):
    rankings = {}
    for qi, q in enumerate(ids):
        scored = []
        for i, sid in enumerate(ids):
            if sid == q:
                continue
            sim = float(vectors[i] @ vectors[qi] /
                        (np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[qi])))
            scored.append((-sim, sid))
        scored.sort()
        rankings[q] = [sid for _, sid in scored]
    return rankings


def _brute_map(ids, rankings, labels, k):
    total = 0.0
    for q in ids:
        rel = [1 if labels[sid] == labels[q] else 0 for sid in rankings[q]]
        relevant = sum(1 for o in ids if o != q and labels[o] == labels[q])
        total += _brute_ap(rel, relevant, k)
    return total / len(ids)


def test_criterion_3_map_oracle_equivalence():
    worst = 0.0
    checked = 0
    for seed in range(50):
        n = (seed % 12) + 1
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, 4))
        ids = list(range(n))
        emb = EmbeddingMatrix(ids, vectors)
        rankings = _brute_rankings(ids, vectors)
        for bits in itertools.product([0, 1], repeat=n):
            labels = dict(zip(ids, bits))
            for k in (1, 5, 12):
                mine = map_at_k(emb, labels, ks=(k,))[k]
                oracle = _brute_map(ids, rankings, labels, k)
                worst = max(worst, abs(mine - oracle))
                checked += 1
    report(3, "MAP@K equals brute-force oracle on all small universes",
           worst < 1e-12, f"max_abs_diff={worst:.2e} over {checked} comparisons")


# ---------------------------------------------------------------------------
# 4. random-guess theme baseline at published magnitude


def test_criterion_4_random_theme_baseline():
    t0 = time.time()
    values = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        emb = EmbeddingMatrix(list(range(489)), rng.normal(size=(489, 32)))
        members = tuple(rng.choice(489, size=16, replace=False).tolist())
        _, per_theme = theme_metric(emb, {"t": members})
        values.append(per_theme["t"])
    mean = float(np.mean(values))
    elapsed = time.time() - t0
    report(4, "random-guess theme metric at published magnitude",
           abs(mean - 0.031) <= 0.006 and elapsed < 60.0,
           f"mean={mean:.4f} (target 0.031 +/- 0.006) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5-8. ordering criteria on synthetic universes


def test_criterion_5_joint_model_beats_text_only(joint_runs):
    gap = joint_runs["joint"] - joint_runs["text_only"]
    report(5, "joint GCN+residual beats text-only by >= 0.03 MAP@5",
           gap >= 0.03 and joint_runs["elapsed_5"] < 600.0,
           f"joint={joint_runs['joint']:.3f} text={joint_runs['text_only']:.3f} "
           f"gap={gap:+.3f} in {joint_runs['elapsed_5']:.0f}s")


def test_criterion_6_residual_beats_no_residual(joint_runs):
    gap = joint_runs["joint"] - joint_runs["no_residual"]
    report(6, "residual fusion beats plain GNN output by >= 0.03 MAP@5",
           gap >= 0.03,
           f"residual={joint_runs['joint']:.3f} no_residual={joint_runs['no_residual']:.3f} "
           f"gap={gap:+.3f}")


def test_criterion_7_directed_beats_undirected():
    directed, undirected = _mean_scores(0.9, 0.3, 1.0,
                                        dict(gnn="gcn", residual=True, directed=True),
                                        dict(gnn="gcn", residual=True, directed=False))
    gap = directed - undirected
    report(7, "directed graph beats undirected by >= 0.03 MAP@5",
           gap >= 0.03,
           f"directed={directed:.3f} undirected={undirected:.3f} gap={gap:+.3f}")


def test_criterion_8_trained_encoder_beats_frozen():
    trained, frozen = _mean_scores(0.3, 0.9, 0.0,
                                   dict(gnn="gcn", residual=True, encoder_train="last"),
                                   dict(gnn="gcn", residual=True, encoder_train="none"))
    gap = trained - frozen
    report(8, "last-block training beats frozen encoder by >= 0.02 MAP@5",
           gap >= 0.02,
           f"trained={trained:.3f} frozen={frozen:.3f} gap={gap:+.3f}")


# ---------------------------------------------------------------------------
# 9. determinism of training and checkpoints


def test_criterion_9_determinism(tmp_path):
    from setn.cli import main

    data_dir = tmp_path / "data"
    argv = ["synth", "--out", str(data_dir), "--seed", "3", "--n", "40",
            "--sectors", "3", "--industries", "5", "--vocab-size", "80",
            "--tokens-per-doc", "6", "--text-signal", "0.9", "--graph-signal", "0.8"]
    assert main(argv) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "hidden_dim": 8, "encoder_depth": 1,
                                  "max_tokens": 8, "seed": 5}))
    ckpt_a, ckpt_b = tmp_path / "a.setn", tmp_path / "b.setn"
    for ckpt in (ckpt_a, ckpt_b):
        code = main(["train", "--nodes", str(data_dir / "nodes.jsonl"),
                     "--edges", str(data_dir / "edges.tsv"),
                     "--config", str(config), "--out", str(ckpt)])
        assert code == 0
    identical = filecmp.cmp(ckpt_a, ckpt_b, shallow=False)

    model, cfg = load_model(ckpt_a)
    reloaded, _ = load_model(ckpt_a)
    from setn.data import load_edges, load_nodes, Taxonomy
    taxonomy = Taxonomy.from_file(data_dir / "taxonomy.json")
    records, _ = load_nodes(data_dir / "nodes.jsonl", taxonomy)
    graph = prepare_graph(load_edges(data_dir / "edges.tsv", len(records)), cfg)
    sub = sample_subgraph(graph, 7)
    recs = [records[m] for m in sub.members]
    roundtrip_ok = np.array_equal(model.embed_stock(sub, recs),
                                  reloaded.embed_stock(sub, recs))
    report(9, "fixed-seed training and checkpoints are bit-identical",
           identical and roundtrip_ok,
           f"checkpoints_identical={identical} roundtrip_identical={roundtrip_ok}")


# ---------------------------------------------------------------------------
# 10. defaults audit


def test_criterion_10_defaults_audit():
    cfg = TrainConfig()
    checks = {
        "epochs=20": cfg.epochs == 20,
        "lr=0.001": cfg.learning_rate == 0.001,
        "dropout=0.2": cfg.dropout == 0.2,
        "pooling=mean": cfg.pooling == "mean",
        "1-hop": SUBGRAPH_HOPS == 1,
        "512-token truncation": cfg.max_tokens == 512 and MAX_TOKENS == 512,
        "last-block encoder training": cfg.encoder_train == "last",
        "directed": cfg.directed is True,
    }
    # target-only loss is structural: the loss reads exactly one stock's labels
    import inspect
    signature = inspect.signature(compute_loss)
    checks["target-only loss"] = list(signature.parameters) == [
        "result", "sector_label", "industry_label"]
    failed = [name for name, ok in checks.items() if not ok]
    report(10, "effective defaults equal the reference recipe",
           not failed, f"failed={failed}" if failed else "all defaults verified")
