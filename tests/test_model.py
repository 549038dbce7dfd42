import math

import numpy as np
import pytest

from setn.autodiff import grad_check_params, no_grad
from setn.data import StockRecord
from setn.errors import ContractError, DataError, LabelError
from setn.evaluation import embed_universe
from setn.graph import StockGraph, sample_subgraph
from setn import model as model_module
from setn.model import SetnModel, compute_loss
from setn.text import Vocab


TEXTS = [
    "alpha beta gamma",
    "beta beta delta",
    "gamma delta alpha",
    "delta alpha beta",
    "alpha gamma gamma",
]


def make_records(n=5):
    return [StockRecord(i, f"S{i:04d}", TEXTS[i % len(TEXTS)], i % 3, i % 5)
            for i in range(n)]


def make_model(gnn="gcn", residual=True, depth=1, dim=6, seed=0, dropout=0.2,
               encoder_train="last", n_sectors=3, n_industries=5, pooling="mean"):
    vocab = Vocab.build(TEXTS)
    return SetnModel(vocab, dim=dim, depth=depth, gnn=gnn, residual=residual,
                     pooling=pooling, dropout=dropout,
                     n_sectors=n_sectors, n_industries=n_industries,
                     max_tokens=16, encoder_train=encoder_train,
                     rng=np.random.default_rng(seed))


@pytest.fixture
def chain():
    records = make_records(5)
    graph = StockGraph(5, ((0, 1), (1, 2), (3, 1), (2, 4)))
    return records, graph


def forward_target(model, records, graph, target, **kw):
    sub = sample_subgraph(graph, target)
    recs = [records[m] for m in sub.members]
    return sub, recs, model.forward(sub, recs, **kw)


def test_zeroed_gnn_with_residual_reduces_to_text_embedding(chain):
    records, graph = chain
    model = make_model(gnn="gcn", residual=True)
    model.gnn.weight.data[...] = 0.0
    model.gnn.bias.data[...] = 0.0
    sub, recs, result = forward_target(model, records, graph, 1)
    text_vec = model.encode_text(records[1]).data
    assert np.array_equal(result.embedding.data, text_vec)


def test_gnn_none_matches_text_only_classifier(chain):
    records, graph = chain
    model = make_model(gnn="none")
    _, _, result = forward_target(model, records, graph, 1)
    text_vec = model.encode_text(records[1]).data
    z = np.maximum(text_vec, 0.0)
    expected_sector = z @ model.head_sector.weight.data + model.head_sector.bias.data
    assert np.allclose(result.logits_sector.data, expected_sector)
    assert np.array_equal(result.embedding.data, text_vec)


def test_forward_shapes(chain):
    records, graph = chain
    model = make_model(n_sectors=3, n_industries=5, dim=6)
    _, _, result = forward_target(model, records, graph, 1)
    assert result.embedding.data.shape == (6,)
    assert result.logits_sector.data.shape == (3,)
    assert result.logits_industry.data.shape == (5,)


def test_forward_rejects_misaligned_records(chain):
    records, graph = chain
    model = make_model()
    sub = sample_subgraph(graph, 1)
    recs = [records[m] for m in sub.members]
    with pytest.raises(DataError):
        model.forward(sub, recs[:-1])
    swapped = list(reversed(recs))
    with pytest.raises(DataError):
        model.forward(sub, swapped)


def test_uniform_logits_loss_is_sum_of_log_class_counts(chain):
    records, graph = chain
    model = make_model(n_sectors=17, n_industries=33)
    for head in (model.head_sector, model.head_industry):
        head.weight.data[...] = 0.0
        head.bias.data[...] = 0.0
    _, _, result = forward_target(model, records, graph, 1)
    loss = compute_loss(result, 4, 20)
    assert loss.item() == pytest.approx(math.log(17) + math.log(33), abs=1e-12)


def test_loss_is_sum_of_standalone_cross_entropies(chain):
    from setn.autodiff import cross_entropy, reshape
    records, graph = chain
    model = make_model()
    _, _, result = forward_target(model, records, graph, 2)
    ls = cross_entropy(reshape(result.logits_sector, (1, 3)), [1]).item()
    li = cross_entropy(reshape(result.logits_industry, (1, 5)), [4]).item()
    total = compute_loss(result, 1, 4).item()
    assert abs(total - (ls + li)) < 1e-12


def test_confident_correct_logits_give_tiny_loss(chain):
    records, graph = chain
    model = make_model()
    _, _, result = forward_target(model, records, graph, 1)
    result.logits_sector.data[...] = [30.0, -30.0, -30.0]
    result.logits_industry.data[...] = [-30.0, 30.0, -30.0, -30.0, -30.0]
    assert compute_loss(result, 0, 1).item() < 1e-3


def test_loss_rejects_out_of_range_labels(chain):
    records, graph = chain
    model = make_model()
    _, _, result = forward_target(model, records, graph, 1)
    with pytest.raises(LabelError):
        compute_loss(result, 3, 0)
    with pytest.raises(LabelError):
        compute_loss(result, 0, 5)


@pytest.mark.parametrize("gnn,residual", [("gcn", True), ("gat", True), ("gcn", False), ("none", True)])
def test_full_model_gradients_match_finite_differences(chain, gnn, residual):
    records, graph = chain
    model = make_model(gnn=gnn, residual=residual, dim=4, encoder_train="last", dropout=0.0)
    sub = sample_subgraph(graph, 1)
    recs = [records[m] for m in sub.members]

    def f():
        result = model.forward(sub, recs, training=False)
        return compute_loss(result, records[1].sector, records[1].industry)

    err = grad_check_params(f, model.trainable_params())
    assert err < 1e-4


def test_embed_stock_is_deterministic(chain):
    records, graph = chain
    model = make_model(dropout=0.5)
    sub = sample_subgraph(graph, 1)
    recs = [records[m] for m in sub.members]
    a = model.embed_stock(sub, recs)
    b = model.embed_stock(sub, recs)
    assert np.array_equal(a, b)


def test_isolated_stock_embedding_matches_dense_oracle(chain):
    records, _ = chain
    graph = StockGraph(5, ())
    model = make_model(gnn="gcn", residual=True)
    sub = sample_subgraph(graph, 0)
    emb = model.embed_stock(sub, [records[0]])
    text_vec = model.encode_text(records[0]).data
    gnn_self = np.maximum(text_vec @ model.gnn.weight.data + model.gnn.bias.data, 0.0)
    assert np.max(np.abs(emb - (text_vec + gnn_self))) < 1e-12


def test_neighbor_text_changes_target_embedding():
    records = make_records(2)
    graph = StockGraph(2, ((1, 0),))
    model = make_model(gnn="gcn", residual=True)
    sub = sample_subgraph(graph, 0)
    base = model.embed_stock(sub, [records[0], records[1]])
    changed = [records[0],
               StockRecord(1, records[1].ticker, "delta delta delta", records[1].sector,
                           records[1].industry)]
    moved = model.embed_stock(sub, changed)
    assert not np.array_equal(base, moved)


def test_frozen_text_cache_matches_uncached_path(chain):
    records, graph = chain
    for policy in ("none", "last"):
        model = make_model(encoder_train=policy, depth=2)
        sub = sample_subgraph(graph, 1)
        recs = [records[m] for m in sub.members]
        plain = model.embed_stock(sub, recs)
        with model.encoder.frozen_prefix_cache():
            cached = model.embed_stock(sub, recs)
            assert model.encoder._prefix_cache  # populated on first use
            again = model.embed_stock(sub, recs)
        assert model.encoder._prefix_cache is None
        assert np.array_equal(cached, plain)
        assert np.array_equal(again, plain)


WORDS = ("alpha", "beta", "gamma", "delta")
# words per text; with the CLS id, 13 tokens exceed the 8-token budget below
TEXT_LENGTHS = (0, 3, 3, 1, 12, 3, 2, 3, 3, 5, 3, 2)


def _mixed_length_universe():
    records = [StockRecord(i, f"S{i:04d}",
                           " ".join(WORDS[(i + j) % 4] for j in range(length)), i % 3, i % 5)
               for i, length in enumerate(TEXT_LENGTHS)]
    edges = ((1, 0), (2, 0), (3, 0), (4, 0), (0, 5), (4, 5), (6, 5), (7, 8), (9, 8),
             (10, 8), (11, 8), (2, 1), (5, 3), (8, 6), (11, 10))
    return records, StockGraph(len(records), edges)


@pytest.mark.parametrize("gnn", ["gcn", "gat", "none"])
@pytest.mark.parametrize("pooling", ["mean", "max", "cls"])
def test_embed_universe_rows_equal_per_target_forward(monkeypatch, gnn, pooling):
    monkeypatch.setattr(model_module, "TEXT_BATCH_TOKENS", 8)
    records, graph = _mixed_length_universe()
    ids = list(range(len(records)))
    for policy in ("last", "none", "all"):
        for residual in (True, False):
            model = make_model(gnn=gnn, residual=residual, depth=2, encoder_train=policy,
                               pooling=pooling)
            emb = embed_universe(model, graph, records, ids)
            for sid in ids:
                sub = sample_subgraph(graph, sid)
                recs = [records[m] for m in sub.members]
                # recording on: the member-by-member path training takes
                expected = model.forward(sub, recs).embedding.data
                if not np.any(expected):
                    expected = np.ones_like(expected)  # embed_universe's fallback
                assert np.array_equal(emb.vectors[sid], expected), (policy, residual, sid)
                assert np.array_equal(model.embed_stock(sub, recs),
                                      model.forward(sub, recs).embedding.data)
            with model.encoder.frozen_prefix_cache():
                sub = sample_subgraph(graph, 0)
                model.forward(sub, [records[m] for m in sub.members])  # fills part of it
                cached = embed_universe(model, graph, records, ids)
            assert np.array_equal(cached.vectors, emb.vectors), (policy, residual)


def test_text_stage_is_forward_only():
    records, _ = _mixed_length_universe()
    model = make_model()
    with pytest.raises(ContractError):
        model.text_stage(records[:2])
    with no_grad():
        rows = model.text_stage(records[:2])
    assert rows.shape == (2, model.dim) and not rows.requires_grad
