import math
import sys
import threading
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setn import autodiff as ad
from setn.autodiff import (add, backward, dropout, linear, no_grad, place_rows, relu,
                           reshape, take_rows)
from setn.data import GeneratorSpec, StockRecord, generate_synthetic
from setn.errors import DataError, LabelError, NonFiniteError
from setn.evaluation import embed_universe
from setn.graph import StockGraph, gat_layer, gcn_layer, sample_subgraph
from setn import model as model_module
from setn.model import ForwardResult, SetnModel, compute_loss, param_shapes
from setn.text import Vocab, _cached_rows, tokenize
from setn.training import TrainConfig

from gradcheck import grad_check_params
from test_training import _count_memo_misses


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
    config = TrainConfig(hidden_dim=dim, encoder_depth=depth, gnn=gnn, residual=residual,
                         pooling=pooling, dropout=dropout, max_tokens=16,
                         encoder_train=encoder_train)
    return SetnModel(config, Vocab.build(TEXTS), n_sectors, n_industries,
                     np.random.default_rng(seed))


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
    from setn.autodiff import cross_entropy
    records, graph = chain
    model = make_model()
    _, _, result = forward_target(model, records, graph, 2)
    ls = cross_entropy(result.logits_sector, 1).item()
    li = cross_entropy(result.logits_industry, 4).item()
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
        result = model.forward(sub, recs)
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
            # recorded passes, the path train takes: no_grad ones read the text memo
            cached = model.forward(sub, recs).embedding.data
            assert model.encoder._prefix_cache  # populated on first use
            again = model.forward(sub, recs).embedding.data
        assert model.encoder._prefix_cache is None
        assert np.array_equal(cached, plain)
        assert np.array_equal(again, plain)


@pytest.mark.parametrize("gnn", ["gcn", "gat", "none"])
@pytest.mark.parametrize("depth, policy", [(0, "none"), (1, "last"), (2, "all")])
def test_param_shapes_list_the_built_models_parameters(gnn, depth, policy):
    model = make_model(gnn=gnn, depth=depth, encoder_train=policy, n_sectors=3, n_industries=5)
    assert list(param_shapes(model.config, len(model.vocab), 3, 5)) == [
        (name, p.data.shape) for name, p in model.named_params()]


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


def test_embed_universe_rejects_an_empty_id_list(chain):
    records, graph = chain
    with pytest.raises(DataError, match="empty"):
        embed_universe(make_model(), graph, records, [])


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
                # recording on: the path training takes
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


@pytest.mark.parametrize("gnn", ["gcn", "gat", "none"])
def test_embed_universe_reads_the_fused_row_and_runs_no_head(chain, gnn):
    records, graph = chain
    model = make_model(gnn=gnn)
    ids = list(range(len(records)))
    before = embed_universe(model, graph, records, ids).vectors
    for head in (model.head_sector, model.head_industry):
        head.weight.data[...] = np.nan  # a Tensor checks finiteness only when built
    assert np.array_equal(embed_universe(model, graph, records, ids).vectors, before)
    sub = sample_subgraph(graph, 1)
    with no_grad():
        row = model.graph_stage(model.text_stage([records[m] for m in model.text_members(sub)]), sub)
    assert row.shape == (1, model.dim) and np.array_equal(row.data[0], before[1])


@pytest.mark.parametrize("budget", [512, 6])
@pytest.mark.parametrize("gnn", ["gcn", "gat"])
def test_embed_universe_runs_the_layer_once_per_size_batch(monkeypatch, gnn, budget):
    """One layer call per batch of targets with one member count, cut by the
    budget in member rows, not one per target."""
    monkeypatch.setattr(model_module, "TEXT_BATCH_TOKENS", budget)
    records, graph = _mixed_length_universe()
    ids = list(range(len(records)))
    name = f"{gnn}_layer"
    layer, stacks = getattr(model_module, name), []
    monkeypatch.setattr(model_module, name,
                        lambda h, sub, params: stacks.append(h.shape) or layer(h, sub, params))
    model = make_model(gnn=gnn)
    embed_universe(model, graph, records, ids)
    sizes = Counter(sample_subgraph(graph, sid).size for sid in ids)
    expected = []
    for n, count in sizes.items():
        step = max(1, budget // n)
        expected += [(min(step, count - lo), n, model.dim) for lo in range(0, count, step)]
    assert sorted(stacks) == sorted(expected)
    assert len(stacks) == {512: len(sizes), 6: 6}[budget] < len(ids)


@pytest.mark.parametrize("gnn", ["gcn", "gat"])
def test_embed_universe_raises_when_the_gnn_overflows(chain, gnn):
    records, graph = chain
    model = make_model(gnn=gnn)
    # any feature of magnitude above 1 times this weight overflows to inf
    model.gnn.weight.data[...] = np.finfo(np.float64).max
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        embed_universe(model, graph, records, list(range(len(records))))


@st.composite
def _hub_universes(draw):
    """Records of mixed text lengths and a graph with isolated nodes, one hub
    that every other linked node points to, a ring over the linked nodes (so
    many targets share one member count) and some extra edges."""
    n = draw(st.integers(3, 12))
    isolated = draw(st.sets(st.integers(1, n - 1), max_size=n - 2))
    linked = [i for i in range(1, n) if i not in isolated]
    edges = {(i, 0) for i in linked}
    edges |= {(a, b) for a, b in zip(linked, linked[1:] + linked[:1]) if a != b}
    pairs = [(s, d) for s in linked for d in linked if s != d]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n // 2)))
    records = [StockRecord(i, f"S{i:04d}", " ".join(WORDS[(i + j) % 4]
                                                    for j in range(draw(st.integers(0, 5)))),
                           i % 3, i % 5)
               for i in range(n)]
    return records, StockGraph(n, tuple(sorted(edges)))


@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("gnn", ["gcn", "gat", "none"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(universe=_hub_universes(), budget=st.integers(1, 6), depth=st.integers(1, 2),
       data=st.data())
def test_embed_universe_rows_equal_the_recorded_forward_for_any_slicing(gnn, residual, universe,
                                                                       budget, depth, data):
    """Any partition of the stocks into slices, in any order, under a graph
    budget small enough to split batches: every row is the recorded forward
    pass's embedding of that stock, byte for byte, with the fallback for an
    all-zero row."""
    records, graph = universe
    n = len(records)
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))))
    slices = [order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
    model = make_model(gnn=gnn, residual=residual, depth=depth, seed=data.draw(st.integers(0, 3)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "TEXT_BATCH_TOKENS", budget)
        for part in slices:
            emb = embed_universe(model, graph, records, part)
            assert emb.ids == list(part)
            for sid, row in zip(part, emb.vectors):
                assert row.tobytes() == _recorded_row(model, graph, records, sid).tobytes(), sid


@pytest.mark.parametrize("gnn", ["gcn", "gat"])
def test_an_all_zero_embedding_falls_back_to_all_ones_and_is_logged(chain, caplog, gnn):
    records, graph = chain
    model = make_model(gnn=gnn, residual=False)
    model.gnn.weight.data[...] = 0.0
    model.gnn.bias.data[...] = -1.0  # the layer's ReLU outputs zero for every member
    ids = [0, 2, 4]
    with caplog.at_level("DEBUG", logger="setn.evaluation"):
        emb = embed_universe(model, graph, records, ids)
    assert emb.vectors.tobytes() == np.ones((3, model.dim)).tobytes()
    for sid in ids:
        sub = sample_subgraph(graph, sid)
        stock = model.embed_stock(sub, [records[m] for m in sub.members])
        assert np.array_equal(stock, np.zeros(model.dim))  # -0.0 where ReLU cut a negative
    assert [r.getMessage() for r in caplog.records] == [
        "3 of 3 embeddings were all-zero; using the shared fallback direction"]


def test_recorded_text_stage_rows_require_grad_and_equal_no_grad_rows(monkeypatch):
    monkeypatch.setattr(model_module, "TEXT_BATCH_TOKENS", 8)
    records, _ = _mixed_length_universe()
    model = make_model(depth=2)
    encode = model.encoder.encode
    calls = []
    monkeypatch.setattr(model.encoder, "encode",
                        lambda ids: calls.append(1) or encode(ids))
    recorded = model.text_stage(records)
    # recording ignores the token budget: one batch per distinct length
    assert len(calls) == len(set(TEXT_LENGTHS))
    with no_grad():
        rows = model.text_stage(records)
    assert len(calls) > 2 * len(set(TEXT_LENGTHS))  # the budget splits batches here
    assert recorded.requires_grad and not rows.requires_grad
    assert recorded.shape == (len(records), model.dim)
    assert np.array_equal(recorded.data, rows.data)


def per_member_forward(model, sub, recs, rng=None):
    """The recorded forward pass before batching, kept as the reference:
    every member encoded on its own, the rows stacked for the GNN, and the
    residual reading the target's own vector."""
    rows = [model.encode_text(r) for r in recs[:len(model.text_members(sub))]]
    h = rows[0]
    if model.gnn is not None:
        layer = gcn_layer if model.config.gnn == "gcn" else gat_layer
        h_gnn = layer(place_rows([reshape(r, (1, model.dim)) for r in rows],
                                 [[i] for i in range(len(rows))]), sub, model.gnn)
        target_gnn = reshape(take_rows(h_gnn, [0]), (model.dim,))
        h = add(h, target_gnn) if model.config.residual else target_gnn
    z = reshape(dropout(relu(h), model.config.dropout, rng), (1, model.dim))
    logits = [reshape(linear(z, head.weight, head.bias), (n,))
              for head, n in ((model.head_sector, model.n_sectors),
                              (model.head_industry, model.n_industries))]
    return ForwardResult(h, *logits)


def _loss_and_grads(model, forward, sub, recs):
    result = forward(model, sub, recs, rng=np.random.default_rng(sub.target))
    loss = compute_loss(result, recs[0].sector, recs[0].industry)
    backward(loss)
    params = model.trainable_params()
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return loss.item(), grads


@pytest.mark.parametrize("mixed", [False, True], ids=["equal-lengths", "mixed-lengths"])
@pytest.mark.parametrize("gnn", ["gcn", "gat", "none"])
def test_batched_training_pass_matches_per_member_reference(gnn, mixed):
    """A training pass gives the loss of the member-by-member reference bit
    for bit, and its gradients too when every text has one length. With
    mixed lengths the slices of a shared weight add up by length group, not
    by member, so the gradients agree within 1e-12 of the pass's largest
    gradient entry (some gradients, such as an attention key bias's, are
    rounding noise around zero and have no scale of their own)."""
    spec = GeneratorSpec(n=40, sectors=3, industries=5, vocab_size=60, tokens_per_doc=8,
                         min_tokens_per_doc=4 if mixed else 0, avg_degree=6, seed=5)
    ds = generate_synthetic(spec)
    vocab = Vocab.build(r.text for r in ds.records)
    lengths = [len(tokenize(r.text, vocab)) for r in ds.records]
    subs = [sample_subgraph(ds.graph, target) for target in range(20)]
    mixed_subs = sum(len({lengths[m] for m in sub.members}) > 1 for sub in subs)
    assert (mixed_subs >= 10) if mixed else (mixed_subs == 0)
    for policy in ("last", "none", "all"):
        for residual in (True, False):
            config = TrainConfig(hidden_dim=6, encoder_depth=2, gnn=gnn, residual=residual,
                                 max_tokens=16, encoder_train=policy)
            model = SetnModel(config, vocab, 3, 5, np.random.default_rng(1))
            for cached in (False, True):
                with model.encoder.frozen_prefix_cache() if cached else nullcontext():
                    for sub in subs:
                        recs = [ds.records[m] for m in sub.members]
                        ref_loss, ref_grads = _loss_and_grads(model, per_member_forward, sub, recs)
                        loss, grads = _loss_and_grads(model, SetnModel.forward, sub, recs)
                        where = (policy, residual, cached, sub.target)
                        assert loss == ref_loss, where
                        if not mixed:
                            assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads)), where
                            continue
                        scale = max(np.max(np.abs(b)) for b in ref_grads)
                        for a, b in zip(grads, ref_grads):
                            assert np.max(np.abs(a - b)) <= 1e-12 * scale, where


# ---------------------------------------------------------------------------
# the no_grad text stage's memo of pooled rows


def _token_key(model, record):
    return tuple(tokenize(record.text, model.vocab, max_tokens=model.config.max_tokens))


def _encoder_bytes(model):
    return [p.data.tobytes() for _, p in model.encoder.named_params()]


def _recorded_row(model, graph, records, sid):
    """The recorded forward pass's embedding of ``sid``, the path training
    takes, with ``embed_universe``'s fallback for an all-zero row."""
    sub = sample_subgraph(graph, sid)
    row = model.forward(sub, [records[m] for m in sub.members]).embedding.data
    return row if np.any(row) else np.ones_like(row)


def _change_parameters(model, change, draw, records, graph):
    """Change the model's parameters in place as ``change`` names: the
    encoder's, and the rest too for one Adam step on a target of the graph."""
    encoder = model.encoder
    if change == "token_emb":
        encoder.token_emb.data[draw(st.integers(0, len(model.vocab) - 1))] += 0.25
    elif change == "pos_emb":
        encoder.pos_emb.data[draw(st.integers(0, model.config.max_tokens - 1))] -= 0.25
    elif change == "block_weight":
        block = encoder.blocks[draw(st.integers(0, encoder.depth - 1))]
        weight = getattr(block, draw(st.sampled_from(["attn_q_w", "attn_v_w", "ff1_w", "ff2_w"])))
        weight.data[(0,) * weight.data.ndim] *= 1.5
    elif change == "adam":
        optimizer = ad.Adam(model.trainable_params(), lr=0.01)
        sid = draw(st.integers(0, len(records) - 1))
        sub = sample_subgraph(graph, sid)
        result = model.forward(sub, [records[m] for m in sub.members])
        backward(compute_loss(result, records[sid].sector, records[sid].industry))
        optimizer.step()
        for p in model.trainable_params():
            p.grad = None
    elif change == "negative_zero":
        zeros = [(p.data, i) for name, p in encoder.named_params() if name.endswith("_b")
                 for i in np.flatnonzero((p.data == 0) & ~np.signbit(p.data))]
        if zeros:
            array, i = draw(st.sampled_from(zeros))
            array.reshape(-1)[i] = -0.0


@st.composite
def _small_universes(draw):
    """Records whose texts have mixed lengths and often repeat, and a graph."""
    n = draw(st.integers(2, 9))
    records = []
    for i in range(n):
        length, offset = draw(st.integers(0, 12)), draw(st.integers(0, 3))
        records.append(StockRecord(i, f"S{i:04d}",
                                   " ".join(WORDS[(offset + j) % 4] for j in range(length)),
                                   i % 3, i % 5))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
    return records, StockGraph(n, tuple(edges))


@settings(max_examples=60, deadline=None)
@given(universe=_small_universes(),
       gnn=st.sampled_from(["gcn", "gat", "none"]),
       pooling=st.sampled_from(["mean", "max", "cls"]),
       policy=st.sampled_from(["last", "all", "none"]),
       depth=st.integers(1, 2),
       data=st.data())
def test_no_grad_text_rows_come_from_a_memo_that_any_parameter_bit_resets(
        universe, gnn, pooling, policy, depth, data):
    records, graph = universe
    model = make_model(gnn=gnn, pooling=pooling, encoder_train=policy, depth=depth, dropout=0.0)
    encode, encoded = model.encoder.encode, []
    model.encoder.encode = lambda ids: encoded.append(len(ids)) or encode(ids)
    seen: set = set()  # token sequences encoded since the encoder's bits last changed
    n = len(records)
    changes = st.sampled_from(
        [None, "token_emb", "pos_emb", "block_weight", "adam", "negative_zero"])
    for _ in range(data.draw(st.integers(1, 4))):
        before = _encoder_bytes(model)
        _change_parameters(model, data.draw(changes), data.draw, records, graph)
        if _encoder_bytes(model) != before:
            seen = set()
        ids = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        keys = {_token_key(model, records[m])
                for sid in ids for m in model.text_members(sample_subgraph(graph, sid))}
        encoded.clear()
        emb = embed_universe(model, graph, records, ids)
        assert sum(encoded) == len(keys - seen)
        seen |= keys
        for sid, row in zip(ids, emb.vectors):
            assert np.array_equal(row, _recorded_row(model, graph, records, sid)), sid


def test_a_warm_no_grad_text_stage_maps_and_encodes_nothing_and_returns_the_recorded_rows(
        monkeypatch):
    records, _ = _mixed_length_universe()
    # with the CLS id, 20 and 31 words are cut to the same 16 ids, and 15 words fit
    records += [StockRecord(len(records) + i, f"L{i:03d}",
                            " ".join(WORDS[j % 4] for j in range(length)), 0, 0)
                for i, length in enumerate((20, 31, 15))]
    model = make_model(depth=2)
    keys = [_token_key(model, r) for r in records]
    assert keys[-3] == keys[-2] == keys[-1] and len(keys[-1]) == model.config.max_tokens
    assert len({len(key) for key in keys}) > 3
    misses = _count_memo_misses(model.vocab)
    recorded = model.text_stage(records).data
    with no_grad():
        first = model.text_stage(records).data
    assert misses == Counter({r.text for r in records})

    def fail(_tokens):
        raise AssertionError("a warm text stage encoded a text")

    monkeypatch.setattr(model, "_encode_rows", fail)
    with no_grad():
        warm = model.text_stage(records).data
    assert misses == Counter({r.text for r in records})  # no new miss
    assert np.array_equal(warm, first) and np.array_equal(warm, recorded)


@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_cached_rows_computes_the_misses_once_deduplicated_in_first_seen_order(shape):
    def row(key):
        return np.full(shape, float(key))

    cache = {1: row(1), 4: row(4)}
    calls = []

    def compute(missing):
        calls.append(list(missing))
        return np.stack([row(key) for key in missing])

    keys = [5, 1, 3, 5, 4, 3, 1, 7]
    rows = _cached_rows(cache, keys, compute)
    assert calls == [[5, 3, 7]]
    assert np.array_equal(rows, np.stack([row(key) for key in keys]))
    assert rows.shape == (len(keys), *shape) and rows.flags.c_contiguous
    assert sorted(cache) == [1, 3, 4, 5, 7]
    again = _cached_rows(cache, keys[::-1], compute)
    assert calls == [[5, 3, 7]]  # every key cached: no call
    assert np.array_equal(again, rows[::-1])


def _embed_in_threads(model, ds, parts):
    """Each part's embedding matrix rows, every part embedded by its own
    thread, all started together."""
    results: dict = {}
    barrier = threading.Barrier(len(parts))

    def embed(i):
        barrier.wait()
        results[i] = embed_universe(model, ds.graph, ds.records, parts[i]).vectors

    threads = [threading.Thread(target=embed, args=(i,)) for i in range(len(parts))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    return [results[i] for i in range(len(parts))]


def test_threads_embedding_disjoint_parts_get_the_recorded_rows_and_fill_one_memo():
    ds = generate_synthetic(GeneratorSpec(n=80, sectors=3, industries=5, vocab_size=60,
                                          tokens_per_doc=8, min_tokens_per_doc=2,
                                          avg_degree=6, seed=4))
    vocab = Vocab.build(r.text for r in ds.records)
    config = TrainConfig(hidden_dim=6, encoder_depth=2, gnn="gat", max_tokens=16)
    model = SetnModel(config, vocab, 3, 5, np.random.default_rng(2))
    parts = [list(range(i, 80, 4)) for i in range(4)]
    keys = {_token_key(model, ds.records[m])
            for sid in range(80) for m in sample_subgraph(ds.graph, sid).members}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for stale in (False, True):
            if stale:
                model.encoder.token_emb.data[3:] += 0.125  # every thread finds the memo stale
            else:
                with no_grad():
                    model.text_stage(ds.records[:1])  # a valid memo that every thread fills
            expected = np.stack([_recorded_row(model, ds.graph, ds.records, sid)
                                 for sid in range(80)])
            for part, rows in zip(parts, _embed_in_threads(model, ds, parts)):
                assert np.array_equal(rows, expected[part]), stale
            memo = model._text_memo[1]
            if stale:
                assert set(memo) <= keys  # the memo one of the threads started
            else:
                assert set(memo) == keys
            assert np.array_equal(np.stack(list(memo.values())),
                                  model._encode_rows(list(memo)).data)  # recorded: no memo
    finally:
        sys.setswitchinterval(switch)


def test_no_grad_text_rows_are_new_arrays_and_recorded_passes_leave_the_memo_alone():
    records, _ = _mixed_length_universe()
    model = make_model(depth=2)
    recorded = model.text_stage(records)
    assert recorded.requires_grad and model._text_memo is None
    with no_grad():
        first = model.text_stage(records)
        kept = first.data.copy()
        first.data += 1.0
        second = model.text_stage(records)  # served from the memo
        assert np.array_equal(second.data, kept)
        second.data[...] = 7.0
        assert np.array_equal(model.text_stage(records).data, kept)
    assert np.array_equal(kept, recorded.data)
    memo = model._text_memo
    rows = {key: row.tobytes() for key, row in memo[1].items()}
    again = model.text_stage(records)
    assert again.requires_grad and np.array_equal(again.data, kept)
    assert model._text_memo is memo
    assert {key: row.tobytes() for key, row in memo[1].items()} == rows
