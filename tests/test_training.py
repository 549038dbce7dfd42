import hashlib
import io
import math
import json
import re
import struct
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setn import autodiff as ad, training as training_module
from setn.data import GeneratorSpec, generate_synthetic
from setn.errors import CheckpointError, ContractError, DataError, SetnError, TrainingError
from setn.evaluation import embed_universe, map_at_k
from setn.graph import StockGraph, sample_subgraph, to_undirected
from setn.model import compute_loss
from setn.text import Vocab, tokenize
from setn.training import (TrainConfig, build_model, epoch_order, load_model,
                           prepare_graph, save_model, split_dataset, train)


# ---------------------------------------------------------------------------
# splitting


def test_split_reproduces_published_sizes():
    split = split_dataset(list(range(2437)), (0.6996, 0.0997, 0.2007), seed=1)
    assert (len(split.train), len(split.val), len(split.test)) == (1705, 243, 489)


def test_split_is_deterministic_per_seed():
    a = split_dataset(list(range(100)), seed=5)
    b = split_dataset(list(range(100)), seed=5)
    assert a.train == b.train and a.val == b.val and a.test == b.test
    c = split_dataset(list(range(100)), seed=6)
    assert a.train != c.train


def test_split_small_universe():
    split = split_dataset(list(range(10)), (0.7, 0.1, 0.2), seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)


def test_split_partitions_ids():
    ids = list(range(57))
    split = split_dataset(ids, seed=3)
    combined = sorted(split.train + split.val + split.test)
    assert combined == ids


def test_split_rejects_bad_input():
    with pytest.raises(DataError):
        split_dataset([], seed=0)
    with pytest.raises(DataError):
        split_dataset(list(range(10)), (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(DataError):
        split_dataset(list(range(3)), (0.98, 0.01, 0.01), seed=0)


def test_split_refuses_a_repeated_id_naming_the_first_that_occurs_again():
    ids = list(range(20))
    message = r"^stock id {} appears more than once in the ids to split$"
    with pytest.raises(DataError, match=message.format(0)):
        split_dataset(ids + ids[:5])
    with pytest.raises(DataError, match=message.format(4)):
        split_dataset([4, 9, 9, 4, *range(10, 30)], seed=3)
    with pytest.raises(DataError, match=r"^stock id must be an integer of at least 0, got 'a'$"):
        split_dataset([*ids, "a"])


@pytest.mark.parametrize("proportions, seed, field", [
    ((0.7, float("nan"), 0.2), 0, "proportions"),
    (np.array([0.7, 0.1, 0.2]), 0, "proportions"),
    ((0.7, 0.1, 0.2), -1, "seed"),
    ((0.7, 0.1, 0.2), 1.5, "seed"),
])
def test_split_checks_its_arguments_by_the_config_fields(proportions, seed, field):
    with pytest.raises(DataError, match=rf"^config field '{field}': "):
        split_dataset(list(range(10)), proportions, seed)


def test_config_takes_numpy_integers_and_stores_ints():
    config = TrainConfig(seed=np.int64(3), epochs=np.int32(2), hidden_dim=np.uint16(8))
    assert config == TrainConfig(seed=3, epochs=2, hidden_dim=8)
    assert {type(config.seed), type(config.epochs), type(config.hidden_dim)} == {int}
    assert json.loads(json.dumps(config.to_dict())) == TrainConfig(seed=3, epochs=2,
                                                                   hidden_dim=8).to_dict()


@pytest.mark.parametrize("counts, message", [
    # True and 1.5 once ended in a TypeError from numpy, and 0 built a model
    ((True, 5), "n_sectors must be an integer of at least 1, got True"),
    ((3, 1.5), "n_industries must be an integer of at least 1, got 1.5"),
    ((0, 5), "n_sectors must be an integer of at least 1, got 0"),
])
def test_build_model_refuses_a_class_count_that_is_not_a_positive_integer(counts, message):
    with pytest.raises(DataError) as exc:
        build_model(TrainConfig(hidden_dim=4, max_tokens=4), Vocab.build(["a b"]), *counts)
    assert str(exc.value) == message


def test_build_model_stores_numpy_class_counts_as_ints(tmp_path):
    config = TrainConfig(hidden_dim=4, encoder_depth=1, max_tokens=4)
    model = build_model(config, Vocab.build(["a b"]), np.int64(3), np.int32(5))
    assert (type(model.n_sectors), type(model.n_industries)) == (int, int)
    save_model(model, tmp_path / "m.setn", config)  # the header is JSON
    assert load_model(tmp_path / "m.setn")[0].n_industries == 5


def test_epoch_order_is_pure_function_of_seed_and_epoch():
    ids = list(range(20))
    assert epoch_order(3, 0, ids) == epoch_order(3, 0, ids)
    assert epoch_order(3, 1, ids) != epoch_order(3, 0, ids)
    assert epoch_order(4, 0, ids) != epoch_order(3, 0, ids)


# ---------------------------------------------------------------------------
# training runs (small synthetic universes)


def _small_setup(seed=0, epochs=3, gnn="gcn", encoder_train="last", n=40, depth=1,
                 pooling="mean", min_tokens=0):
    spec = GeneratorSpec(n=n, sectors=3, industries=5, vocab_size=80,
                         tokens_per_doc=8, min_tokens_per_doc=min_tokens, avg_degree=4,
                         graph_signal=0.8, text_signal=0.9, theme_count=2, seed=seed)
    ds = generate_synthetic(spec)
    cfg = TrainConfig(epochs=epochs, hidden_dim=8, encoder_depth=depth, seed=seed,
                      gnn=gnn, encoder_train=encoder_train, max_tokens=16, pooling=pooling)
    vocab = Vocab.build(r.text for r in ds.records)
    split = split_dataset([r.stock_id for r in ds.records], cfg.proportions, cfg.seed)
    model = build_model(cfg, vocab, n_sectors=3, n_industries=5)
    return ds, cfg, vocab, split, model


def _param_bytes(model):
    digest = hashlib.sha256()
    for name, p in model.named_params():
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def test_training_is_bit_deterministic():
    hashes = []
    for _ in range(2):
        ds, cfg, vocab, split, model = _small_setup(seed=7, epochs=2)
        train(model, ds.graph, ds.records, split, cfg)
        hashes.append(_param_bytes(model))
    assert hashes[0] == hashes[1]


def test_no_grad_in_another_thread_leaves_every_training_step_whole(tmp_path):
    """A thread that keeps opening ``no_grad`` contexts while the main thread
    trains does not switch the main thread's recording off: every step fills
    every trainable gradient, and the checkpoint is a one-thread run's, byte
    for byte."""
    def run(with_thread: bool) -> bytes:
        ds, cfg, _, split, model = _small_setup(seed=1, epochs=1)
        params = model.trainable_params()
        optimizer = ad.Adam(params, lr=cfg.learning_rate)
        stop, opened = threading.Event(), threading.Event()

        def keep_opening():
            while not stop.is_set():
                with ad.no_grad():
                    opened.set()
                    stop.wait(0.0005)

        thread = threading.Thread(target=keep_opening, daemon=True)
        if with_thread:
            thread.start()
            assert opened.wait(timeout=30)
        try:
            for target in split.train:
                sub = sample_subgraph(ds.graph, target)
                for p in params:
                    p.grad = None
                result = model.forward(sub, [ds.records[m] for m in sub.members])
                record = ds.records[target]
                ad.backward(compute_loss(result, record.sector, record.industry))
                assert all(p.grad is not None for p in params), target
                optimizer.step()
        finally:
            stop.set()
            if with_thread:
                thread.join(timeout=30)
        assert not thread.is_alive()
        path = tmp_path / f"{with_thread}.setn"
        save_model(model, path, cfg)
        return path.read_bytes()

    assert run(True) == run(False)


def test_separable_data_loss_drops_under_quarter_of_initial():
    spec = GeneratorSpec(n=120, sectors=3, industries=5, vocab_size=80,
                         tokens_per_doc=8, avg_degree=4, graph_signal=0.8,
                         text_signal=0.9, theme_count=2, seed=1)
    ds = generate_synthetic(spec)
    cfg = TrainConfig(epochs=20, hidden_dim=24, encoder_depth=1, seed=1, max_tokens=16)
    vocab = Vocab.build(r.text for r in ds.records)
    split = split_dataset([r.stock_id for r in ds.records], cfg.proportions, cfg.seed)
    model = build_model(cfg, vocab, n_sectors=3, n_industries=5)
    history = train(model, ds.graph, ds.records, split, cfg)
    assert history[-1]["mean_train_loss"] < 0.25 * history[0]["mean_train_loss"]
    # loss trends down early as well
    assert history[4]["mean_train_loss"] < history[0]["mean_train_loss"]


def test_loss_reads_only_the_target_row():
    ds, cfg, vocab, split, model = _small_setup(seed=2, epochs=1)
    train(model, ds.graph, ds.records, split, cfg)
    from setn.graph import sample_subgraph
    from setn.model import compute_loss
    from setn.autodiff import backward

    target = split.train[0]
    g = prepare_graph(ds.graph, cfg)
    sub = sample_subgraph(g, target)
    recs = [ds.records[m] for m in sub.members]
    result = model.forward(sub, recs)
    # the head logits are a pure function of the target's fused vector
    z = np.maximum(result.embedding.data, 0.0)
    assert np.allclose(result.logits_sector.data,
                       z @ model.head_sector.weight.data + model.head_sector.bias.data)
    # while gradients still reach the neighbor-dependent GNN weight
    if sub.size > 1:
        loss = compute_loss(result, recs[0].sector, recs[0].industry)
        backward(loss)
        assert model.gnn.weight.grad is not None
        assert np.any(model.gnn.weight.grad != 0.0)


# Parameter digests after seeded training, recorded with an encoder that
# recomputed every layer for every subgraph member; reusing frozen layers
# must not change a bit. GAT reads the text rows twice and the residual reads
# the target's vector a third time, so its digests also pin the order in which
# backward sums those gradients.
_TRAINED_DIGESTS = {
    ("gcn", "last"): "0233d59d90a2bf67e90687629698d6d0e48b0c74c52400e5752f329b2dcdefa9",
    ("gcn", "none"): "48bff8fceb56871693a97ba4ce1596e164f502d373d6bdd0486f5932d780e4e2",
    ("gcn", "all"): "70826c4534657cebac4f4cdab4dc72dfbcec8498b0fca1db6ebfcfe592da62d4",
    ("gat", "last"): "fff87f17f39206c8ba246c45fe944a7f1523a91862bb626189bcf1bbd4c1ad37",
    ("gat", "none"): "82d6879627871fe41635205dd3f6191baab9639917685d3af7ad7740421ea436",
    ("gat", "all"): "aff04f5814899aff7fe59fa16c37362c400910b0ced7acaa6a642a3d4af7b174",
}


def test_frozen_text_cache_training_is_exact():
    for (gnn, policy), digest in _TRAINED_DIGESTS.items():
        ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=2, gnn=gnn,
                                                    encoder_train=policy, depth=2)
        train(model, ds.graph, ds.records, split, cfg)
        assert _param_bytes(model) == digest, (gnn, policy)


# The same digests for cls and max pooling, and for texts of 3 to 8 tokens
# (min_tokens 3), whose batches group them by length; then a digest of the
# rows ``embed_universe`` gives every stock with the trained parameters.
_POOLING_DIGESTS = {
    ("cls", "gcn", "last", 0): (
        "d781840779e828384570c56d9da51cfe669a75ecb59142adf0f715bcbdd522a0",
        "07449da8483b3ce8ed7ef4e18d77be3cd6b91d0b887831e8ab6f6cd11c865aa4"),
    ("cls", "gat", "all", 0): (
        "bede88893c2c56d91814f84237745e7ec1a80318fe3ef6a5c44d766c5eb2d7d3",
        "d50aa4fa0473835277057bddf715752e546f05367d0e9f91ae07e03ba8c54d66"),
    ("max", "gcn", "last", 0): (
        "0ae90dbfd67859680d0aafd891a57f56f6a109736a78a1fb2299651799c46995",
        "e7e66ca9485428b7b962c40dd8fa41339b1d061defa66736c22693cc7b73c97c"),
    ("max", "gat", "all", 0): (
        "214b240016fe2b2c620beacb123964541e789061a30d39e034ef5f3934f2a18c",
        "32838ffacdab2318c62c1c53b88809bc853e861b2461fdcb526ad215792db678"),
    ("cls", "gat", "last", 3): (
        "adee198eef9a21cd9c84f595d0d5e79a72785c42471a513f0f8f18cca9ea070c",
        "5717cccd0833ac3f76b7f7e3186132d249799218b2d5ab53c2292fe33ab93ed9"),
    ("mean", "gcn", "all", 3): (
        "1dd4130555c740b2207f032cb282ec231724ba5b9a9b2d090f7cfd96802fa995",
        "8a9409ff134d5c5cb029a699836505c9c35eb8460d4a602341f9c1d8200a4251"),
    ("max", "gat", "last", 3): (
        "6d8a270ca89f0c0d6d344236d676a809c7875658d2fd2495d9e15680642406fa",
        "cbdfa51b19771e15723a18d8d6c88438fb260a38f20f93b3dfe621b05287d92b"),
}


@pytest.mark.parametrize("key", _POOLING_DIGESTS, ids=lambda key: "-".join(map(str, key)))
def test_pooling_and_mixed_length_training_keeps_its_digests(key):
    pooling, gnn, policy, min_tokens = key
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=2, gnn=gnn, encoder_train=policy,
                                                depth=2, pooling=pooling, min_tokens=min_tokens)
    train(model, ds.graph, ds.records, split, cfg)
    emb = embed_universe(model, ds.graph, ds.records, [r.stock_id for r in ds.records])
    rows = hashlib.sha256(emb.vectors.tobytes()).hexdigest()
    assert (_param_bytes(model), rows) == _POOLING_DIGESTS[key]


def _count_block0_calls(model):
    block = model.encoder.blocks[0]
    original = block.forward
    calls = []

    def counting(x):
        calls.append(x.data.shape[0])  # the sequences of the call
        return original(x)

    block.forward = counting
    return calls


def test_frozen_block_runs_once_per_distinct_text_during_training():
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=2, depth=2)
    calls = _count_block0_calls(model)
    train(model, ds.graph, ds.records, split, cfg)
    distinct = {tuple(tokenize(r.text, vocab, cfg.max_tokens)) for r in ds.records}
    assert 0 < len(calls) <= len(distinct)


def test_frozen_block_runs_once_per_call_on_each_text_the_steps_or_validation_encode():
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=3, depth=2, gnn="none")
    rows = _count_block0_calls(model)
    train(model, ds.graph, ds.records, split, cfg)
    g = prepare_graph(ds.graph, cfg)

    def texts(ids):
        return {tuple(tokenize(ds.records[m].text, vocab, cfg.max_tokens))
                for sid in ids for m in model.text_members(sample_subgraph(g, sid))}

    assert texts(split.val) - texts(split.train)  # texts only validation encodes
    assert sum(rows) == len(texts(split.train) | texts(split.val))


def test_trainable_embeddings_run_block0_once_per_token_length_per_step():
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=2, encoder_train="all", depth=2)
    calls = _count_block0_calls(model)
    train(model, ds.graph, ds.records, split, cfg)
    g = prepare_graph(ds.graph, cfg)

    def lengths(members):
        return {len(tokenize(ds.records[m].text, vocab, cfg.max_tokens)) for m in members}

    # a step encodes its subgraph in one batch per token length, and
    # validation encodes each distinct member once, one batch per token length
    steps = sum(len(lengths(sample_subgraph(g, sid).members)) for sid in split.train)
    val_batches = len(lengths({m for sid in split.val for m in sample_subgraph(g, sid).members}))
    assert len(calls) == cfg.epochs * (steps + val_batches)


@pytest.mark.parametrize("gnn", ["gcn", "none"])
def test_after_training_a_no_grad_embed_of_the_training_texts_runs_no_frozen_block(gnn):
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=2, depth=2, gnn=gnn)
    train(model, ds.graph, ds.records, split, cfg)
    calls = _count_block0_calls(model)
    g = prepare_graph(ds.graph, cfg)
    emb = embed_universe(model, g, ds.records, split.train)
    assert calls == []  # block 0 is frozen: its outputs come from the prefix level
    model.encoder._cache.clear()
    assert np.array_equal(embed_universe(model, g, ds.records, split.train).vectors, emb.vectors)
    assert calls


def _count_memo_misses(vocab):
    """Empty the vocabulary's token memo; count each text it then maps."""
    misses = Counter()

    class CountingMemo(dict):
        def __setitem__(self, text, ids):
            misses[text] += 1
            super().__setitem__(text, ids)

    vocab._memo = CountingMemo()
    return misses


def test_train_tokenizes_each_text_and_samples_each_target_once_per_call(monkeypatch):
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=3, depth=2)
    targets = Counter()

    def counting_sample(graph, target, *args, **kwargs):
        targets[target] += 1
        return sample_subgraph(graph, target, *args, **kwargs)

    misses = _count_memo_misses(vocab)
    monkeypatch.setattr(training_module, "sample_subgraph", counting_sample)
    train(model, ds.graph, ds.records, split, cfg)
    # every epoch and the validation passes read the one memo
    assert misses and set(misses.values()) == {1}
    assert targets == Counter(split.train)


def test_an_embed_pass_tokenizes_each_text_once():
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=1, depth=2)
    misses = _count_memo_misses(vocab)
    embed_universe(model, prepare_graph(ds.graph, cfg), ds.records, [r.stock_id for r in ds.records])
    assert misses == Counter({r.text for r in ds.records})


@pytest.mark.parametrize("policy", ["last", "none"])
def test_frozen_encoder_parts_are_bit_identical_after_training(policy):
    ds, cfg, vocab, split, model = _small_setup(seed=3, epochs=2, encoder_train=policy)
    frozen = {name: p.data.copy() for name, p in model.named_params() if not p.requires_grad}
    assert frozen  # both policies freeze something
    train(model, ds.graph, ds.records, split, cfg)
    for name, p in model.named_params():
        if name in frozen:
            assert np.array_equal(p.data, frozen[name]), name


def test_validation_does_not_mutate_parameters():
    ds, cfg, vocab, split, model = _small_setup(seed=4, epochs=1)
    train(model, ds.graph, ds.records, split, cfg)
    g = prepare_graph(ds.graph, cfg)
    before = _param_bytes(model)
    emb = embed_universe(model, g, ds.records, split.val)
    map_at_k(emb, {r.stock_id: r.sector for r in ds.records}, ks=(5,))
    assert _param_bytes(model) == before


def test_undirected_config_symmetrizes_graph():
    ds, cfg, vocab, split, model = _small_setup(seed=5, epochs=1)
    cfg_und = TrainConfig(**{**cfg.to_dict(), "directed": False,
                             "proportions": tuple(cfg.proportions)})
    g = prepare_graph(ds.graph, cfg_und)
    assert {(d, s) for s, d in g.edges} == set(g.edges)
    assert set(g.edges) == set(to_undirected(ds.graph).edges)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_loss_aborts_with_diagnostics():
    ds, cfg, vocab, split, model = _small_setup(seed=6, epochs=1)
    with ad.writing(model.head_sector.weight):
        model.head_sector.weight.data[...] = 1e308
    with pytest.raises(TrainingError) as exc:
        train(model, ds.graph, ds.records, split, cfg)
    message = str(exc.value)
    assert "epoch 0" in message and "stock" in message


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_an_overflow_in_the_frozen_layers_aborts_with_diagnostics():
    ds, cfg, vocab, split, model = _small_setup(seed=6, epochs=1, depth=2)
    weight = model.encoder.blocks[0].ff1_w
    assert not weight.requires_grad
    with ad.writing(weight):
        weight.data[...] = 1e308
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0, stock"):
        train(model, ds.graph, ds.records, split, cfg)


@pytest.mark.parametrize("change", [{"dropout": 0.5}, {"epochs": 2}])
def test_train_rejects_a_config_other_than_the_models_before_any_step(change):
    ds, cfg, vocab, split, model = _small_setup(seed=5, epochs=1)
    before = _param_bytes(model)
    with pytest.raises(ContractError, match="model.config"):
        train(model, ds.graph, ds.records, split, replace(cfg, **change))
    assert _param_bytes(model) == before


@pytest.mark.parametrize("part, change, message", [
    ("train", lambda ids, _: [], "split part 'train' is empty"),
    ("val", lambda ids, _: [], "split part 'val' is empty"),
    ("val", lambda ids, _: ids + [999],
     "split part 'val': stock id must be an integer in [0, 39], got 999"),
    ("test", lambda ids, _: ids + [1.0], "split part 'test': stock id must be an integer"),
    ("train", lambda ids, _: ids + ids[:1], "split part 'train': stock id {} appears twice"),
    ("val", lambda ids, split: ids + split.train[:1],
     "split part 'val': stock id {} is also in part 'train'"),
    ("test", lambda ids, split: ids + split.val[:1],
     "split part 'test': stock id {} is also in part 'val'"),
])
def test_train_checks_its_split_before_any_step_and_names_the_part(part, change, message):
    ds, cfg, vocab, split, model = _small_setup(seed=5, epochs=1)
    before = _param_bytes(model)
    ids = change(list(getattr(split, part)), split)
    bad = replace(split, **{part: ids})
    stream = io.StringIO()
    with pytest.raises(DataError, match=re.escape(message.format(ids[-1] if ids else None))):
        train(model, ds.graph, ds.records, bad, cfg, log_stream=stream)
    assert _param_bytes(model) == before and stream.getvalue() == ""


def test_train_accepts_every_split_that_split_dataset_returns():
    for n in (10, 40):
        ds, cfg, vocab, _, model = _small_setup(seed=5, epochs=1, n=n)
        split = split_dataset([r.stock_id for r in ds.records], (0.4, 0.3, 0.3), cfg.seed)
        stream = io.StringIO()
        train(model, ds.graph, ds.records, split, cfg, log_stream=stream)
        assert math.isfinite(json.loads(stream.getvalue())["mean_train_loss"])


@pytest.mark.parametrize("gnn", ["gcn", "gat", "none"])
def test_a_raw_in_place_write_to_any_parameter_raises(tmp_path, gnn):
    ds, cfg, vocab, split, model = _small_setup(seed=3, epochs=1, gnn=gnn, depth=2)

    def assert_read_only(model):
        for name, p in model.named_params():
            with pytest.raises(ValueError, match="read-only"):
                p.data += 0.0
            assert not p.data.flags.writeable, name

    assert_read_only(model)
    ad.Adam(model.trainable_params())
    assert_read_only(model)
    train(model, ds.graph, ds.records, split, cfg)
    assert_read_only(model)
    save_model(model, tmp_path / "model.setn", cfg)
    loaded, _ = load_model(tmp_path / "model.setn")
    assert_read_only(loaded)
    assert all(p.version == 1 for _, p in loaded.named_params())  # one write each


def _sparse_setup(gnn="gcn"):
    """``_small_setup``'s universe on a graph of ten edges, the training and
    validation subgraphs, and the nodes outside every one of them."""
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=2, depth=2, gnn=gnn)
    graph = StockGraph(40, tuple((i, i + 1) for i in range(0, 40, 4)))
    subs = [sample_subgraph(graph, sid, cfg.neighbor_direction) for sid in split.train + split.val]
    outside = sorted(set(range(40)) - {m for sub in subs for m in sub.members})
    assert len(outside) >= 2
    return ds, cfg, vocab, split, model, graph, subs, outside


@pytest.mark.parametrize("gnn", ["gcn", "none"])
def test_train_keeps_the_prefix_of_each_text_it_encodes_and_an_embed_after_it_keeps_none(gnn):
    ds, cfg, vocab, split, model, graph, subs, outside = _sparse_setup(gnn)
    train(model, graph, ds.records, split, cfg)

    def keys(members):
        return {tuple(tokenize(ds.records[m].text, vocab, cfg.max_tokens)) for m in members}

    read = keys(m for sub in subs for m in model.text_members(sub))
    depth = model.encoder.frozen_depth()
    assert model.encoder._cache[depth][1].keys() == read
    assert not keys(outside) & read  # texts that neither the steps nor validation encode
    embed_universe(model, graph, ds.records, outside)
    assert model.encoder._cache[depth][1].keys() == read


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_after_train_raises_an_embed_keeps_no_prefix_state():
    ds, cfg, vocab, split, model, graph, subs, outside = _sparse_setup("none")
    weight = model.encoder.blocks[0].ff1_w
    finite = weight.data.copy()
    with ad.writing(weight):
        weight.data[...] = 1e308
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0, stock"):
        train(model, graph, ds.records, split, cfg)
    with ad.writing(weight):
        weight.data[...] = finite
    embed_universe(model, graph, ds.records, outside)  # without a GNN, only their own texts
    assert not model.encoder._cache[model.encoder.frozen_depth()][1]


def test_train_refuses_a_misplaced_record_outside_its_subgraphs_before_its_first_step():
    # such a record is read by no step and no validation pass, only by a later embed
    ds, cfg, vocab, split, model, graph, subs, outside = _sparse_setup()
    lo, hi = outside[:2]
    swapped = list(ds.records)
    swapped[lo], swapped[hi] = swapped[hi], swapped[lo]
    before = _param_bytes(model)
    with pytest.raises(DataError, match=rf"^record of stock {hi} at position {lo}, "
                                        rf"where stock {lo}'s belongs$"):
        train(model, graph, swapped, split, cfg)
    assert _param_bytes(model) == before


def test_records_out_of_stock_id_order_are_refused_naming_the_stock():
    # records[m] is read as stock m's record; reversed, stock 7 read stock 32's text
    ds, cfg, vocab, split, model = _small_setup(seed=5, epochs=1)
    g = prepare_graph(ds.graph, cfg)
    with pytest.raises(DataError) as exc:
        embed_universe(model, g, ds.records[::-1], [7])
    stock, position = map(int, re.fullmatch(
        r"record of stock (\d+) at position (\d+), where stock \2's belongs",
        str(exc.value)).groups())
    assert stock == 39 - position
    before = _param_bytes(model)
    for call in (lambda records: embed_universe(model, g, records, [7]),
                 lambda records: train(model, ds.graph, records, split, cfg)):
        with pytest.raises(DataError, match=r"^5 records for a graph of 40 nodes$"):
            call(ds.records[:5])
    with pytest.raises(DataError, match=r"^record of stock \d+ at position \d+, where"):
        train(model, ds.graph, ds.records[::-1], split, cfg)
    assert _param_bytes(model) == before


def test_train_refuses_a_misplaced_record_before_its_first_step():
    # the forward pass once found the swap only at the step that first read
    # one of the two records, after earlier steps had changed the parameters
    ds, cfg, vocab, split, model = _small_setup(seed=5, epochs=1)
    g = prepare_graph(ds.graph, cfg)
    first_read = {}
    for step, target in enumerate(epoch_order(cfg.seed, 0, split.train)):
        for m in sample_subgraph(g, target, cfg.neighbor_direction).members:
            first_read.setdefault(m, step)
    lo, hi = sorted(sorted(first_read, key=first_read.get)[-2:])
    assert min(first_read[lo], first_read[hi]) > 1
    swapped = list(ds.records)
    swapped[lo], swapped[hi] = swapped[hi], swapped[lo]
    before = _param_bytes(model)
    with pytest.raises(DataError, match=rf"^record of stock {hi} at position {lo}, "
                                        rf"where stock {lo}'s belongs$"):
        train(model, ds.graph, swapped, split, cfg)
    assert _param_bytes(model) == before


def test_embed_universe_checks_only_the_records_its_subgraphs_read():
    # embedding a universe in slices must not scan all n records per slice
    ds, cfg, vocab, split, model = _small_setup(seed=5, epochs=1)
    g = prepare_graph(ds.graph, cfg)
    far = [m for m in range(40) if m not in sample_subgraph(g, 7).members][:2]
    swapped = list(ds.records)
    swapped[far[0]], swapped[far[1]] = swapped[far[1]], swapped[far[0]]
    assert np.array_equal(embed_universe(model, g, swapped, [7]).vectors,
                          embed_universe(model, g, ds.records, [7]).vectors)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_gradient_aborts_before_the_update(monkeypatch):
    ds, cfg, vocab, split, model = _small_setup(seed=6, epochs=1)
    before = _param_bytes(model)
    original = ad.cross_entropy
    calls = []

    def overflowing_once(logits, targets):
        out = original(logits, targets)
        if not calls:
            inner = out._backward_fn
            out._backward_fn = lambda g: inner(g * np.inf)
        calls.append(1)
        return out

    monkeypatch.setattr(ad, "cross_entropy", overflowing_once)
    with pytest.raises(TrainingError) as exc:
        train(model, ds.graph, ds.records, split, cfg)
    first = epoch_order(cfg.seed, 0, split.train)[0]
    assert re.search(rf"non-finite gradient at epoch 0, stock {first}$", str(exc.value))
    assert _param_bytes(model) == before
    assert all(p.grad is None for p in model.trainable_params())


def _readme_table_keys(heading):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    return [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]


def test_epoch_log_entry_has_every_documented_key():
    ds, cfg, vocab, split, model = _small_setup(seed=8, epochs=2)
    stream = io.StringIO()
    history = train(model, ds.graph, ds.records, split, cfg, log_stream=stream)
    keys = _readme_table_keys("Training log")
    lines = stream.getvalue().splitlines()
    assert len(lines) == len(history) == cfg.epochs
    for epoch, (entry, line) in enumerate(zip(history, lines)):
        assert json.loads(line) == entry
        assert sorted(entry) == sorted(keys)
        assert entry["epoch"] == epoch
        assert entry["seconds"] > 0
        assert entry["targets_per_s"] == pytest.approx(len(split.train) / entry["seconds"])


def test_log_stream_leaves_checkpoints_byte_identical(tmp_path):
    paths = []
    for stream in (None, io.StringIO()):
        ds, cfg, vocab, split, model = _small_setup(seed=9, epochs=2)
        train(model, ds.graph, ds.records, split, cfg, log_stream=stream)
        paths.append(tmp_path / f"{len(paths)}.setn")
        save_model(model, paths[-1], cfg)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_rejects_unknown_keys():
    with pytest.raises(DataError):
        TrainConfig.from_dict({"epochs": 5, "warp_factor": 9})


@pytest.mark.parametrize("field, value", [
    ("epochs", "x"), ("epochs", 0), ("epochs", 2.0), ("epochs", True),
    ("epochs", sys.maxsize + 1), ("epochs", 12345678901234567890),
    ("hidden_dim", 0), ("encoder_depth", -1), ("seed", -1), ("max_tokens", 0),
    ("learning_rate", 0.0), ("learning_rate", float("nan")), ("learning_rate", "fast"),
    ("dropout", 1.0), ("dropout", -0.1), ("learning_rate", float("inf")), ("seed", 1.5),
    ("max_tokens", True), ("residual", 1), ("directed", "yes"),
    ("pooling", "avg"), ("gnn", "gin"), ("encoder_train", "most"),
    ("neighbor_direction", "sideways"), ("gnn", ["gcn"]),
    ("proportions", 5), ("proportions", [0.5, 0.5]), ("proportions", [0.5, 0.5, 0.5]),
    ("proportions", [0.7, 0.3, 0.0]),
    # integers past the float range, alone and in the proportions' sum
    pytest.param("learning_rate", 10**400, id="learning_rate-1e400"),
    pytest.param("dropout", 10**400, id="dropout-1e400"),
    pytest.param("proportions", [10**400, 1, 1], id="proportions-1e400"),
    pytest.param("proportions", [10**308, 10**308, 1], id="proportions-sum-2e308"),
])
def test_config_rejects_bad_values_naming_the_field(field, value):
    with pytest.raises(DataError, match=f"config field '{field}'"):
        TrainConfig.from_dict({field: value})


def test_config_takes_as_many_epochs_as_a_history_list_can_hold():
    assert TrainConfig.from_dict({"epochs": sys.maxsize}).epochs == sys.maxsize


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
# numbers of every kind, with integers past the float range at both ends
_NUMBER = (st.integers() | st.floats() | st.integers(min_value=2**1024)
           | st.integers(max_value=-2**1024))


def _field_values(default):
    """Mostly the default or a number, sometimes any JSON, so every check runs."""
    if isinstance(default, list):
        return st.lists(st.sampled_from(default) | _NUMBER, min_size=3, max_size=3) | _ANY_JSON
    return st.just(default) | _NUMBER | _ANY_JSON


_CONFIG_JSON = _ANY_JSON | st.fixed_dictionaries({}, optional={
    **{name: _field_values(default) for name, default in TrainConfig().to_dict().items()},
    "warp_factor": _ANY_JSON,
})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(obj=_CONFIG_JSON)
def test_config_from_any_json_is_a_config_or_a_setn_error(obj):
    try:
        config = TrainConfig.from_dict(obj)
    except SetnError:
        return
    assert TrainConfig.from_dict(config.to_dict()) == config


def test_config_rejects_last_block_policy_without_blocks():
    with pytest.raises(DataError, match="encoder_train"):
        TrainConfig(encoder_depth=0, encoder_train="last")
    TrainConfig(encoder_depth=0, encoder_train="all")


def test_config_from_dict_rejects_non_objects():
    for obj in (5, [1, 2], "epochs", None):
        with pytest.raises(DataError, match="JSON object"):
            TrainConfig.from_dict(obj)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_is_bit_identical(tmp_path):
    ds, cfg, vocab, split, model = _small_setup(seed=8, epochs=1)
    train(model, ds.graph, ds.records, split, cfg)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    loaded, loaded_cfg = load_model(path)
    assert loaded_cfg == cfg
    for (name_a, a), (name_b, b) in zip(model.named_params(), loaded.named_params()):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data), name_a
    # embeddings from the reloaded model are bit-identical
    g = prepare_graph(ds.graph, cfg)
    from setn.graph import sample_subgraph
    target = split.test[0]
    sub = sample_subgraph(g, target)
    recs = [ds.records[m] for m in sub.members]
    assert np.array_equal(model.embed_stock(sub, recs), loaded.embed_stock(sub, recs))


def test_checkpoint_with_retired_frozen_text_cache_key_loads(tmp_path):
    ds, cfg, vocab, split, model = _small_setup(seed=14, epochs=1)
    train(model, ds.graph, ds.records, split, cfg)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + header_len])
    for value in (False, True):
        # the header a v1 checkpoint carried while the key existed
        header["config"]["frozen_text_cache"] = value
        payload = json.dumps(header, sort_keys=True).encode("utf-8")
        body = blob[:8] + struct.pack("<Q", len(payload)) + payload + blob[16 + header_len:-8]
        old = tmp_path / f"old-{value}.setn"
        old.write_bytes(body + hashlib.sha256(body).digest()[:8])
        loaded, loaded_cfg = load_model(old)
        assert loaded_cfg == cfg
        assert _param_bytes(loaded) == _param_bytes(model)
        resaved = tmp_path / "resaved.setn"
        save_model(loaded, resaved, loaded_cfg)
        assert resaved.read_bytes() == blob
    with pytest.raises(DataError, match="unknown config keys"):
        TrainConfig.from_dict({"frozen_text_cache": False})


def _checkpoint_parts(path):
    """A checkpoint's 8-byte prefix, header JSON and parameter blocks."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return blob[:8], json.loads(blob[16:16 + header_len]), blob[16 + header_len:-8]


def _write_checkpoint(path, prefix, payload, blocks, header_len=None):
    """Assemble a checkpoint with a valid checksum; ``payload`` is the header
    as a dict (serialized as ``save_model`` does) or as raw bytes."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, sort_keys=True).encode("utf-8")
    length = len(payload) if header_len is None else header_len
    body = prefix + struct.pack("<Q", length) + payload + blocks
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])


_ADAM_DEFAULTS = {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8}


def test_checkpoint_with_retired_default_adam_keys_loads(tmp_path):
    ds, cfg, vocab, split, model = _small_setup(seed=15, epochs=1)
    train(model, ds.graph, ds.records, split, cfg)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    prefix, header, blocks = _checkpoint_parts(path)
    # the config a checkpoint carried while Adam's constants were settings
    header["config"].update(_ADAM_DEFAULTS)
    old = tmp_path / "old.setn"
    _write_checkpoint(old, prefix, header, blocks)
    loaded, loaded_cfg = load_model(old)
    assert loaded_cfg == cfg
    assert _param_bytes(loaded) == _param_bytes(model)
    resaved = tmp_path / "resaved.setn"
    save_model(loaded, resaved, loaded_cfg)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("key, value", [
    ("adam_beta1", 0.8), ("adam_beta2", 0.99), ("adam_eps", 1e-6), ("adam_eps", "tiny"),
])
def test_checkpoint_with_a_non_default_adam_key_is_rejected(tmp_path, key, value):
    ds, cfg, vocab, split, model = _small_setup(seed=16, epochs=1)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    prefix, header, blocks = _checkpoint_parts(path)
    header["config"].update(_ADAM_DEFAULTS, **{key: value})
    _write_checkpoint(path, prefix, header, blocks)
    with pytest.raises(CheckpointError, match=f"{key}"):
        load_model(path)


def test_config_rejects_retired_adam_keys_as_unknown():
    for key, value in _ADAM_DEFAULTS.items():
        with pytest.raises(DataError, match=f"unknown config keys: \\['{key}'\\]"):
            TrainConfig.from_dict({key: value})


def _omit_last_parameter(header, blocks):
    entry = header["params"].pop()
    return header, blocks[:-8 * int(np.prod(entry["shape"]))]


def _non_finite_first_block(header, blocks):
    return header, struct.pack("<d", float("nan")) + blocks[8:]


@pytest.mark.parametrize("edit, expected", [
    (lambda h, b: (b"{not json", b), "invalid header"),
    (lambda h, b: (b'{"config": "caf\xe9"}', b), "invalid header"),
    (lambda h, b: (b"[1, 2]", b), "invalid header"),
    (lambda h, b: ({k: v for k, v in h.items() if k != "model"}, b), "invalid header"),
    (lambda h, b: (dict(h, config=5), b), "invalid header"),
    (lambda h, b: (dict(h, config=dict(h["config"], epochs=0)), b),
     "invalid header: DataError: config field 'epochs'"),
    (lambda h, b: (dict(h, params=[{"name": e["name"]} for e in h["params"]]), b),
     "invalid header"),
    (lambda h, b: (dict(h, model={"n_sectors": "3", "n_industries": 5}), b), "class counts"),
    (lambda h, b: (h, b, 10 ** 9), "runs past the end"),
    (_omit_last_parameter, "missing from the checkpoint: ['head_industry.bias']"),
    (_non_finite_first_block, "non-finite"),
    (lambda h, b: (b"[" * 100_000, b), "checkpoint header nested too deeply"),
    # json.loads would keep the last "vocab", as every other JSON input refuses
    (lambda h, b: (json.dumps(h, sort_keys=True)[:-1].encode() + b', "vocab": ["z"]}', b),
     "checkpoint header repeats the key 'vocab'"),
    (lambda h, b: (dict(h, vocab=h["vocab"][:-1] + ["a b"]), b),
     "invalid header: DataError: vocabulary token 'a b'"),
], ids=["non-json", "non-utf8", "not-an-object", "no-model", "config-5", "config-out-of-range",
        "no-shape", "bad-class-count", "header-past-body", "missing-param", "non-finite-param",
        "nested-too-deeply", "repeated-key", "vocab-token-with-a-space"])
def test_malformed_checkpoint_is_a_checkpoint_error_naming_the_file(tmp_path, edit, expected):
    ds, cfg, vocab, split, model = _small_setup(seed=17, epochs=1)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    prefix, header, blocks = _checkpoint_parts(path)
    _write_checkpoint(path, prefix, *edit(header, blocks))
    with pytest.raises(CheckpointError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert str(exc.value).count(str(path)) == 1
    assert expected in str(exc.value)


@pytest.mark.parametrize("section, key, value, in_manifest", [
    ("model", "n_sectors", 10 ** 13, False), ("model", "n_sectors", 10 ** 13, True),
    ("model", "n_sectors", 2 * 10 ** 6, False), ("model", "n_sectors", 2 * 10 ** 6, True),
    ("config", "hidden_dim", 1500, False), ("config", "encoder_depth", 10 ** 4, False),
    ("config", "max_tokens", 2 * 10 ** 6, False),
], ids=["582-TiB-header", "582-TiB-header-and-manifest", "128-MB-header",
        "128-MB-header-and-manifest", "hidden-dim", "encoder-depth", "max-tokens"])
def test_oversized_checkpoint_claim_is_rejected_before_allocating(tmp_path, section, key, value,
                                                                 in_manifest):
    """A header whose sizes claim far more parameters than the file holds is a
    CheckpointError naming the file, and nothing of that size is allocated."""
    ds, cfg, vocab, split, model = _small_setup(seed=18, epochs=1)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    prefix, header, blocks = _checkpoint_parts(path)
    header[section][key] = value
    if in_manifest:
        for entry in header["params"]:
            if entry["name"].startswith("head_sector."):
                entry["shape"][-1] = value
    _write_checkpoint(path, prefix, header, blocks)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as exc:
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith(f"{path}: ")
    assert peak < 10 * 2 ** 20


def test_save_model_rejects_a_config_other_than_the_models(tmp_path):
    ds, cfg, vocab, split, model = _small_setup(seed=19, epochs=1)
    path = tmp_path / "model.setn"
    with pytest.raises(ContractError, match="model.config"):
        save_model(model, path, replace(cfg, pooling="max"))
    assert not path.exists()
    save_model(model, path, replace(cfg))  # an equal config describes the same model
    assert load_model(path)[0].config == model.config


def test_checkpoint_truncation_detected(tmp_path):
    ds, cfg, vocab, split, model = _small_setup(seed=9, epochs=1)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    blob = path.read_bytes()
    path.write_bytes(blob[:-20])
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_corruption_detected(tmp_path):
    ds, cfg, vocab, split, model = _small_setup(seed=10, epochs=1)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as exc:
        load_model(path)
    assert "checksum" in str(exc.value)


def test_checkpoint_gnn_kind_mismatch(tmp_path):
    ds, cfg, vocab, split, model = _small_setup(seed=11, epochs=1, gnn="gcn")
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    with pytest.raises(CheckpointError) as exc:
        load_model(path, expected_gnn="gat")
    assert "gcn" in str(exc.value) and "gat" in str(exc.value)


def test_checkpoint_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "nope.setn"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_version_mismatch(tmp_path):
    import hashlib as _hashlib
    import struct

    ds, cfg, vocab, split, model = _small_setup(seed=13, epochs=1)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    body = bytearray(path.read_bytes()[:-8])
    body[4:8] = struct.pack("<I", 99)  # future format version
    path.write_bytes(bytes(body) + _hashlib.sha256(bytes(body)).digest()[:8])
    with pytest.raises(CheckpointError) as exc:
        load_model(path)
    assert "version" in str(exc.value)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The bytes of a valid GAT checkpoint of 2-wide vectors."""
    config = TrainConfig(hidden_dim=2, encoder_depth=1, max_tokens=2, gnn="gat", seed=3)
    path = tmp_path_factory.mktemp("ckpt") / "model.setn"
    save_model(build_model(config, Vocab.build(["a b", "c"]), 2, 3), path, config)
    return path.read_bytes()


def _checkpoint_headers(header):
    """The header with any of its values replaced by any JSON, or any JSON."""
    values = lambda valid: st.just(valid) | _NUMBER | _ANY_JSON  # noqa: E731
    manifest = header["params"]
    shapes = st.lists(st.integers(-1, 9) | _NUMBER, max_size=3) | _ANY_JSON
    return _ANY_JSON | st.fixed_dictionaries({
        "config": st.builds(lambda extra: {**header["config"], **extra}, st.dictionaries(
            st.sampled_from([*header["config"], "adam_eps", "frozen_text_cache", "warp"]),
            _NUMBER | _ANY_JSON, max_size=2)) | _ANY_JSON,
        "model": st.fixed_dictionaries({key: values(header["model"][key])
                                        for key in header["model"]}) | _ANY_JSON,
        "vocab": st.just(header["vocab"]) | st.lists(st.text(max_size=3), max_size=5) | _ANY_JSON,
        "params": st.just(manifest) | st.permutations(manifest)
        | st.builds(lambda i, shape: [{**e, "shape": shape} if j == i else e
                                      for j, e in enumerate(manifest)],
                    st.integers(0, len(manifest) - 1), shapes)
        | st.lists(st.sampled_from(manifest) | _ANY_JSON, max_size=len(manifest) + 1),
    })


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_checkpoint_with_any_bytes_loads_or_raises_only_setn_errors(tmp_path_factory,
                                                                     small_checkpoint, data):
    """Flipped, cut or appended bytes, with the checksum kept or recomputed,
    and any header JSON under a recomputed checksum, so that validation runs
    past the checksum: ``load_model`` returns a model or raises a SetnError."""
    blob = small_checkpoint
    body = blob[:-8]
    kind = data.draw(st.sampled_from(["flip", "cut", "append", "header"]))
    if kind == "header":
        (header_len,) = struct.unpack("<Q", body[8:16])
        header = json.loads(body[16:16 + header_len])
        payload = json.dumps(data.draw(_checkpoint_headers(header))).encode("utf-8")
        body = body[:8] + struct.pack("<Q", len(payload)) + payload + body[16 + header_len:]
        content = body + hashlib.sha256(body).digest()[:8]
    else:
        rechecksum = data.draw(st.booleans())
        target = bytearray(body if rechecksum else blob)
        if kind == "flip":
            for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(target) - 1),
                                                         st.integers(1, 255)), min_size=1, max_size=4)):
                target[at] ^= mask
        elif kind == "cut":
            del target[data.draw(st.integers(0, len(target) - 1)):]
        else:
            target += data.draw(st.binary(min_size=1, max_size=16))
        content = bytes(target)
        if rechecksum:
            content += hashlib.sha256(content).digest()[:8]
    path = tmp_path_factory.mktemp("ckpt") / "model.setn"
    path.write_bytes(content)
    try:
        model, config = load_model(path)
    except SetnError:
        return
    assert model.config == config
    assert all(np.isfinite(p.data).all() for _, p in model.named_params())


# ---------------------------------------------------------------------------
# defaults


def test_train_config_defaults_match_reference_recipe():
    cfg = TrainConfig()
    assert cfg.epochs == 20
    assert cfg.learning_rate == 0.001
    assert cfg.dropout == 0.2
    assert cfg.pooling == "mean"
    assert cfg.max_tokens == 512
    assert cfg.encoder_train == "last"
    assert cfg.directed is True
    assert cfg.proportions == (0.7, 0.1, 0.2)


def test_train_config_is_frozen_and_kept_by_the_model():
    cfg = TrainConfig(hidden_dim=8, max_tokens=16)
    with pytest.raises(FrozenInstanceError):
        cfg.pooling = "max"
    assert replace(cfg, pooling="max").pooling == "max" and cfg.pooling == "mean"
    assert TrainConfig(proportions=[0.7, 0.1, 0.2]).proportions == (0.7, 0.1, 0.2)
    assert build_model(cfg, Vocab.build(["a b"]), 3, 5).config is cfg


def test_readme_configuration_table_lists_every_config_field():
    keys = _readme_table_keys("Configuration")
    assert sorted(keys) == sorted(TrainConfig.__dataclass_fields__)


def test_readme_library_surface_import_line_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library surface", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    start = block.index("from setn import")
    exec(block[start:block.index(")", start) + 1], {})
