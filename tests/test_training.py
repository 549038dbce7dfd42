import hashlib
import io
import json
import re
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from setn import autodiff as ad
from setn.data import GeneratorSpec, generate_synthetic
from setn.errors import CheckpointError, ContractError, DataError, TrainingError
from setn.evaluation import embed_universe, map_at_k
from setn.graph import sample_subgraph, to_undirected
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


def test_epoch_order_is_pure_function_of_seed_and_epoch():
    ids = list(range(20))
    assert epoch_order(3, 0, ids) == epoch_order(3, 0, ids)
    assert epoch_order(3, 1, ids) != epoch_order(3, 0, ids)
    assert epoch_order(4, 0, ids) != epoch_order(3, 0, ids)


# ---------------------------------------------------------------------------
# training runs (small synthetic universes)


def _small_setup(seed=0, epochs=3, gnn="gcn", encoder_train="last", n=40, depth=1):
    spec = GeneratorSpec(n=n, sectors=3, industries=5, vocab_size=80,
                         tokens_per_doc=8, avg_degree=4, graph_signal=0.8,
                         text_signal=0.9, theme_count=2, seed=seed)
    ds = generate_synthetic(spec)
    cfg = TrainConfig(epochs=epochs, hidden_dim=8, encoder_depth=depth, seed=seed,
                      gnn=gnn, encoder_train=encoder_train, max_tokens=16)
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
    result = model.forward(sub, recs, training=False)
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


def _count_block0_calls(model):
    block = model.encoder.blocks[0]
    original = block.forward
    calls = []

    def counting(x):
        calls.append(1)
        return original(x)

    block.forward = counting
    return calls


def test_frozen_block_runs_once_per_distinct_text_during_training():
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=2, depth=2)
    calls = _count_block0_calls(model)
    train(model, ds.graph, ds.records, split, cfg)
    distinct = {tuple(tokenize(r.text, vocab, cfg.max_tokens)) for r in ds.records}
    assert 0 < len(calls) <= len(distinct)


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


def test_no_prefix_cache_held_after_training_returns_or_raises():
    ds, cfg, vocab, split, model = _small_setup(seed=12, epochs=1, depth=2)
    train(model, ds.graph, ds.records, split, cfg)
    assert model.encoder._prefix_cache is None

    original = model.forward

    def failing(*args, **kwargs):
        original(*args, **kwargs)
        assert model.encoder._prefix_cache  # live while training runs
        raise TrainingError("stop")

    model.forward = failing
    with pytest.raises(TrainingError, match="stop"):
        train(model, ds.graph, ds.records, split, cfg)
    assert model.encoder._prefix_cache is None


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
    model.head_sector.weight.data[...] = 1e308
    with pytest.raises(TrainingError) as exc:
        train(model, ds.graph, ds.records, split, cfg)
    message = str(exc.value)
    assert "epoch 0" in message and "stock" in message


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
    ("hidden_dim", 0), ("encoder_depth", -1), ("seed", -1), ("max_tokens", 0),
    ("learning_rate", 0.0), ("learning_rate", float("nan")), ("learning_rate", "fast"),
    ("dropout", 1.0), ("dropout", -0.1), ("learning_rate", float("inf")), ("seed", 1.5),
    ("max_tokens", True), ("residual", 1), ("directed", "yes"),
    ("pooling", "avg"), ("gnn", "gin"), ("encoder_train", "most"),
    ("neighbor_direction", "sideways"), ("gnn", ["gcn"]),
    ("proportions", 5), ("proportions", [0.5, 0.5]), ("proportions", [0.5, 0.5, 0.5]),
    ("proportions", [0.7, 0.3, 0.0]),
])
def test_config_rejects_bad_values_naming_the_field(field, value):
    with pytest.raises(DataError, match=f"config field '{field}'"):
        TrainConfig.from_dict({field: value})


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
], ids=["non-json", "non-utf8", "not-an-object", "no-model", "config-5", "config-out-of-range",
        "no-shape", "bad-class-count", "header-past-body", "missing-param", "non-finite-param"])
def test_malformed_checkpoint_is_a_checkpoint_error_naming_the_file(tmp_path, edit, expected):
    ds, cfg, vocab, split, model = _small_setup(seed=17, epochs=1)
    path = tmp_path / "model.setn"
    save_model(model, path, cfg)
    prefix, header, blocks = _checkpoint_parts(path)
    _write_checkpoint(path, prefix, *edit(header, blocks))
    with pytest.raises(CheckpointError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")
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
