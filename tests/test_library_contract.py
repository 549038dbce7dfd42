"""The library's error contract: a bad argument ends in a ``SetnError`` that
names it, never in an exception from numpy or Python underneath."""

import dataclasses
import math
from contextlib import nullcontext
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setn import autodiff as ad
from setn.autodiff import Tensor
from setn.data import GeneratorSpec, export_embeddings, generate_synthetic
from setn.errors import DataError, SetnError, ShapeError, TrainingError
from setn.evaluation import (EmbeddingMatrix, average_precision_at_k, cosine_knn,
                             embed_universe, evaluate_map, map_at_k, theme_metric)
from setn.graph import StockGraph, gcn_layer, init_gnn_params, sample_subgraph
from setn.text import EncoderBlock, Vocab
from setn.training import TrainConfig, build_model, run_ablation, split_dataset, train

# values a caller may pass by mistake for a number
_BAD = [math.nan, math.inf, -math.inf, -1, 1.5, True, "3"]
# a k past every universe; a generator size this large would allocate
_HUGE = 10**30
_SMALL_SPEC = GeneratorSpec(n=30, sectors=3, industries=5, vocab_size=60,
                            tokens_per_doc=6, theme_count=2)
_TRAIN_NUMBERS = ["epochs", "learning_rate", "dropout", "hidden_dim", "encoder_depth",
                  "seed", "max_tokens"]


def _matrix() -> EmbeddingMatrix:
    return EmbeddingMatrix(list(range(8)), np.random.default_rng(0).normal(size=(8, 3)))


def _with(sequence, index, value):
    return tuple(value if i == index else x for i, x in enumerate(sequence))


def _split_proportion(index, value):
    return split_dataset(range(20), _with((0.7, 0.1, 0.2), index, value))


def _generate(name, value):
    return generate_synthetic(dataclasses.replace(_SMALL_SPEC, **{name: value}))


def _configure(name, value):
    return TrainConfig(**{name: value})


def _rank_rows(cached, row):
    emb = _matrix()
    if cached:
        emb.neighbor_rows(7)
    return emb.neighbor_rows(3, [0, row])


_K_SLOTS = {
    "map_at_k k": lambda k: map_at_k(_matrix(), {i: i % 2 for i in range(8)}, [3, k]),
    "average_precision_at_k k": lambda k: average_precision_at_k([1, 0, 1], 2, k),
    "average_precision_at_k total_relevant": lambda t: average_precision_at_k([1, 0, 1], t, 3),
    "cosine_knn k": lambda k: cosine_knn(_matrix(), 0, k),
    "neighbor_rows k": lambda k: _matrix().neighbor_rows(k),
}
# stock ids: none of the values drawn for these names a stock
_ID_SLOTS = {
    "sample_subgraph target": lambda v: sample_subgraph(StockGraph(3, ((0, 1), (1, 2))), v),
    "row_of id": lambda v: _matrix().row_of(v),
    "ranked_neighbors id": lambda v: _matrix().ranked_neighbors(v),
    "cosine_knn query": lambda v: cosine_knn(_matrix(), v, 2),
}
# rows: none of the values drawn for these is a row of the 8-row matrix,
# whether its ranking is cached or not
_ROW_SLOTS = {
    "neighbor_rows rows": partial(_rank_rows, False),
    "neighbor_rows rows cached": partial(_rank_rows, True),
}
_OTHER_SLOTS = {
    "EmbeddingMatrix id": lambda v: EmbeddingMatrix([0, v], np.eye(2)),
    "Adam lr": lambda v: ad.Adam([Tensor(np.ones(2), requires_grad=True)], lr=v).step(),
    "dropout rate": lambda v: ad.dropout(Tensor(np.ones(3)), v, np.random.default_rng(0)),
    **{f"split_dataset proportion {i}": partial(_split_proportion, i) for i in range(3)},
    "split_dataset seed": lambda v: split_dataset(range(20), seed=v),
    "theme_metric member": lambda v: theme_metric(_matrix(), {"t": (1, 2, v)}),
    **{f"GeneratorSpec.{f.name}": partial(_generate, f.name)
       for f in dataclasses.fields(GeneratorSpec)},
    **{f"TrainConfig.{name}": partial(_configure, name) for name in _TRAIN_NUMBERS},
}


@st.composite
def _slot_and_value(draw):
    slot = draw(st.sampled_from(sorted(_K_SLOTS) + sorted(_ID_SLOTS) + sorted(_ROW_SLOTS)
                                + sorted(_OTHER_SLOTS)))
    values = (_BAD + [_HUGE] if slot in _K_SLOTS
              else _BAD + [1.0, None] if slot in _ID_SLOTS
              else _BAD + [1.0, None, _HUGE, 8] if slot in _ROW_SLOTS else _BAD)
    return slot, draw(st.sampled_from(values))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_slot_and_value())
def test_a_bad_number_in_any_library_argument_returns_or_raises_a_package_error(case):
    slot, value = case
    call = {**_K_SLOTS, **_ID_SLOTS, **_ROW_SLOTS, **_OTHER_SLOTS}[slot]
    try:
        call(value)
    except SetnError:
        pass
    else:
        assert slot not in _ID_SLOTS and slot not in _ROW_SLOTS, f"{slot} took {value!r}"


@cache
def _universe():
    ds = generate_synthetic(_SMALL_SPEC)
    config = TrainConfig(epochs=1, hidden_dim=4, encoder_depth=1, max_tokens=8)
    vocab = Vocab.build(r.text for r in ds.records)
    return ds, config, vocab, split_dataset([r.stock_id for r in ds.records], seed=0)


def _text_stage(recording, draw):
    ds, config, vocab, _ = _universe()
    model = build_model(config, vocab, 3, 5)
    with nullcontext() if recording else ad.no_grad():
        return model.text_stage(draw(ds.records))


def _train_split(part, draw):
    ds, config, vocab, split = _universe()
    model = build_model(config, vocab, 3, 5)
    split = dataclasses.replace(split, **{part: draw(getattr(split, part))})
    return train(model, ds.graph, ds.records, split, config)


def _embed_ids(embed, draw):
    ds, config, vocab, _ = _universe()
    return embed(build_model(config, vocab, 3, 5), ds.graph, ds.records, draw(range(30)))


def _matrix_ids(draw):
    ids = draw(range(8))
    return EmbeddingMatrix(ids, np.ones((len(ids), 3)))


def _train_records(draw):
    ds, config, vocab, split = _universe()
    return train(build_model(config, vocab, 3, 5), ds.graph, draw(ds.records), split, config)


def _forward_records(draw):
    ds, config, vocab, _ = _universe()
    sub = sample_subgraph(ds.graph, 0)
    return build_model(config, vocab, 3, 5).forward(sub, draw(ds.records[m] for m in sub.members))


def _ablation_records(draw):
    ds, config, _, _ = _universe()
    return run_ablation(dataclasses.replace(ds, records=draw(ds.records)), config, ["residual"])


# sequence arguments, each given an empty list, one element or one element twice
_SEQUENCE_SLOTS = {
    "text_stage records": partial(_text_stage, True),
    "text_stage records no_grad": partial(_text_stage, False),
    "theme_metric members": lambda draw: theme_metric(_matrix(), {"t": tuple(draw(range(8)))}),
    "theme_metric themes": lambda draw: theme_metric(
        _matrix(), dict(draw([("a", (0, 1, 2)), ("b", (3, 4))]))),
    **{f"train split {part}": partial(_train_split, part) for part in ("train", "val", "test")},
    "embed_universe ids": partial(_embed_ids, embed_universe),
    "evaluate_map ids": partial(_embed_ids, evaluate_map),
    "map_at_k ks": lambda draw: map_at_k(_matrix(), {i: i % 2 for i in range(8)}, draw([3, 5])),
    "split_dataset ids": lambda draw: split_dataset(draw(range(20))),
    "EmbeddingMatrix ids": _matrix_ids,
    "place_rows parts": lambda draw: ad.place_rows(draw([Tensor(np.ones((1, 2)))]), draw([[0]])),
    "Vocab tokens": lambda draw: Vocab(draw(["alpha", "beta"])),
    "train records": _train_records,
    "forward records": _forward_records,
    "run_ablation records": _ablation_records,
}
_DRAWS = {
    "empty": lambda seq: list(seq)[:0],
    "one": lambda seq: list(seq)[:1],
    "repeated": lambda seq: list(seq)[:1] * 2,
}


@pytest.mark.parametrize("draw", sorted(_DRAWS))
@pytest.mark.parametrize("slot", sorted(_SEQUENCE_SLOTS))
def test_an_empty_single_or_repeated_sequence_returns_or_raises_a_package_error(slot, draw):
    try:
        _SEQUENCE_SLOTS[slot](_DRAWS[draw])
    except SetnError:
        pass


def _no_trainable_parameters(_tmp):
    ds = generate_synthetic(_SMALL_SPEC)
    config = TrainConfig(epochs=1, hidden_dim=4, encoder_depth=0, encoder_train="none",
                         max_tokens=8)
    model = build_model(config, Vocab.build(r.text for r in ds.records), 3, 5)
    for _, p in model.named_params():
        p.requires_grad = False
    split = split_dataset([r.stock_id for r in ds.records], seed=0)
    train(model, ds.graph, ds.records, split, config)


def _wide_features(_tmp):
    sub = sample_subgraph(StockGraph(2, ((0, 1),)), 1)
    gcn_layer(Tensor(np.ones((2, 3))), sub, init_gnn_params(4, np.random.default_rng(0)))


# one case for each raise statement that no other test reaches
_UNREACHED = {
    "linear input rank": (lambda _: ad.linear(Tensor(np.ones(3)), Tensor(np.ones((3, 2))),
                                              Tensor(np.ones(2))),
                          ShapeError, "(3,)"),
    "linear bias shape": (lambda _: ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))),
                                              Tensor(np.ones(3))),
                          ShapeError, "bias shape (3,)"),
    "mean_rows rank": (lambda _: ad.mean_rows(Tensor(np.ones(3))), ShapeError, "shape (3,)"),
    "max_rows rank": (lambda _: ad.max_rows(Tensor(np.ones(3))), ShapeError, "shape (3,)"),
    "encoder block width": (lambda _: EncoderBlock(4, np.random.default_rng(0)).forward(
                                Tensor(np.ones((2, 3)))),
                            ShapeError, "input of shape (2, 3)"),
    "one-stock universe": (lambda _: generate_synthetic(
                               GeneratorSpec(n=1, sectors=1, industries=1)),
                           DataError, "n must be an integer of at least 2, got 1"),
    "vocab too small": (lambda _: generate_synthetic(GeneratorSpec(vocab_size=10)),
                        DataError, "vocab size 10"),
    "embedding format": (lambda tmp: export_embeddings([0], np.ones((1, 2)), tmp / "e", fmt="xml"),
                         DataError, "'xml'"),
    "embedding rank": (lambda _: EmbeddingMatrix([0], np.ones(3)), DataError, "shape (3,)"),
    "ids for rows": (lambda _: EmbeddingMatrix([0, 1, 2], np.ones((2, 2))),
                     DataError, "3 ids for 2 rows"),
    "non-finite embedding": (lambda _: EmbeddingMatrix([0, 1], [[1.0, math.nan], [1.0, 1.0]]),
                             DataError, "non-finite"),
    "one-member theme": (lambda _: theme_metric(_matrix(), {"solo": (1,)}),
                         DataError, "theme 'solo'"),
    "sampling direction": (lambda _: sample_subgraph(StockGraph(2, ((0, 1),)), 0, "sideways"),
                           DataError, "'sideways'"),
    "sampling directed flag": (lambda _: sample_subgraph(StockGraph(2, ((0, 1),)), 0, directed=1),
                               DataError, "directed must be a bool, got 1"),
    "feature width": (_wide_features, ShapeError, "feature dim 3"),
    "no trainable parameters": (_no_trainable_parameters, TrainingError, "trainable parameters"),
}


@pytest.mark.parametrize("case", sorted(_UNREACHED))
def test_each_otherwise_unreached_raise_names_what_is_wrong(case, tmp_path):
    call, error, named = _UNREACHED[case]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error
    assert named in str(exc.value)
