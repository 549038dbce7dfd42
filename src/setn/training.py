"""Training loop, dataset splitting, the ablation grid, and checkpoint I/O.

Each training target's 1-hop subgraph is sampled once per ``train`` call.
Each step runs the model forward on it and backpropagates the loss of the
target node only; one optimizer step per target. Determinism: parameter
init, epoch order, and dropout all derive from the config seed, so a fixed
seed reproduces checkpoints bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
import time
from dataclasses import asdict, dataclass, replace
from itertools import islice, product
from typing import Optional, Sequence, TextIO

import numpy as np

from .autodiff import Adam, backward, writing
from .data import Dataset, StockRecord, _parse_json
from .errors import (CheckpointError, ContractError, DataError, NonFiniteError, SetnError,
                     TrainingError, is_finite_number, replacing, require_int)
from .evaluation import _require_ks, _require_records, evaluate_map
from .graph import DIRECTIONS, StockGraph, sample_subgraphs, to_undirected
from .model import GNN_KINDS, SetnModel, compute_loss, param_shapes
from .text import ENCODER_POLICIES, POOLING_STRATEGIES, Vocab

_CKPT_MAGIC = b"SETN"
_CKPT_VERSION = 1
# Retired config keys that v1 checkpoints may carry, with the constant each
# became; a checkpoint that sets another value cannot be reproduced.
_RETIRED_KEYS = {"adam_beta1": Adam.BETA1, "adam_beta2": Adam.BETA2, "adam_eps": Adam.EPS}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings. The defaults are the reference recipe: 20 epochs of
    Adam at learning rate 0.001, dropout 0.2, mean pooling, last-block
    encoder training, 512-token truncation, directed 1-hop sampling. Frozen,
    because a model keeps its config and reads it on every forward pass."""

    epochs: int = 20
    learning_rate: float = 0.001
    dropout: float = 0.2
    pooling: str = "mean"
    gnn: str = "gcn"
    residual: bool = True
    directed: bool = True
    encoder_train: str = "last"
    hidden_dim: int = 64
    encoder_depth: int = 2
    seed: int = 0
    proportions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    max_tokens: int = 512
    neighbor_direction: str = "in"

    def __post_init__(self):
        """Reject a wrong type, a value out of range or an unknown choice,
        naming the field."""
        def fail(name: str, why: str):
            raise DataError(f"config field {name!r}: {why}")

        for name, least, most in (("epochs", 1, sys.maxsize),  # one history entry per epoch
                                  ("hidden_dim", 1, None), ("encoder_depth", 0, None),
                                  ("seed", 0, None), ("max_tokens", 1, None)):
            object.__setattr__(self, name, require_int(getattr(self, name),
                                                       f"config field {name!r}:", least, most))
        for name in ("learning_rate", "dropout"):
            value = getattr(self, name)
            if not is_finite_number(value):
                fail(name, f"expected a finite number, got {value!r}")
        for name in ("residual", "directed"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                fail(name, f"expected true or false, got {value!r}")
        for name, what, choices in (("pooling", "pooling strategy", POOLING_STRATEGIES),
                                    ("gnn", "GNN kind", GNN_KINDS),
                                    ("encoder_train", "encoder training policy", ENCODER_POLICIES),
                                    ("neighbor_direction", "neighbor direction", DIRECTIONS)):
            value = getattr(self, name)
            if not isinstance(value, str) or value not in choices:
                fail(name, f"unknown {what} {value!r}; choose from {list(choices)}")
        for name, ok, rule in (
                ("learning_rate", self.learning_rate > 0, "must be positive"),
                ("dropout", 0 <= self.dropout < 1, "dropout rate must be in [0, 1)")):
            if not ok:
                fail(name, f"{rule}, got {getattr(self, name)!r}")
        if self.encoder_train == "last" and self.encoder_depth == 0:
            fail("encoder_train", "policy 'last' needs encoder_depth of at least 1")
        if not self.directed and self.neighbor_direction == "out":
            fail("neighbor_direction", "'out' with 'directed' false samples the subgraphs "
                                       "of 'in'; set it to 'in'")
        props = self.proportions
        if (not isinstance(props, (list, tuple)) or len(props) != 3
                or not all(is_finite_number(p) and p > 0 for p in props)
                or abs(sum(map(float, props)) - 1.0) > 1e-9):
            fail("proportions", f"expected three positive numbers summing to 1, got {props!r}")
        object.__setattr__(self, "proportions", tuple(props))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["proportions"] = list(self.proportions)
        return d

    @classmethod
    def from_dict(cls, obj) -> "TrainConfig":
        if not isinstance(obj, dict):
            raise DataError(f"config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class Split:
    train: list[int]
    val: list[int]
    test: list[int]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_dataset(ids: Sequence[int], proportions=(0.7, 0.1, 0.2), seed: int = 0) -> Split:
    """Seeded shuffle, then a contiguous train/val/test cut.

    The validation and test splits get their rounded shares; the training
    split takes the remainder. ``ids`` are distinct stock ids, a repeat named
    by the first id that occurs again; ``proportions`` and ``seed`` must pass
    the checks of the ``TrainConfig`` fields of the same names."""
    ids = [require_int(sid, "stock id", 0) for sid in ids]
    last = {sid: i for i, sid in enumerate(ids)}  # each id's last index
    if len(last) != len(ids):
        repeated = next(sid for i, sid in enumerate(ids) if last[sid] != i)
        raise DataError(f"stock id {repeated} appears more than once in the ids to split")
    TrainConfig(proportions=proportions, seed=seed)  # the config's own field checks
    n = len(ids)
    n_val = _round_half_up(n * proportions[1])
    n_test = _round_half_up(n * proportions[2])
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) <= 0:
        raise DataError(f"degenerate split sizes ({n_train}, {n_val}, {n_test}) for {n} ids")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [ids[i] for i in order]
    return Split(
        train=shuffled[:n_train],
        val=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


def split_records(records: Sequence[StockRecord], config: TrainConfig) -> Split:
    """The split of these records under the config's proportions and seed."""
    return split_dataset([r.stock_id for r in records], config.proportions, config.seed)


def build_model(config: TrainConfig, vocab: Vocab, n_sectors: int, n_industries: int) -> SetnModel:
    """Fresh model whose initialization derives from the config seed."""
    n_sectors = require_int(n_sectors, "n_sectors", 1)
    n_industries = require_int(n_industries, "n_industries", 1)
    _check_model_size(config, len(vocab), n_sectors, n_industries)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    return SetnModel(config, vocab, n_sectors, n_industries, rng)


def _check_model_size(config: TrainConfig, n_vocab: int, n_sectors: int, n_industries: int) -> None:
    """Before anything is allocated: a DataError naming the config field when
    the parameters, which the optimizer keeps in one flat arena, would hold
    more float64 values than one numpy array can."""
    # every block has the same shapes, so the first stands for the others
    shallow = replace(config, encoder_depth=min(config.encoder_depth, 1))
    sizes = {name: math.prod(shape)
             for name, shape in param_shapes(shallow, n_vocab, n_sectors, n_industries)}
    block = sum(size for name, size in sizes.items() if name.startswith("encoder.block"))
    total = sum(sizes.values()) + max(config.encoder_depth - 1, 0) * block
    limit = np.iinfo(np.intp).max // 8
    if total > limit:
        largest = max(sizes, key=sizes.get)
        field = ("encoder_depth" if sum(sizes.values()) <= limit
                 else "max_tokens" if largest == "encoder.pos_emb" else "hidden_dim")
        raise DataError(f"config field {field!r}: the model's {total} parameter values "
                        f"are more than one array can hold")


def prepare_graph(graph: StockGraph, config: TrainConfig) -> StockGraph:
    """Kept only for the benchmark's workloads, which call it: a model samples
    its own graph, directed or not (``sample_subgraph``)."""
    return graph if config.directed else to_undirected(graph)


def epoch_order(seed: int, epoch: int, ids: Sequence[int]) -> list[int]:
    """Shuffled iteration order, a pure function of (seed, epoch)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, epoch)))
    return [ids[i] for i in rng.permutation(len(ids))]


def _check_split(split: Split, graph: StockGraph) -> None:
    """Train and val hold at least one id each, every id is a node of the
    graph, and no id appears twice, in one part or across parts; each error
    names the part."""
    seen: dict[int, str] = {}
    for part in ("train", "val", "test"):
        ids = getattr(split, part)
        if part != "test" and not len(ids):
            raise DataError(f"split part {part!r} is empty")
        for sid in ids:
            require_int(sid, f"split part {part!r}: stock id", 0, graph.n_nodes - 1)
            if sid in seen:
                where = "appears twice" if seen[sid] == part else f"is also in part {seen[sid]!r}"
                raise DataError(f"split part {part!r}: stock id {sid} {where}")
            seen[sid] = part


def train(model: SetnModel, graph: StockGraph, records: Sequence[StockRecord],
          split: Split, config: TrainConfig,
          log_stream: Optional[TextIO] = None) -> list[dict]:
    """Fit the model in place; returns one log entry per epoch. ``config``
    must equal ``model.config``, which the forward pass reads. Before the
    first step ``split`` is checked against the graph (``_check_split``) and
    ``records`` must hold stock ``m``'s record at position ``m``. Each training
    target's subgraph is sampled once per call. The encoder's prefix level keeps
    the frozen prefix of each text encoded while ``train`` runs, for as long as
    its parameters keep their versions (``TextEncoder.keeping_prefixes``)."""
    if config != model.config:
        raise ContractError("train runs the forward pass from model.config; "
                            "the config given differs from it")
    _check_split(split, graph)
    _require_records(records, graph, range(graph.n_nodes))
    subs = dict(zip(split.train, sample_subgraphs(graph, split.train, config.neighbor_direction,
                                                  directed=config.directed).subgraphs()))
    params = model.trainable_params()
    if not params:
        raise TrainingError("model has no trainable parameters")
    optimizer = Adam(params, lr=config.learning_rate)
    dropout_rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(1,)))

    history = []
    try:
        with model.encoder.keeping_prefixes():
            for epoch in range(config.epochs):
                start = time.perf_counter()
                losses = []
                for target in epoch_order(config.seed, epoch, split.train):
                    sub = subs[target]
                    recs = [records[m] for m in sub.members]
                    try:
                        result = model.forward(sub, recs, rng=dropout_rng)
                        loss = compute_loss(result, records[target].sector, records[target].industry)
                    except NonFiniteError as exc:
                        # overflow inside the forward pass surfaces as a finiteness error
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch}, stock {target}: {exc}") from exc
                    value = loss.item()
                    backward(loss)
                    if not np.isfinite(optimizer.gradient()).all():
                        # an overflow in backward: stop before it reaches the parameters
                        raise TrainingError(f"non-finite gradient at epoch {epoch}, stock {target}")
                    optimizer.step()
                    optimizer.zero_grad()
                    losses.append(value)

                val_map = evaluate_map(model, graph, records, split.val, ks=(5,))
                seconds = time.perf_counter() - start
                entry = {
                    "epoch": epoch,
                    "mean_train_loss": float(np.mean(losses)),
                    "val_map5_sector": val_map["topix17"][5],
                    "val_map5_industry": val_map["topix33"][5],
                    "seconds": seconds,
                    "targets_per_s": len(split.train) / seconds,
                }
                history.append(entry)
                if log_stream is not None:
                    log_stream.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
    finally:
        for p in params:  # drop the optimizer's gradient views
            p.grad = None
    return history


# ---------------------------------------------------------------------------
# ablation grid

# Each axis: the TrainConfig field it sets and the value of each of its
# labels, in grid order.
AXIS_VALUES = {
    "graph_type": ("directed", {"directed": True, "undirected": False}),
    "encoder_policy": ("encoder_train", {"last": "last", "none": "none"}),
    "gnn_kind": ("gnn", {"gcn": "gcn", "gat": "gat"}),
    "residual": ("residual", {True: True, False: False}),
}


def ablation_axes(axes: Sequence[str]) -> list[str]:
    """The axes as a list; DataError if there are none, or one is unknown
    or repeated."""
    axes = list(axes)
    if not axes:
        raise DataError("ablation needs at least one axis")
    for i, axis in enumerate(axes):
        if axis not in AXIS_VALUES:
            raise DataError(f"unknown ablation axis {axis!r}; choose from {sorted(AXIS_VALUES)}")
        if axis in axes[:i]:
            raise DataError(f"repeated ablation axis {axis!r}")
    return axes


def run_ablation(dataset: Dataset, base_config: TrainConfig, axes: Sequence[str],
                 ks: Sequence[int] = (5, 10, 50)) -> list[dict]:
    """Train one model per configuration cell (shared seed and split) and
    report test MAP@k for both taxonomies, one row per cell."""
    axes = ablation_axes(axes)
    _require_ks(ks)
    records = dataset.records
    vocab = Vocab.build(r.text for r in records)
    split = split_records(records, base_config)

    rows = []
    for labels in product(*(AXIS_VALUES[a][1] for a in axes)):
        row = dict(zip(axes, labels))
        config = replace(base_config, **{AXIS_VALUES[a][0]: AXIS_VALUES[a][1][label]
                                         for a, label in row.items()})
        try:
            model = build_model(config, vocab,
                                n_sectors=dataset.taxonomy.n_sectors,
                                n_industries=dataset.taxonomy.n_industries)
            train(model, dataset.graph, records, split, config)
            metrics = evaluate_map(model, dataset.graph, records, split.test, ks)
            row["topix17"] = {f"map@{k}": v for k, v in metrics["topix17"].items()}
            row["topix33"] = {f"map@{k}": v for k, v in metrics["topix33"].items()}
        except SetnError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout: b"SETN" | u32 version | u64 header length | header JSON |
#         float64 LE parameter blocks in manifest order | 8-byte SHA-256 prefix
# of everything before it.


def save_model(model: SetnModel, path, config: TrainConfig) -> None:
    """Write ``model`` with ``model.config``, which ``config`` must equal,
    through a new file that replaces ``path`` only once it is complete."""
    if config != model.config:
        raise ContractError("save_model writes model.config; the config given differs from it")
    manifest = [{"name": name, "shape": list(p.data.shape)} for name, p in model.named_params()]
    header = {
        "config": model.config.to_dict(),
        "model": {
            "n_sectors": model.n_sectors,
            "n_industries": model.n_industries,
        },
        "vocab": model.vocab.tokens,
        "params": manifest,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = bytearray()
    buf += _CKPT_MAGIC
    buf += struct.pack("<I", _CKPT_VERSION)
    buf += struct.pack("<Q", len(payload))
    buf += payload
    for _, p in model.named_params():
        buf += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    checksum = hashlib.sha256(bytes(buf)).digest()[:8]
    with replacing(path, "wb") as fh:
        fh.write(bytes(buf))
        fh.write(checksum)


def load_model(path, expected_gnn: Optional[str] = None) -> tuple[SetnModel, TrainConfig]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 + 4 + 8 + 8 or blob[:4] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    body, checksum = blob[:-8], blob[-8:]
    if hashlib.sha256(body).digest()[:8] != checksum:
        raise CheckpointError(f"{path}: checksum mismatch (file truncated or corrupt)")
    (version,) = struct.unpack("<I", body[4:8])
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", body[8:16])
    if 16 + header_len > len(body):
        raise CheckpointError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        text = body[16:16 + header_len].decode("utf-8")
        try:
            header = _parse_json(text, f"{path}: invalid header", "checkpoint header")
        except DataError as exc:  # the message names the file already
            raise CheckpointError(str(exc)) from exc
        config_obj = dict(header["config"])
        # retired: the encoder's cache keeps frozen layers' states whatever it said
        config_obj.pop("frozen_text_cache", None)
        for key, value in _RETIRED_KEYS.items():
            found = config_obj.pop(key, value)
            if found != value:
                raise CheckpointError(f"{path}: retired config key {key!r} is {found!r}; "
                                      f"only {value!r} is supported")
        config = TrainConfig.from_dict(config_obj)
        vocab = Vocab(header["vocab"])
        n_classes = [header["model"][key] for key in ("n_sectors", "n_industries")]
        manifest = [(str(entry["name"]), tuple(entry["shape"])) for entry in header["params"]]
    except (ValueError, KeyError, TypeError) as exc:
        # ValueError covers bytes that are not UTF-8 and the DataError of a
        # config or a vocabulary that fails validation
        raise CheckpointError(f"{path}: invalid header: {type(exc).__name__}: {exc}") from exc
    if not all(type(n) is int and n >= 1 for n in n_classes):
        raise CheckpointError(f"{path}: class counts {n_classes} are not positive integers")
    if expected_gnn is not None and config.gnn != expected_gnn:
        raise CheckpointError(
            f"{path}: checkpoint was trained with gnn={config.gnn!r}, requested {expected_gnn!r}")
    # Before anything is allocated: the manifest must list the model the header's
    # sizes describe (read one entry past its length at most), and the file must hold it.
    expected = dict(islice(param_shapes(config, len(vocab), *n_classes), len(manifest) + 1))
    for name, shape in manifest:
        want = expected.pop(name, None)
        if want is None:
            raise CheckpointError(f"{path}: unexpected or repeated parameter {name!r}")
        if shape != want:
            raise CheckpointError(f"{path}: parameter {name!r} has shape {shape}, expected {want}")
    if expected:
        raise CheckpointError(f"{path}: parameters missing from the checkpoint: {sorted(expected)}")
    offset = 16 + header_len
    n_bytes = 8 * sum(math.prod(shape) for _, shape in manifest)
    if offset + n_bytes != len(body):
        raise CheckpointError(f"{path}: the parameters take {n_bytes} bytes, "
                              f"the file holds {len(body) - offset}")
    model = build_model(config, vocab, *n_classes)
    params = dict(model.named_params())
    with writing(*params.values()):
        for name, _ in manifest:
            p = params[name]
            block = np.frombuffer(body, dtype="<f8", count=p.data.size, offset=offset)
            if not np.isfinite(block).all():
                raise CheckpointError(f"{path}: parameter {name!r} holds non-finite values")
            p.data[...] = block.reshape(p.data.shape)
            offset += 8 * p.data.size
    return model, config
