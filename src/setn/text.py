"""Tokenization and the trainable text encoder.

A compact stand-in for a large pretrained language model: learned token and
position embeddings followed by a configurable number of single-head
self-attention blocks. Depth 0 degrades to a bag of token embeddings.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError, is_int_type, open_text, replacing, require_int

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
NUM_RESERVED = 3
MAX_TOKENS = 512
POOLING_STRATEGIES = ("cls", "mean", "max")
ENCODER_POLICIES = ("all", "last", "none")

TokenSequence = list[int]


class Vocab:
    """Token-to-id map. Ids 0..2 are reserved for PAD, UNK and CLS."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self._ids: dict[str, int] = {}
        # text -> its whole id sequence, CLS first: ``tokenize``'s memo
        self._memo: dict[str, tuple[int, ...]] = {}
        for i, tok in enumerate(self.tokens):
            _require_token(tok)
            if tok in self._ids:
                raise DataError(f"duplicate vocabulary token {tok!r}")
            self._ids[tok] = i + NUM_RESERVED

    def __len__(self) -> int:
        return len(self.tokens) + NUM_RESERVED

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocab":
        """Vocabulary from whitespace-split lowercased texts, most frequent first
        (ties broken alphabetically)."""
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(text.lower().split())
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([tok for tok, _ in ranked])

    @classmethod
    def from_file(cls, path) -> "Vocab":
        """Read one token per line. Empty lines are skipped: the k-th token
        (from 0) has id k + 3, whatever empty lines come before it."""
        tokens: dict[str, None] = {}
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, 1):
                token = line.rstrip("\n")
                if token in tokens:
                    raise DataError(f"{path}:{lineno}: duplicate vocabulary token {token!r}")
                if token:
                    try:
                        _require_token(token)
                    except DataError as exc:
                        raise DataError(f"{path}:{lineno}: {exc}") from exc
                    tokens[token] = None
        return cls(list(tokens))

    def to_file(self, path) -> None:
        with replacing(path, "w") as fh:
            self.write(fh)

    def write(self, fh) -> None:
        """One token per line, as ``from_file`` reads them."""
        for tok in self.tokens:
            fh.write(tok + "\n")


def _require_token(token) -> None:
    """The one rule for a vocabulary token: a string that ``tokenize``'s
    whitespace split can return, which one line of a vocab file holds."""
    if not (isinstance(token, str) and token.split() == [token]):
        raise DataError(f"vocabulary token {token!r} must be a non-empty string "
                        "without whitespace")


def tokenize(text: str, vocab: Vocab, max_tokens: int = MAX_TOKENS) -> TokenSequence:
    """Lowercase, whitespace-split, map through the vocabulary with UNK fallback.

    A CLS id is prepended and the sequence is truncated to ``max_tokens``
    ids total. Empty text yields just the CLS id. Each vocabulary maps each
    text once and keeps the whole sequence; every call returns a new list.
    """
    return list(_token_keys([text], vocab, max_tokens)[0])


def _token_keys(texts: Iterable[str], vocab: Vocab, max_tokens: int) -> list[tuple[int, ...]]:
    """``tokenize``'s ids of each text as a tuple, from the vocabulary's memo
    of whole sequences, which maps each text once: the memo's one reader."""
    if len(vocab) <= NUM_RESERVED:
        raise DataError("vocabulary is empty")
    memo, keys = vocab._memo, []
    for text in texts:
        ids = memo.get(text)
        if ids is None:
            ids = memo[text] = (CLS_ID, *map(vocab.id_of, text.lower().split()))
        keys.append(ids[:max_tokens])
    return keys


def _cached_rows(cache: dict, keys: Sequence, compute) -> np.ndarray:
    """The rows ``cache[key]`` of the keys, stacked (one copy, as one
    concatenate), after one ``compute(missing)`` call fills the keys the cache
    lacks, in first-seen order: it returns one row per key given."""
    rows = [cache.get(key) for key in keys]
    missing = list(dict.fromkeys(key for key, row in zip(keys, rows) if row is None))
    if missing:
        cache.update(zip(missing, compute(missing)))
        rows = [cache[key] if row is None else row for key, row in zip(keys, rows)]
    return np.concatenate(rows).reshape(len(rows), *rows[0].shape)


class EncoderBlock:
    """Single-head self-attention plus a two-layer feedforward, post-norm."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        for name, shape in self.param_table(dim):
            if name.endswith("_w"):
                param = ad.xavier_uniform(rng, *shape)  # draws from rng in table order
            else:
                param = Tensor((np.ones if name.endswith("_gain") else np.zeros)(shape),
                               requires_grad=True)
            setattr(self, name, param)

    @staticmethod
    def param_table(dim: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape) of every parameter of a block of width ``dim``, in
        ``named_params`` order."""
        ff = 2 * dim
        return (
            ("attn_q_w", (dim, dim)), ("attn_q_b", (dim,)),
            ("attn_k_w", (dim, dim)), ("attn_k_b", (dim,)),
            ("attn_v_w", (dim, dim)), ("attn_v_b", (dim,)),
            ("attn_o_w", (dim, dim)), ("attn_o_b", (dim,)),
            ("norm1_gain", (dim,)), ("norm1_bias", (dim,)),
            ("ff1_w", (dim, ff)), ("ff1_b", (ff,)),
            ("ff2_w", (ff, dim)), ("ff2_b", (dim,)),
            ("norm2_gain", (dim,)), ("norm2_bias", (dim,)),
        )

    def named_params(self):
        for name, _ in self.param_table(self.dim):
            yield name, getattr(self, name)

    def set_trainable(self, flag: bool) -> None:
        for _, p in self.named_params():
            p.requires_grad = bool(flag)

    def forward(self, x: Tensor) -> Tensor:
        return ad.encoder_block(x, [p for _, p in self.named_params()])


class TextEncoder:
    """Token embeddings, learned positions, and a stack of encoder blocks."""

    def __init__(self, vocab_size: int, dim: int, depth: int,
                 rng: np.random.Generator, max_len: int = MAX_TOKENS):
        self.token_emb = ad.normal_param(rng, (vocab_size, dim))
        self.pos_emb = ad.normal_param(rng, (max_len, dim))
        self.blocks = [EncoderBlock(dim, rng) for _ in range(depth)]
        # token sequence -> state entering block ``_prefix_depth``; held only
        # inside ``frozen_prefix_cache``
        self._prefix_cache: dict[tuple[int, ...], np.ndarray] | None = None
        self._prefix_depth = 0

    @property
    def depth(self) -> int:
        return len(self.blocks)

    def encode(self, token_ids) -> Tensor:
        """Per-token hidden states [batch, len, dim] of a list of token
        sequences of equal length. Every block runs once over the batch, with
        the same arithmetic per sequence."""
        keys, ids = self._check_tokens(token_ids)
        cache = self._prefix_cache
        if cache is None:
            start, h = 0, self._prefix(ids, 0)
        else:
            # frozen layers only, so the cached states carry no graph
            start = self._prefix_depth
            h = Tensor(_cached_rows(cache, keys, lambda new: self._prefix(np.array(new), start).data))
        for block in self.blocks[start:]:
            h = block.forward(h)
        return h

    def _check_tokens(self, token_ids) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The token sequences as tuples, the prefix cache's keys, and as an
        int array [batch, len], validated."""
        rows = [tuple(seq) for seq in token_ids]
        length = len(rows[0]) if rows else 0
        if any(len(row) != length for row in rows):
            raise DataError("a batch of token sequences must share one length")
        if length == 0:
            raise DataError("cannot encode an empty batch or token sequence")
        max_len = self.pos_emb.shape[0]
        if length > max_len:
            raise DataError(f"sequence of {length} tokens exceeds max length {max_len}")
        vocab_size = self.token_emb.shape[0]
        # numpy would cast a float or bool id to an integer, so check the types
        if not all(map(is_int_type, set(map(type, chain.from_iterable(rows))))):
            token = next(t for t in chain.from_iterable(rows) if not is_int_type(type(t)))
            require_int(token, "token id", 0, vocab_size - 1)
        ids = np.asarray(rows)  # range-checked before the cast to int64, which could overflow
        bad = (ids < 0) | (ids >= vocab_size)
        if bad.any():
            raise DataError(f"token id {ids[bad][0]} outside vocabulary of size {vocab_size}")
        return rows, ids.astype(np.int64, copy=False)

    def _prefix(self, ids: np.ndarray, stop: int) -> Tensor:
        """Embedded tokens run through blocks ``[0, stop)``."""
        h = ad.take_rows(self.token_emb, ids)
        if self.blocks:
            h = ad.add(h, ad.take_rows(self.pos_emb, range(ids.shape[-1])))
        for block in self.blocks[:stop]:
            h = block.forward(h)
        return h

    @contextmanager
    def frozen_prefix_cache(self):
        """While the context is open, ``encode`` computes the hidden state that
        enters the first block with trainable parameters once per token
        sequence and reuses it. Frozen parameters must not change meanwhile.
        Trainable embedding tables leave no frozen prefix, so then nothing is
        cached."""
        if self.token_emb.requires_grad or self.pos_emb.requires_grad:
            yield
            return
        self._prefix_depth = next(
            (i for i, block in enumerate(self.blocks)
             if any(p.requires_grad for _, p in block.named_params())), self.depth)
        self._prefix_cache = {}
        try:
            yield
        finally:
            self._prefix_cache = None

    def set_trainable(self, policy: str) -> None:
        """Apply a training policy: 'all', 'last' (last block only) or 'none'.

        The embedding tables follow 'all' only.
        """
        if policy not in ENCODER_POLICIES:
            raise DataError(f"unknown encoder training policy {policy!r}")
        if policy == "last" and not self.blocks:
            raise DataError("policy 'last' needs at least one encoder block")
        emb = policy == "all"
        self.token_emb.requires_grad = emb
        self.pos_emb.requires_grad = emb
        for i, block in enumerate(self.blocks):
            block.set_trainable(emb or (policy == "last" and i == self.depth - 1))

    def named_params(self):
        yield "token_emb", self.token_emb
        yield "pos_emb", self.pos_emb
        for i, block in enumerate(self.blocks):
            for name, p in block.named_params():
                yield f"block{i}.{name}", p


def pool(h: Tensor, strategy: str) -> Tensor:
    """Collapse per-token states [..., len, d] to fixed vectors [..., d]."""
    if h.data.ndim < 2 or h.data.shape[-2] == 0:
        raise ContractError(f"pool needs non-empty rows of rank 2 or more, got shape {h.data.shape}")
    if strategy not in POOLING_STRATEGIES:
        raise DataError(f"unknown pooling strategy {strategy!r}")
    if strategy == "cls":
        return ad.take_rows(h, 0, axis=-2)
    if strategy == "mean":
        return ad.mean_rows(h)
    return ad.max_rows(h)
