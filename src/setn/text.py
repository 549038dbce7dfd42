"""Tokenization and the trainable text encoder.

A compact stand-in for a large pretrained language model: learned token and
position embeddings followed by a configurable number of single-head
self-attention blocks. Depth 0 degrades to a bag of token embeddings.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError, open_text

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
        for i, tok in enumerate(self.tokens):
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
        """Read one token per line; line k holds the token with id k + 3."""
        with open_text(path) as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")


def tokenize(text: str, vocab: Vocab, max_tokens: int = MAX_TOKENS) -> TokenSequence:
    """Lowercase, whitespace-split, map through the vocabulary with UNK fallback.

    A CLS id is prepended and the sequence is truncated to ``max_tokens``
    ids total. Empty text yields just the CLS id.
    """
    if len(vocab) <= NUM_RESERVED:
        raise DataError("vocabulary is empty")
    ids = [CLS_ID]
    for word in text.lower().split():
        ids.append(vocab.id_of(word))
    return ids[:max_tokens]


class EncoderBlock:
    """Single-head self-attention plus a two-layer feedforward, post-norm."""

    def __init__(self, dim: int, rng: np.random.Generator):
        ff_dim = 2 * dim
        self.dim = dim
        self.attn_q_w = ad.xavier_uniform(rng, dim, dim)
        self.attn_q_b = ad.zeros_param(dim)
        self.attn_k_w = ad.xavier_uniform(rng, dim, dim)
        self.attn_k_b = ad.zeros_param(dim)
        self.attn_v_w = ad.xavier_uniform(rng, dim, dim)
        self.attn_v_b = ad.zeros_param(dim)
        self.attn_o_w = ad.xavier_uniform(rng, dim, dim)
        self.attn_o_b = ad.zeros_param(dim)
        self.norm1_gain = ad.ones_param(dim)
        self.norm1_bias = ad.zeros_param(dim)
        self.ff1_w = ad.xavier_uniform(rng, dim, ff_dim)
        self.ff1_b = ad.zeros_param(ff_dim)
        self.ff2_w = ad.xavier_uniform(rng, ff_dim, dim)
        self.ff2_b = ad.zeros_param(dim)
        self.norm2_gain = ad.ones_param(dim)
        self.norm2_bias = ad.zeros_param(dim)

    _PARAM_FIELDS = (
        "attn_q_w", "attn_q_b", "attn_k_w", "attn_k_b", "attn_v_w", "attn_v_b",
        "attn_o_w", "attn_o_b", "norm1_gain", "norm1_bias",
        "ff1_w", "ff1_b", "ff2_w", "ff2_b", "norm2_gain", "norm2_bias",
    )

    def named_params(self):
        for name in self._PARAM_FIELDS:
            yield name, getattr(self, name)

    def set_trainable(self, flag: bool) -> None:
        for _, p in self.named_params():
            p.requires_grad = bool(flag)

    def forward(self, x: Tensor) -> Tensor:
        q = ad.linear(x, self.attn_q_w, self.attn_q_b)
        k = ad.linear(x, self.attn_k_w, self.attn_k_b)
        v = ad.linear(x, self.attn_v_w, self.attn_v_b)
        scores = ad.mul(ad.matmul(q, ad.transpose(k)), Tensor(1.0 / math.sqrt(self.dim)))
        ctx = ad.matmul(ad.softmax_rows(scores), v)
        attended = ad.linear(ctx, self.attn_o_w, self.attn_o_b)
        x = ad.layer_norm_rows(ad.add(x, attended), self.norm1_gain, self.norm1_bias)
        hidden = ad.relu(ad.linear(x, self.ff1_w, self.ff1_b))
        ff = ad.linear(hidden, self.ff2_w, self.ff2_b)
        return ad.layer_norm_rows(ad.add(x, ff), self.norm2_gain, self.norm2_bias)


class TextEncoder:
    """Token embeddings, learned positions, and a stack of encoder blocks."""

    def __init__(self, vocab_size: int, dim: int, depth: int,
                 rng: np.random.Generator, max_len: int = MAX_TOKENS):
        if vocab_size < NUM_RESERVED:
            raise DataError(f"vocab size must cover the {NUM_RESERVED} reserved ids")
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_len = max_len
        self.token_emb = ad.normal_param(rng, (vocab_size, dim))
        self.pos_emb = ad.normal_param(rng, (max_len, dim))
        self.blocks = [EncoderBlock(dim, rng) for _ in range(depth)]
        # token sequence -> state entering block ``_prefix_depth``; held only
        # inside ``frozen_prefix_cache``
        self._prefix_cache: dict[tuple[int, ...], Tensor] | None = None
        self._prefix_depth = 0

    @property
    def depth(self) -> int:
        return len(self.blocks)

    def encode(self, token_ids, training: bool = False) -> Tensor:
        """Per-token hidden states [batch, len, dim] of a list of token
        sequences of equal length. Every block runs once over the batch, with
        the same arithmetic per sequence."""
        ids = self._check_tokens(token_ids)
        cache = self._prefix_cache
        if cache is None:
            start, h = 0, self._prefix(ids, 0)
        else:
            start = self._prefix_depth
            keys = [tuple(seq) for seq in ids.tolist()]
            missing = [key for key in dict.fromkeys(keys) if key not in cache]
            if missing:
                # frozen layers only, so the cached states carry no graph
                fresh = self._prefix(np.array(missing), start)
                for key, state in zip(missing, fresh.data):
                    cache[key] = Tensor(state)
            h = Tensor(np.stack([cache[key].data for key in keys]))
        for block in self.blocks[start:]:
            h = block.forward(h)
        return h

    def _check_tokens(self, token_ids) -> np.ndarray:
        """Token ids as an int array [batch, len], validated."""
        rows = [list(seq) for seq in token_ids]
        length = len(rows[0]) if rows else 0
        if any(len(row) != length for row in rows):
            raise DataError("a batch of token sequences must share one length")
        if length == 0:
            raise DataError("cannot encode an empty batch or token sequence")
        if length > self.max_len:
            raise DataError(f"sequence of {length} tokens exceeds max length {self.max_len}")
        for row in rows:
            for i in row:
                if not 0 <= i < self.vocab_size:
                    raise DataError(f"token id {i} outside vocabulary of size {self.vocab_size}")
        return np.asarray(rows, dtype=np.int64)

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
            raise ValueError(f"unknown encoder training policy {policy!r}")
        if policy == "last" and not self.blocks:
            raise ValueError("policy 'last' needs at least one encoder block")
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
        return ad.reshape(ad.take_rows(h, [0], axis=-2), h.data.shape[:-2] + h.data.shape[-1:])
    if strategy == "mean":
        return ad.mean_rows(h)
    return ad.max_rows(h)
