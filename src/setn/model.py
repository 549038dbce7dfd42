"""Joint text+graph stock embedding model with two classifier heads.

Every subgraph member's description is encoded and pooled to a text vector;
a GNN layer mixes the stacked vectors over the subgraph; the target's text
vector is optionally added back (residual fusion). The fused vector is the
exported stock embedding. Only ``forward`` feeds it to the two heads (ReLU,
dropout, one affine layer per taxonomy): inference computes no logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .graph import GnnParams, Subgraph, Subgraphs, gat_layer, gcn_layer, init_gnn_params
from .text import EncoderBlock, TextEncoder, Vocab, _token_keys, pool

if TYPE_CHECKING:
    from .training import TrainConfig

GNN_KINDS = ("gcn", "gat", "none")

# Token budget of one batch in the text stage under ``no_grad``: it bounds the
# batch's activations whatever the sequence length. A longer sequence runs
# alone. A recorded pass holds every activation until backward, so there the
# budget would bound nothing. ``embed_universe`` bounds its graph stage's
# batches by it too, counted in member rows.
TEXT_BATCH_TOKENS = 512


def size_batches(sizes: Sequence[int]) -> Iterator[list[int]]:
    """The indices of ``sizes`` grouped by size, in order of each size's first
    index. Under ``no_grad`` every group is cut into batches of at most
    ``TEXT_BATCH_TOKENS // size`` indices, and a size past the budget gets
    batches of one; a recorded pass keeps each group whole."""
    groups: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        groups.setdefault(size, []).append(i)
    for size, group in groups.items():
        step = len(group) if ad.is_recording() else max(1, TEXT_BATCH_TOKENS // size)
        for lo in range(0, len(group), step):
            yield group[lo:lo + step]


@dataclass
class Head:
    weight: Tensor
    bias: Tensor

    def named_params(self):
        yield "weight", self.weight
        yield "bias", self.bias


@dataclass
class ForwardResult:
    embedding: Tensor          # [d], post-residual, pre-head
    logits_sector: Tensor      # [n_sectors]
    logits_industry: Tensor    # [n_industries]


class SetnModel:
    """Composed encoder + GNN + residual + sector/industry heads, with the
    ``TrainConfig`` they were built from as ``config``."""

    def __init__(self, config: TrainConfig, vocab: Vocab, n_sectors: int,
                 n_industries: int, rng: np.random.Generator):
        self.config = config
        self.vocab = vocab
        dim = self.dim = config.hidden_dim
        self.n_sectors = n_sectors
        self.n_industries = n_industries
        self.encoder = TextEncoder(len(vocab), dim, config.encoder_depth, rng,
                                   max_len=config.max_tokens)
        self.gnn: Optional[GnnParams] = None
        if config.gnn != "none":
            self.gnn = init_gnn_params(dim, rng, with_attention=(config.gnn == "gat"))
        self.head_sector = Head(ad.xavier_uniform(rng, dim, n_sectors),
                                Tensor(np.zeros(n_sectors), requires_grad=True))
        self.head_industry = Head(ad.xavier_uniform(rng, dim, n_industries),
                                  Tensor(np.zeros(n_industries), requires_grad=True))
        self.encoder.set_trainable(config.encoder_train)

    # ------------------------------------------------------------------

    def named_params(self):
        for name, p in self.encoder.named_params():
            yield f"encoder.{name}", p
        if self.gnn is not None:
            for name, p in self.gnn.named_params():
                yield f"gnn.{name}", p
        for head in ("head_sector", "head_industry"):
            for name, p in getattr(self, head).named_params():
                yield f"{head}.{name}", p

    def trainable_params(self) -> list[Tensor]:
        return [p for _, p in self.named_params() if p.requires_grad]

    # ------------------------------------------------------------------

    def encode_text(self, record) -> Tensor:
        """Pooled text vector [d] for one stock."""
        return ad.reshape(self.text_stage([record]), (self.dim,))

    def text_members(self, sub: Subgraph) -> tuple[int, ...]:
        """The subgraph members whose texts the graph stage reads, target
        first: all of them, or only the target without a GNN."""
        return sub.members if self.gnn is not None else sub.members[:1]

    def text_stage(self, records: Sequence) -> Tensor:
        """Tokenize, encode and pool: one text vector per record, [m, d].

        Each record's ids, ``tokenize``'s as a tuple, are read directly from
        the vocabulary's memo, which maps each text once per vocabulary. Under
        ``no_grad`` each distinct token sequence is encoded once per parameter
        state: its pooled row is kept at the pooled level of the encoder's
        cache (``TextEncoder.cached``), and the result is a new array built
        from it. A recorded pass neither reads nor fills that level and
        encodes every record, since backward needs its graph. Either way
        every row equals its own encoding bit for bit (see ``_encode_rows``)."""
        tokens = _token_keys([r.text for r in records], self.vocab, self.config.max_tokens)
        if not tokens:
            raise DataError("the text stage needs at least one record, got none")
        if ad.is_recording():
            return self._encode_rows(tokens)
        return Tensor(self.encoder.cached(self.config.pooling, tokens,
                                          lambda new: self._encode_rows(new).data))

    def _encode_rows(self, tokens: Sequence[tuple[int, ...]]) -> Tensor:
        """Encode and pool token sequences: one row per sequence, [m, d].

        Sequences of one length are encoded together, and every row equals
        its own encoding bit for bit. Under ``no_grad`` a batch holds at most
        ``TEXT_BATCH_TOKENS`` tokens. A recorded pass keeps every activation
        until ``backward`` whatever the batching, so there one batch holds
        every sequence of a length. The batches pay off only where token
        lengths repeat: sequences of many distinct lengths encode one by one."""
        parts, placed = [], []
        for batch in size_batches([len(seq) for seq in tokens]):
            parts.append(pool(self.encoder.encode([tokens[i] for i in batch]), self.config.pooling))
            placed.append(batch)
        return ad.place_rows(parts, placed)

    def graph_stage(self, h_text: Tensor, sub: Subgraphs) -> Tensor:
        """The fused target row: the GNN over the text rows of
        ``text_members(sub)`` (target first), plus the target's row if
        residual. One subgraph's rows [n, d] give [1, d]. A sequence of B
        subgraphs with n text members each, rows stacked as [B, n, d], gives
        [B, 1, d], every slice bit for bit that subgraph's own row: one
        layer call serves the whole stack."""
        target_text = ad.take_rows(h_text, [0], axis=-2)
        if self.gnn is None:
            return target_text
        layer = gcn_layer if self.config.gnn == "gcn" else gat_layer
        target_gnn = ad.take_rows(layer(h_text, sub, self.gnn), [0], axis=-2)
        return ad.add(target_text, target_gnn) if self.config.residual else target_gnn

    def forward(self, sub: Subgraph, records: Sequence,
                rng: Optional[np.random.Generator] = None) -> ForwardResult:
        """The fused row, then ReLU, dropout and both heads, for the subgraph target.

        ``records`` must align with ``sub.members`` (target first). A
        training pass passes the dropout generator ``rng``.
        """
        if len(records) != sub.size:
            raise DataError(f"{len(records)} records for a subgraph of {sub.size} members")
        for rec, member in zip(records, sub.members):
            if rec.stock_id != member:
                raise DataError(f"record {rec.stock_id} misaligned with subgraph member {member}")
        members = records[:len(self.text_members(sub))]
        h = self.graph_stage(self.text_stage(members), sub)
        z = ad.dropout(ad.relu(h), self.config.dropout, rng)
        logits_s, logits_i = (ad.reshape(ad.linear(z, head.weight, head.bias), (-1,))
                              for head in (self.head_sector, self.head_industry))
        return ForwardResult(ad.reshape(h, (-1,)), logits_s, logits_i)

    def embed_stock(self, sub: Subgraph, records: Sequence) -> np.ndarray:
        """Deterministic embedding vector [d] (dropout off), computed under
        ``no_grad``, so the member texts come from the pooled level of the
        encoder's cache."""
        with ad.no_grad():
            return self.forward(sub, records).embedding.data.copy()


def param_shapes(config: TrainConfig, n_vocab: int, n_sectors: int, n_industries: int):
    """(name, shape) of every parameter of the model these sizes build, in
    ``named_params`` order, computed without allocating the parameters."""
    d = config.hidden_dim
    yield "encoder.token_emb", (n_vocab, d)
    yield "encoder.pos_emb", (config.max_tokens, d)
    for i in range(config.encoder_depth):
        for name, shape in EncoderBlock.param_table(d):
            yield f"encoder.block{i}.{name}", shape
    if config.gnn != "none":
        yield "gnn.weight", (d, d)
        yield "gnn.bias", (d,)
        if config.gnn == "gat":
            yield "gnn.attention", (2 * d,)
    for head, n in (("head_sector", n_sectors), ("head_industry", n_industries)):
        yield f"{head}.weight", (d, n)
        yield f"{head}.bias", (n,)


def compute_loss(result: ForwardResult, sector_label: int, industry_label: int) -> Tensor:
    """Sum of the two heads' cross-entropies for the target stock; a label
    outside its head's classes is a ``LabelError``."""
    return ad.add(ad.cross_entropy(result.logits_sector, sector_label),
                  ad.cross_entropy(result.logits_industry, industry_label))
