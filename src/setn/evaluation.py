"""Retrieval evaluation: related-company MAP@K, the thematic-fund metric,
and the table that renders their rows.

All metrics are pure functions over an immutable embedding matrix. Nearest
neighbors use cosine similarity with the query excluded and ties broken by
ascending stock id.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .autodiff import no_grad, take_rows
from .data import StockRecord, _require_finite_rows
from .errors import DataError, is_int_type, require_int
from .graph import StockGraph, sample_subgraph
from .model import size_batches

logger = logging.getLogger(__name__)

# Ranking fills and ranks similarity rows this many bytes at a time, so it
# never holds an n x n array.
_RANK_BLOCK_BYTES = 1 << 20


@dataclass
class EmbeddingMatrix:
    """Stock ids paired with their embedding rows."""

    ids: list
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DataError(f"expected [n, d] embeddings, got shape {self.vectors.shape}")
        if len(self.ids) != self.vectors.shape[0]:
            raise DataError(f"{len(self.ids)} ids for {self.vectors.shape[0]} rows")
        if not len(self.ids):
            raise DataError("embedding matrix has no rows")
        self._index = _index_ids(self.ids)
        # a norm that overflows to inf or underflows to 0 is taken again on
        # the row scaled by its largest magnitude
        with np.errstate(over="ignore", under="ignore"):
            norms = np.linalg.norm(self.vectors, axis=1)
        odd = np.flatnonzero(np.isinf(norms) | (norms == 0))
        peak = np.abs(self.vectors[odd]).max(axis=1, initial=0.0)
        if np.any(peak == 0):
            bad = [self.ids[i] for i in odd[peak == 0]]
            raise DataError(f"zero-norm embedding rows for ids {bad}")
        _require_finite_rows(self.ids, self.vectors, "a non-finite value")
        scaled = self.vectors[odd] / peak[:, None]
        norms[odd] = 1.0
        self._unit = self.vectors / norms[:, None]
        self._unit[odd] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
        # each row's place in ascending id order breaks similarity ties;
        # integer ids rank before string ids when both occur
        order = sorted(range(len(self.ids)),
                       key=lambda i: (isinstance(self.ids[i], str), self.ids[i]))
        self._id_rank = np.empty(len(self.ids), dtype=np.intp)
        self._id_rank[order] = np.arange(len(self.ids))
        # nearest-neighbour rows of every row, widened on demand
        self._prefix = np.empty((len(self.ids), 0), dtype=np.intp)
        self._ranked_cache: dict = {}

    def __len__(self) -> int:
        return len(self.ids)

    def row_of(self, stock_id) -> int:
        _require_id(stock_id)
        if stock_id not in self._index:
            raise DataError(f"unknown stock id {stock_id!r}")
        return self._index[stock_id]

    def neighbor_rows(self, k: int, rows=None) -> np.ndarray:
        """Rows of the k most similar other stocks of each given row (every
        row by default), most similar first, ties by ascending id; k is a
        non-negative integer, capped at n - 1, and each row an integer in
        [0, n).

        A ranking of every row is cached and then serves any smaller k for
        any rows; the matrix is immutable by convention.
        """
        k = min(require_int(k, "k", 0), len(self) - 1)
        if rows is not None:
            rows = _require_rows(rows, len(self))
        if k <= self._prefix.shape[1]:
            top = self._prefix[:, :k]
            return top if rows is None else top[rows]
        if rows is not None:
            return self._rank(rows, k)
        self._prefix = self._rank(np.arange(len(self)), k)
        return self._prefix

    def ranked_neighbors(self, stock_id) -> list:
        """All other ids, most similar first, ties by ascending id (memoized)."""
        row = self.row_of(stock_id)
        if stock_id not in self._ranked_cache:
            top = self.neighbor_rows(len(self) - 1, [row])[0]
            self._ranked_cache[stock_id] = [self.ids[i] for i in top]
        return self._ranked_cache[stock_id]

    def _rank(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Top-k neighbour rows of the given rows, a block of rows at a time,
        each as its own product ``unit @ unit[r]`` ranks it, ties by id."""
        n, d = self._unit.shape
        top = np.empty((len(rows), k), dtype=np.intp)
        step = max(1, _RANK_BLOCK_BYTES // (8 * n))
        block = np.empty((min(step, len(rows)), n))
        # Any two summation orders of a d-wide dot product of unit rows differ
        # by at most 2 gamma_d, gamma_d = d u / (1 - d u) with u = 2**-53
        # (Higham 2002, section 3.1). So where the k + 1 largest similarities
        # of the block product lie more than 4 gamma_d apart, the per-row
        # product ranks the same k rows in the same order, with no tie for the
        # id rule to break. The margin doubles that, since a unit row's norm is
        # 1 only to within a few ulp. Any other row is ranked again from its
        # one-row product.
        gamma = d * 2.0**-53 / (1 - d * 2.0**-53)
        margin = 8 * gamma
        fallbacks = 0
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            sims = block[:len(chunk)]
            np.matmul(self._unit[chunk], self._unit.T, out=sims)
            sims[np.arange(len(chunk)), chunk] = -np.inf
            cols, vals = _sorted_top(sims, k + 1)
            top[start:start + len(chunk)] = cols[:, :k]
            # a gap that is nan (two -inf, or a nan) counts as a near-tie;
            # the query's own -inf after every other row is a gap of inf
            near = np.flatnonzero(~np.all(vals[:, :-1] - vals[:, 1:] > margin, axis=1))
            for i in near:
                row = self._unit @ self._unit[chunk[i]]
                row[chunk[i]] = -np.inf
                # every column at or above the k-th value, so ties there go by id
                tied = np.flatnonzero(row >= np.partition(row, n - k)[n - k])
                top[start + i] = tied[np.lexsort((self._id_rank[tied], -row[tied]))[:k]]
            fallbacks += len(near)
        logger.debug("%d of %d ranked rows were near-ties, ranked by their per-row product",
                     fallbacks, len(rows))
        return top


def _sorted_top(sims: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of each row's m largest entries, largest first."""
    n = sims.shape[1]
    cand = np.argpartition(sims, n - m, axis=1)[:, n - m:]
    vals = np.take_along_axis(sims, cand, axis=1)
    order = np.argsort(-vals, axis=1)
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _require_id(stock_id) -> None:
    """The one rule for an embedding's stock id: an integer by
    ``errors.is_int_type`` or a string ticker."""
    if not (isinstance(stock_id, str) or is_int_type(type(stock_id))):
        raise DataError(f"a stock id must be an integer or a string, got {stock_id!r}")


def _index_ids(ids: Sequence) -> dict:
    """Each id's row; each id passes ``_require_id`` and occurs once."""
    for sid in ids:
        _require_id(sid)
    index = {sid: i for i, sid in enumerate(ids)}  # each id's last row
    if len(index) != len(ids):
        repeated = next(sid for i, sid in enumerate(ids) if index[sid] != i)
        raise DataError(f"stock id {repeated!r} appears more than once in embedding matrix")
    return index


def _require_ks(ks: Sequence[int]) -> None:
    """The ks of a MAP@k pass: at least one, each an integer of at least 1."""
    if not len(ks):
        raise DataError("map_at_k needs at least one k, got none")
    for k in ks:
        require_int(k, "k", 1)


def _require_rows(rows, n: int) -> np.ndarray:
    """``rows`` as an intp array, each entry an integer by
    ``errors.is_int_type`` in [0, n); an integer array is checked by its
    dtype and its extremes, any other sequence entry by entry."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 1 and is_int_type(rows.dtype.type)):
        try:
            entries = iter(rows)
        except TypeError:
            raise DataError(f"rows must be a sequence of rows, got {rows!r}") from None
        return np.fromiter((require_int(r, "row", 0, n - 1) for r in entries), dtype=np.intp)
    if rows.size:
        require_int(rows.min(), "row", 0, n - 1)
        require_int(rows.max(), "row", 0, n - 1)
    return rows.astype(np.intp, copy=False)


def _require_records(records: Sequence[StockRecord], graph: StockGraph,
                     members: Sequence[int]) -> None:
    """Records are indexed by stock id, so there must be one per graph node,
    and the record of each given member must sit at that member's id."""
    if len(records) != graph.n_nodes:
        raise DataError(f"{len(records)} records for a graph of {graph.n_nodes} nodes")
    for m in members:
        if records[m].stock_id != m:
            raise DataError(f"record of stock {records[m].stock_id} at position {m}, "
                            f"where stock {m}'s belongs")


def cosine_knn(emb: EmbeddingMatrix, query_id, k: int) -> list:
    """Top-k ids by cosine similarity to the query, query excluded."""
    top = emb.neighbor_rows(k, [emb.row_of(query_id)])[0]
    if len(top) < k:
        raise DataError(f"k={k} must be smaller than the universe size {len(emb)}")
    return [emb.ids[i] for i in top]


def average_precision_at_k(relevance: Sequence[int], total_relevant: int, k: int) -> float:
    """AP@k of a ranked binary relevance list.

    Precision is accumulated at each relevant rank and normalized by
    min(k, total_relevant), so a relevance-complete prefix scores 1 even
    when fewer than k relevant items exist in the pool.

    >>> average_precision_at_k([1, 1, 1], 3, 3)
    1.0
    >>> round(average_precision_at_k([1, 0, 1], 3, 3), 4)
    0.5556
    >>> average_precision_at_k([0, 0, 0], 5, 3)
    0.0
    """
    require_int(k, "k", 1)
    require_int(total_relevant, "total_relevant", 0)
    if total_relevant == 0:
        return 0.0
    hits = 0
    score = 0.0
    for rank, rel in enumerate(relevance[:k], start=1):
        if rel:
            hits += 1
            score += hits / rank
    return score / min(k, total_relevant)


def map_at_k(emb: EmbeddingMatrix, labels: Mapping, ks: Sequence[int]) -> dict[int, float]:
    """Mean AP@k over every stock in the universe; relevance = same label.

    Computes what ``average_precision_at_k`` does for every query at once,
    adding in the same order, so the values are bit-identical to that loop.
    A universe of one stock retrieves nothing and scores 0.0 at every k, so
    a one-id validation part logs ``val_map5_*`` 0.0.
    """
    for sid in emb.ids:
        if sid not in labels:
            raise DataError(f"missing label for stock id {sid!r}")
    _require_ks(ks)
    codes: dict = {}
    code = np.array([codes.setdefault(labels[sid], len(codes)) for sid in emb.ids],
                    dtype=np.intp)
    relevant = np.bincount(code)[code] - 1
    top = emb.neighbor_rows(max(ks))
    rel = code[top] == code[:, None]
    # running sums add one precision per relevant rank, in rank order
    precision = np.where(rel, np.cumsum(rel, axis=1) / np.arange(1, top.shape[1] + 1), 0.0)
    score = np.cumsum(np.concatenate([np.zeros((len(emb), 1)), precision], axis=1), axis=1)
    n = len(emb)
    result = {}
    for k in ks:
        # no stock has n relevant neighbours, so capping k at n is exact
        ap = np.where(relevant > 0,
                      score[:, min(k, top.shape[1])] / np.minimum(min(k, n), np.maximum(relevant, 1)),
                      0.0)
        result[k] = float(np.cumsum(ap)[-1]) / n  # summed in query order
    return result


def theme_metric(emb: EmbeddingMatrix,
                 themes: Mapping[str, Sequence[int]]) -> tuple[float, dict[str, float]]:
    """Fraction of each member's size-of-theme nearest stocks that share its
    theme, averaged per theme and over themes.

    The query is excluded from retrieval, so a perfectly clustered theme of
    m members tops out at (m - 1) / m. No themes is a DataError: a mean over
    none has no value.
    """
    if not themes:
        raise DataError("theme_metric needs at least one theme, got none")
    theme_rows = []
    for name, members in themes.items():
        if len(members) < 2:
            raise DataError(f"theme {name!r} needs at least 2 members")
        member_of: dict = {}  # row -> the member that named it first
        missing = []
        for sid in members:
            try:
                row = emb.row_of(sid)
            except DataError:  # an unknown id, or a value of no id type
                missing.append(sid)
                continue
            if row in member_of:
                raise DataError(f"theme {name!r} names stock id {member_of[row]!r} twice")
            member_of[row] = sid
        if missing:
            raise DataError(f"theme {name!r} members missing from embeddings: {missing}")
        theme_rows.append((name, np.fromiter(member_of, dtype=np.intp, count=len(member_of))))
    top = emb.neighbor_rows(max(len(rows) for _, rows in theme_rows),
                            np.concatenate([rows for _, rows in theme_rows]))
    per_theme: dict[str, float] = {}
    is_member = np.zeros(len(emb), dtype=bool)
    start = 0
    for name, rows in theme_rows:
        m = len(rows)
        is_member[rows] = True
        per_theme[name] = np.count_nonzero(is_member[top[start:start + m, :m]]) / (m * m)
        is_member[rows] = False
        start += m
    overall = float(np.mean(list(per_theme.values())))
    return overall, per_theme


# ---------------------------------------------------------------------------
# model evaluation pipeline


def embed_universe(model, graph: StockGraph, records: Sequence[StockRecord],
                   ids: Sequence[int], direction: str | None = None) -> EmbeddingMatrix:
    """Embedding matrix for the given stocks, sampling each one's subgraph
    as the model was trained: ``model.config.directed``, and ``direction``,
    by default ``model.config.neighbor_direction``.

    ``records`` holds one record per graph node, stock ``m`` at position
    ``m``; the records the subgraphs read are checked.

    Two stages: the text stage runs once over the distinct members of the
    sampled subgraphs, encoding only the texts whose pooled rows the
    encoder's cache does not hold for its current parameters, so embedding
    in slices encodes each text once. Then the graph stage, and no head,
    runs once per batch of targets with the same number of text members:
    their rows are gathered into one [B, n, d] stack, at most
    ``TEXT_BATCH_TOKENS`` member rows per batch (a larger subgraph runs
    alone), and each target's row is written back in request order. Each
    row equals ``model.embed_stock``, bit for bit.

    A model without the residual path can emit an exactly-zero vector (its
    final ReLU saturates); such stocks collapse onto one shared fallback
    direction so cosine ranking stays defined.
    """
    ids = list(ids)
    if not ids:
        raise DataError("embed_universe needs at least one stock id, got an empty list")
    _index_ids(ids)
    direction = model.config.neighbor_direction if direction is None else direction
    subs = [sample_subgraph(graph, sid, direction, directed=model.config.directed) for sid in ids]
    members_of = [model.text_members(sub) for sub in subs]
    members = sorted({m for sub_members in members_of for m in sub_members})
    _require_records(records, graph, members)
    row_of = {m: i for i, m in enumerate(members)}
    vectors = np.empty((len(ids), model.dim))
    with no_grad():
        text = model.text_stage([records[m] for m in members])
        for batch in size_batches([len(sub_members) for sub_members in members_of]):
            rows = np.fromiter((row_of[m] for i in batch for m in members_of[i]), dtype=np.int64)
            h = take_rows(text, rows.reshape(len(batch), -1))
            vectors[batch] = model.graph_stage(h, [subs[i] for i in batch]).data[:, 0]
    zero = ~vectors.any(axis=1)
    vectors[zero] = 1.0
    if zero.any():
        logger.debug("%d of %d embeddings were all-zero; using the shared fallback direction",
                     np.count_nonzero(zero), len(ids))
    return EmbeddingMatrix(ids, vectors)


def evaluate_map(model, graph: StockGraph, records: Sequence[StockRecord],
                 ids: Sequence[int], ks: Sequence[int] = (5, 10, 50)) -> dict[str, dict[int, float]]:
    """MAP@k for both taxonomy levels over the given evaluation universe,
    each subgraph sampled as the model was trained (``embed_universe``)."""
    _require_ks(ks)
    emb = embed_universe(model, graph, records, ids)
    sector_labels = {r.stock_id: r.sector for r in records}
    industry_labels = {r.stock_id: r.industry for r in records}
    return {
        "topix17": map_at_k(emb, sector_labels, ks),
        "topix33": map_at_k(emb, industry_labels, ks),
    }


def format_map_table(rows: list[dict]) -> str:
    """Aligned-column rendering of ablation / evaluation rows, at least one."""
    metric_cols = []
    for level in ("topix17", "topix33"):
        for row in rows:
            for key in row.get(level, {}):
                col = (level, key)
                if col not in metric_cols:
                    metric_cols.append(col)
    config_cols = [k for k in rows[0] if k not in ("topix17", "topix33", "error")]
    header = config_cols + [f"{lvl}:{key}" for lvl, key in metric_cols] + ["error"]
    table = [header]
    for row in rows:
        cells = [str(row.get(c, "")) for c in config_cols]
        for lvl, key in metric_cols:
            value = row.get(lvl, {}).get(key)
            cells.append("" if value is None else f"{value:.3f}")
        cells.append(row.get("error", ""))
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    return "\n".join(lines)
