"""Reference computations the benchmark checks ``setn`` outputs against.

Written with numpy only and independent of ``setn.evaluation``: cosine
ranking with the query excluded and ties broken by ascending stock id,
AP@k normalized by min(k, relevant), and the thematic-fund hit rate.
"""

from __future__ import annotations

import hashlib

import numpy as np


def param_digest(model) -> str:
    """SHA-256 over every parameter's name, shape and float64 bytes."""
    h = hashlib.sha256()
    for name, p in model.named_params():
        h.update(name.encode("utf-8"))
        h.update(repr(tuple(p.data.shape)).encode("ascii"))
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()


def array_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def rankings(ids: list, vectors: np.ndarray, queries) -> dict:
    """Neighbor rows of each query row, most similar first, ties by id."""
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    id_keys = np.asarray(ids)
    out = {}
    for q in queries:
        sims = unit @ unit[q]
        order = np.lexsort((id_keys, -sims))  # primary: -sims, then id
        out[q] = order[order != q]
    return out


def map_at_k(ids: list, vectors: np.ndarray, labels: np.ndarray, ks,
             ranked: dict) -> dict[int, float]:
    """Mean AP@k over every row; ``ranked`` comes from ``rankings``."""
    n = len(ids)
    max_k = max(ks)
    totals = {k: 0.0 for k in ks}
    counts = np.bincount(labels)
    for q in range(n):
        rel = (labels[ranked[q][:max_k]] == labels[q]).astype(np.float64)
        total_relevant = counts[labels[q]] - 1
        if total_relevant <= 0:
            continue
        precision = np.cumsum(rel) / np.arange(1, len(rel) + 1)
        for k in ks:
            totals[k] += float((precision[:k] * rel[:k]).sum()) / min(k, total_relevant)
    return {k: totals[k] / n for k in ks}


def theme_score(row_of: dict, themes, ranked: dict) -> float:
    """Mean over themes of the share of each member's top-m neighbors that
    are fellow members (m = theme size)."""
    scores = []
    for _, members in themes.items():
        m = len(members)
        rows = {row_of[sid] for sid in members}
        hits = sum(len(rows.intersection(ranked[r][:m].tolist())) for r in rows)
        scores.append(hits / (m * m))
    return float(np.mean(scores)) if scores else 0.0
