"""The per-row ranking oracle.

Each query's similarities are one matrix-vector product ``unit @ unit[r]``
over the matrix's unit rows. The query is left out, and the rest rank most
similar first, equal similarities by ascending id with every integer id
before every string id. ``EmbeddingMatrix.neighbor_rows`` ranks a block of
queries from one matrix product and must return exactly these rows.
"""

import numpy as np


def per_row_neighbor_rows(emb, k, rows=None):
    """Rows of each given row's (every row's by default) k nearest others,
    k capped at n - 1, as the per-row product ranks them."""
    unit = emb._unit
    n = len(unit)
    id_order = sorted(range(n), key=lambda i: (isinstance(emb.ids[i], str), emb.ids[i]))
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[id_order] = np.arange(n)
    rows = range(n) if rows is None else rows
    top = np.empty((len(rows), min(k, n - 1)), dtype=np.intp)
    for i, r in enumerate(rows):
        sims = unit @ unit[r]
        others = np.delete(np.arange(n), r)
        top[i] = others[np.lexsort((id_rank[others], -sims[others]))[:top.shape[1]]]
    return top
