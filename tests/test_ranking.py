"""Neighbour ranking against the per-row oracle of ``rank_oracle``.

``EmbeddingMatrix.neighbor_rows`` ranks each block of queries from one
matrix product and re-ranks a row by its own matrix-vector product only
where two of its k + 1 largest similarities lie within the rounding margin.
These inputs plant such near-ties on purpose.
"""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from setn import evaluation
from setn.evaluation import EmbeddingMatrix

from rank_oracle import per_row_neighbor_rows

KINDS = ("random", "near-copies", "one-ulp", "duplicates", "integers", "overflow")


def _planted(kind, rng, n, d):
    """Random rows, half of them replaced by a kind of copy of another row."""
    vectors = rng.normal(size=(n, d))
    targets = rng.choice(n, size=n // 2, replace=False)
    sources = vectors[rng.integers(n, size=n // 2)]
    if kind == "near-copies":
        vectors[targets] = sources + 1e-14 * rng.normal(size=sources.shape)
    elif kind == "one-ulp":
        cols = rng.integers(d, size=len(targets))
        sources[np.arange(len(targets)), cols] = np.nextafter(
            sources[np.arange(len(targets)), cols], rng.choice([-np.inf, np.inf], len(targets)))
        vectors[targets] = sources
    elif kind == "duplicates":
        vectors[targets] = sources
    elif kind == "integers":
        vectors = np.round(2 * vectors)
        vectors[~vectors.any(axis=1)] = 1.0
    elif kind == "overflow":
        # squared entries overflow to inf or underflow to 0, so these rows
        # are normalized after scaling by their largest magnitude
        vectors[targets] = sources * rng.choice([1e200, 1e-170], size=(len(targets), 1))
    return vectors


def _ids(rng, n, mixed):
    """n distinct ids in shuffled order; with ``mixed``, some are strings."""
    picks = rng.permutation(3 * n)[:n]
    return [f"T{p}" if mixed and p % 2 else int(p) for p in picks]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 70), d=st.sampled_from([1, 3, 64]),
       mixed_ids=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(kind="near-copies", n=600, d=64, mixed_ids=True, seed=0)
@example(kind="one-ulp", n=600, d=64, mixed_ids=False, seed=1)
@example(kind="duplicates", n=600, d=8, mixed_ids=True, seed=2)
@example(kind="overflow", n=600, d=64, mixed_ids=False, seed=3)
def test_neighbor_rows_equal_the_per_row_oracle(kind, n, d, mixed_ids, seed):
    rng = np.random.default_rng(seed)
    vectors = _planted(kind, rng, n, d)
    ids = _ids(rng, n, mixed_ids)
    if n == 600:
        step = evaluation._RANK_BLOCK_BYTES // (8 * n)
        assert 1 < step < n and n % step, "want several blocks and a ragged last one"
    expected = per_row_neighbor_rows(EmbeddingMatrix(ids, vectors), n - 1)
    rows = rng.integers(n, size=min(n, 25))
    for k in (5, 50, n - 1):
        width = min(k, n - 1)
        # a fresh matrix each time, so no cached prefix serves the call
        assert np.array_equal(EmbeddingMatrix(ids, vectors).neighbor_rows(k), expected[:, :width])
        assert np.array_equal(EmbeddingMatrix(ids, vectors).neighbor_rows(k, rows),
                              expected[rows, :width])


@pytest.mark.parametrize("duplicated", [False, True])
def test_ranking_memory_stays_within_a_few_blocks(duplicated):
    # an n x n array of similarities would take 32 MB; with every row
    # duplicated, each query ranks by its per-row product
    n, d = 2000, 64
    vectors = np.random.default_rng(3).normal(size=(n, d))
    if duplicated:
        vectors[1::2] = vectors[::2]
    emb = EmbeddingMatrix(list(range(n)), vectors)
    tracemalloc.start()
    try:
        emb.neighbor_rows(50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * evaluation._RANK_BLOCK_BYTES


def test_ranking_logs_its_near_tie_rows_at_debug_only(caplog):
    vectors = np.random.default_rng(4).normal(size=(6, 3))
    vectors[1] = vectors[0]  # every other query sees rows 0 and 1 tie
    with caplog.at_level(logging.INFO, logger="setn.evaluation"):
        EmbeddingMatrix(list(range(6)), vectors).neighbor_rows(5)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="setn.evaluation"):
        EmbeddingMatrix(list(range(6)), vectors).neighbor_rows(5)
        EmbeddingMatrix(list(range(6)), vectors).neighbor_rows(4, [0, 2])
    assert [r.getMessage() for r in caplog.records] == [
        "4 of 6 ranked rows were near-ties, ranked by their per-row product",
        "1 of 2 ranked rows were near-ties, ranked by their per-row product"]
