import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setn import evaluation, training
from setn.data import GeneratorSpec, export_embeddings, generate_synthetic, load_embeddings
from setn.errors import DataError
from setn.evaluation import (EmbeddingMatrix, average_precision_at_k,
                             cosine_knn, embed_universe, evaluate_map,
                             format_map_table, map_at_k, theme_metric)
from setn.graph import sample_subgraphs
from setn.text import Vocab
from setn.training import (TrainConfig, build_model, prepare_graph, run_ablation,
                           split_records, train)


# ---------------------------------------------------------------------------
# brute-force oracles (independent code paths used for cross-checking)


def brute_knn(ids, vectors, query, k):
    qi = ids.index(query)
    scored = []
    for i, sid in enumerate(ids):
        if sid == query:
            continue
        num = float(np.dot(vectors[i], vectors[qi]))
        den = float(np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[qi]))
        scored.append((-(num / den), sid))
    scored.sort()
    return [sid for _, sid in scored[:k]]


def brute_ap(ranked_rel, total_relevant, k):
    if total_relevant == 0:
        return 0.0
    score = 0.0
    for i in range(1, min(k, len(ranked_rel)) + 1):
        if ranked_rel[i - 1]:
            prefix = ranked_rel[:i]
            score += sum(prefix) / i
    return score / min(k, total_relevant)


def brute_map(ids, vectors, labels, k):
    total = 0.0
    for q in ids:
        ranked = brute_knn(ids, vectors, q, len(ids) - 1)
        rel = [1 if labels[r] == labels[q] else 0 for r in ranked]
        relevant = sum(1 for other in ids if other != q and labels[other] == labels[q])
        total += brute_ap(rel, relevant, k)
    return total / len(ids)


def brute_theme(ids, vectors, themes):
    per_theme = {}
    for name, members in themes.items():
        m = len(members)
        hits = sum(1 for q in members for r in brute_knn(ids, vectors, q, m) if r in members)
        per_theme[name] = hits / (m * m)
    return per_theme


# ---------------------------------------------------------------------------
# cosine_knn


def test_identical_vector_ranks_first():
    emb = EmbeddingMatrix([0, 1, 2], np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert cosine_knn(emb, 0, 2) == [1, 2]
    sims = emb._unit @ emb._unit[0]
    assert sims[1] == pytest.approx(1.0)


def test_orthogonal_universe_breaks_ties_by_id():
    emb = EmbeddingMatrix([3, 1, 2], np.eye(3))
    assert cosine_knn(emb, 3, 2) == [1, 2]


def test_knn_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(0)
    ids = list(range(20))
    vectors = rng.normal(size=(20, 6))
    emb = EmbeddingMatrix(ids, vectors)
    for q in ids:
        assert cosine_knn(emb, q, 7) == brute_knn(ids, vectors, q, 7)


def test_knn_rejects_bad_queries():
    emb = EmbeddingMatrix([0, 1], np.eye(2))
    with pytest.raises(DataError):
        cosine_knn(emb, 9, 1)
    with pytest.raises(ValueError):
        cosine_knn(emb, 0, 2)


def test_knn_invariant_to_positive_scaling():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(10, 4))
    scales = rng.uniform(0.1, 50.0, size=(10, 1))
    a = EmbeddingMatrix(list(range(10)), vectors)
    b = EmbeddingMatrix(list(range(10)), vectors * scales)
    for q in range(10):
        assert cosine_knn(a, q, 5) == cosine_knn(b, q, 5)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_knn_ranks_rows_whose_norm_overflows_or_underflows_like_unscaled_rows(scale):
    # at 1e200 the squared entries overflow to inf, at 1e-170 they underflow to 0
    vectors = np.random.default_rng(0).normal(size=(6, 4))
    plain = EmbeddingMatrix(list(range(6)), vectors)
    scaled = EmbeddingMatrix(list(range(6)), vectors * scale)
    for q in range(6):
        assert cosine_knn(scaled, q, 5) == cosine_knn(plain, q, 5)
    assert np.allclose(scaled._unit, plain._unit, rtol=1e-15, atol=0)
    with pytest.raises(DataError, match=r"zero-norm embedding rows for ids \[2\]"):
        EmbeddingMatrix(list(range(3)), np.array([[scale, 0.0], [0.0, scale], [0.0, 0.0]]))


@pytest.mark.parametrize("fmt", ["tsv", "binary"])
def test_exported_numeric_and_alphabetic_tickers_rank_integers_before_strings(tmp_path, fmt):
    # numeric tickers load back as integers, beside the strings
    path = tmp_path / "emb"
    export_embeddings(["7203", "AAPL", "6758", "MSFT"], np.eye(4), path, fmt)
    ids, vectors = load_embeddings(path)
    assert ids == [7203, "AAPL", 6758, "MSFT"]
    emb = EmbeddingMatrix(ids, vectors)
    # every similarity ties at 0, so the id order 6758, 7203, "AAPL", "MSFT" ranks
    assert cosine_knn(emb, 7203, 3) == [6758, "AAPL", "MSFT"]
    assert cosine_knn(emb, "MSFT", 3) == [6758, 7203, "AAPL"]
    labels = {7203: "x", "AAPL": "x", 6758: "y", "MSFT": "y"}
    assert map_at_k(emb, labels, ks=(3,)) == {3: (0.5 + 0.5 + 1 / 3 + 1.0) / 4}


def test_embedding_matrix_validation():
    with pytest.raises(DataError):
        EmbeddingMatrix([0, 0], np.eye(2))
    with pytest.raises(DataError):
        EmbeddingMatrix([0, 1], np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DataError, match="no rows"):
        EmbeddingMatrix([], np.zeros((0, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="^the embedding of id 'B' holds a non-finite value$"):
            EmbeddingMatrix(["A", "B", "C"], [[1.0, 0.0], [bad, 1.0], [0.0, 1.0]])


def test_a_repeated_stock_id_is_named_by_the_first_id_that_occurs_again():
    message = r"^stock id {} appears more than once in embedding matrix$"
    with pytest.raises(DataError, match=message.format(5)):
        EmbeddingMatrix([1, 5, 2, 2, 5], np.eye(5) + 1)
    with pytest.raises(DataError, match=message.format("'AAPL'")):
        EmbeddingMatrix(["AAPL", 3, "AAPL"], np.eye(3))
    ds = _tiny_dataset()
    model = build_model(_tiny_config(), Vocab.build(r.text for r in ds.records), 2, 3)
    for call in (embed_universe, evaluate_map):
        with pytest.raises(DataError, match=message.format(3)):
            call(model, ds.graph, ds.records, [3, 3])


def _count_samples(monkeypatch) -> list:
    """Patch ``setn.evaluation.sample_subgraphs`` to log each target it samples."""
    sampled = []

    def counting(graph, targets, *args, **kwargs):
        sampled.extend(targets)
        return sample_subgraphs(graph, targets, *args, **kwargs)

    monkeypatch.setattr(evaluation, "sample_subgraphs", counting)
    return sampled


def test_a_repeated_id_is_refused_before_any_subgraph_is_sampled(monkeypatch):
    ds = _tiny_dataset()
    model = build_model(_tiny_config(), Vocab.build(r.text for r in ds.records), 2, 3)
    sampled = _count_samples(monkeypatch)
    for call in (embed_universe, evaluate_map):
        with pytest.raises(DataError, match="^stock id 3 appears more than once"):
            call(model, ds.graph, ds.records, [1, 3, 2, 3])
    assert sampled == []
    embed_universe(model, ds.graph, ds.records, [1, 3])
    assert sampled == [1, 3]


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, float("nan"), None, (1,)])
def test_a_stock_id_is_an_integer_or_a_string_never_a_bool_or_a_float(bad):
    # a dict finds stock 1 under True and 1.0, so every lookup refuses them first
    ids = [0, 1, 2, 3, 4, 5]
    emb = EmbeddingMatrix(ids, np.random.default_rng(8).normal(size=(6, 3)))
    emb.ranked_neighbors(1)  # cached under a key True and 1.0 would hit
    message = rf"^a stock id must be an integer or a string, got {re.escape(repr(bad))}$"
    for call in (lambda: EmbeddingMatrix([bad, 7], np.eye(2)),
                 lambda: emb.row_of(bad),
                 lambda: emb.ranked_neighbors(bad),
                 lambda: cosine_knn(emb, bad, 2)):
        with pytest.raises(DataError, match=message):
            call()
    with pytest.raises(DataError, match=r"^theme 't' members missing from embeddings: "):
        theme_metric(emb, {"t": (bad, 2)})


def test_numpy_integer_and_string_ids_find_their_rows():
    emb = EmbeddingMatrix([np.int64(3), "AAPL", 5], np.eye(3))
    assert emb.row_of(3) == 0 and emb.row_of(np.int32(5)) == 2
    assert emb.row_of(np.str_("AAPL")) == 1
    assert cosine_knn(emb, "AAPL", 2) == [3, 5]


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_ranking():
    assert average_precision_at_k([1, 1, 1], 3, 3) == 1.0


def test_ap_hand_enumeration():
    assert average_precision_at_k([1, 0, 1], 3, 3) == pytest.approx((1 + 2 / 3) / 3)


def test_ap_no_relevant_retrieved():
    assert average_precision_at_k([0, 0, 0], 7, 3) == 0.0


def test_ap_zero_relevant_pool():
    assert average_precision_at_k([0, 0], 0, 2) == 0.0


def test_ap_ignores_positions_beyond_k():
    base = average_precision_at_k([1, 0, 1], 3, 3)
    assert average_precision_at_k([1, 0, 1, 1, 1, 0], 3, 3) == base


def test_ap_reaches_one_when_pool_smaller_than_k():
    assert average_precision_at_k([1, 1, 0, 0, 0], 2, 5) == 1.0


def test_ap_rejects_bad_k():
    with pytest.raises(ValueError):
        average_precision_at_k([1], 1, 0)


@pytest.mark.parametrize("total", [float("nan"), -1, 1.5, True, "3"])
def test_ap_refuses_a_relevant_count_that_is_not_a_non_negative_integer(total):
    # min(3, nan) is 3 and nan <= 0 is false, so nan once scored 0.5556
    with pytest.raises(DataError, match=rf"^total_relevant must be an integer of at least 0, "
                                        rf"got {re.escape(repr(total))}$"):
        average_precision_at_k([1, 0, 1], total, 3)


# ---------------------------------------------------------------------------
# MAP@K


def test_clustered_embeddings_reach_map1():
    vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    labels = {0: "A", 1: "A", 2: "B", 3: "B"}
    emb = EmbeddingMatrix([0, 1, 2, 3], vectors)
    assert map_at_k(emb, labels, ks=(1,))[1] == 1.0


def test_single_label_universe_scores_one_for_all_k():
    rng = np.random.default_rng(2)
    emb = EmbeddingMatrix(list(range(9)), rng.normal(size=(9, 3)))
    labels = {i: "same" for i in range(9)}
    result = map_at_k(emb, labels, ks=(1, 3, 8))
    assert all(v == 1.0 for v in result.values())


def test_random_balanced_universe_matches_chance_oracle():
    # closed-form chance level for AP@5 under a random ranking with min(K, R)
    # normalization: (1/5) * sum_i p * (1 + (i - 1) p) / i, p = 99/199
    p = 99 / 199
    expected = sum(p * (1 + (i - 1) * p) / i for i in range(1, 6)) / 5
    scores = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 200
        emb = EmbeddingMatrix(list(range(n)), rng.normal(size=(n, 16)))
        labels = {i: i % 2 for i in range(n)}
        scores.append(map_at_k(emb, labels, ks=(5,))[5])
    assert abs(np.mean(scores) - expected) < 0.05


def test_map_requires_full_labels():
    emb = EmbeddingMatrix([0, 1], np.eye(2))
    with pytest.raises(DataError):
        map_at_k(emb, {0: "A"}, ks=(1,))


def test_map_matches_brute_force_on_small_universes():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        vectors = rng.normal(size=(n, 4))
        ids = list(range(n))
        emb = EmbeddingMatrix(ids, vectors)
        for bits in itertools.product([0, 1], repeat=n):
            labels = dict(zip(ids, bits))
            for k in (1, 3, n):
                mine = map_at_k(emb, labels, ks=(k,))[k]
                oracle = brute_map(ids, vectors, labels, k)
                assert abs(mine - oracle) < 1e-12


def test_map_stays_in_unit_interval():
    rng = np.random.default_rng(4)
    for seed in range(5):
        n = 30
        emb = EmbeddingMatrix(list(range(n)), rng.normal(size=(n, 5)))
        labels = {i: rng.integers(0, 4) for i in range(n)}
        for value in map_at_k(emb, labels, ks=(1, 5, 20)).values():
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# theme metric


def test_perfectly_clustered_theme_hits_self_exclusion_ceiling():
    rng = np.random.default_rng(5)
    m, n = 8, 60
    vectors = rng.normal(size=(n, 6))
    theme_members = list(range(m))
    direction = rng.normal(size=6)
    for i in theme_members:
        vectors[i] = direction + rng.normal(scale=1e-3, size=6)
    emb = EmbeddingMatrix(list(range(n)), vectors)
    overall, per_theme = theme_metric(emb, {"t": tuple(theme_members)})
    assert overall == pytest.approx((m - 1) / m)
    assert per_theme["t"] == overall


def test_antipodal_pair_scores_zero():
    rng = np.random.default_rng(6)
    vectors = rng.normal(size=(100, 5))
    vectors[0] = [10.0, 0, 0, 0, 0]
    vectors[1] = [-10.0, 0, 0, 0, 0]
    emb = EmbeddingMatrix(list(range(100)), vectors)
    _, per_theme = theme_metric(emb, {"pair": (0, 1)})
    assert per_theme["pair"] == 0.0


def test_random_theme_metric_matches_chance_level():
    # universe 489, theme size 16: chance is about 15/488
    values = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        emb = EmbeddingMatrix(list(range(489)), rng.normal(size=(489, 16)))
        _, per_theme = theme_metric(emb, {"t": tuple(range(16))})
        values.append(per_theme["t"])
    assert abs(np.mean(values) - 15 / 488) < 0.02


def test_theme_metric_invariant_to_uniform_scaling():
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(40, 5))
    themes = {"a": tuple(range(6)), "b": tuple(range(10, 18))}
    a = theme_metric(EmbeddingMatrix(list(range(40)), vectors), themes)
    b = theme_metric(EmbeddingMatrix(list(range(40)), vectors * 37.5), themes)
    assert a == b


def test_theme_metric_of_no_themes_is_a_data_error():
    # a mean over no themes has no value; eval-theme refuses an empty set first
    with pytest.raises(DataError, match="at least one theme"):
        theme_metric(EmbeddingMatrix([0, 1, 2], np.eye(3)), {})


def test_theme_metric_missing_member_is_error():
    emb = EmbeddingMatrix([0, 1, 2], np.eye(3))
    with pytest.raises(DataError):
        theme_metric(emb, {"t": (0, 99)})


@pytest.mark.parametrize("members, repeated", [((1, 2, 2, 3), 2), ((1, 2, np.int64(2)), 2)])
def test_theme_metric_refuses_a_member_named_twice(members, repeated):
    emb = EmbeddingMatrix(list(range(6)), np.random.default_rng(8).normal(size=(6, 3)))
    with pytest.raises(DataError, match=rf"^theme 't' names stock id {repeated} twice$"):
        theme_metric(emb, {"t": members})


# ---------------------------------------------------------------------------
# blocked ranking against the oracles


def _tied_universe(rng, n, d, duplicates, fallbacks):
    """Random rows where some rows copy others and some are the all-ones
    fallback direction, so exact similarity ties are common."""
    vectors = rng.normal(size=(n, d))
    for _ in range(duplicates):
        vectors[rng.integers(n)] = vectors[rng.integers(n)]
    vectors[rng.choice(n, size=min(fallbacks, n), replace=False)] = 1.0
    return vectors


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), d=st.integers(1, 5), duplicates=st.integers(0, 12),
       fallbacks=st.integers(0, 6), string_labels=st.booleans(),
       n_labels=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       ks=st.lists(st.integers(1, 45), min_size=1, max_size=3, unique=True))
def test_blocked_ranking_matches_brute_force_oracles(n, d, duplicates, fallbacks,
                                                     string_labels, n_labels, seed, ks):
    rng = np.random.default_rng(seed)
    vectors = _tied_universe(rng, n, d, duplicates, fallbacks)
    ids = [int(i) for i in rng.permutation(3 * n)[:n]]
    labels = {sid: int(rng.integers(n_labels)) for sid in ids}
    if string_labels:
        labels = {sid: f"label-{v}" for sid, v in labels.items()}
    emb = EmbeddingMatrix(ids, vectors)
    got = map_at_k(emb, labels, ks)
    for k in ks:
        assert abs(got[k] - brute_map(ids, vectors, labels, k)) < 1e-12
    for q in ids:
        for k in {0, min(3, n - 1), n - 1}:
            assert cosine_knn(emb, q, k) == brute_knn(ids, vectors, q, k)
    if n >= 2:
        themes = {"a": tuple(ids[:max(2, n // 2)]), "b": tuple(ids[-2:])}
        expected = brute_theme(ids, vectors, themes)
        # served by the cached prefix of map_at_k and ranked afresh
        assert theme_metric(emb, themes)[1] == expected
        assert theme_metric(EmbeddingMatrix(ids, vectors), themes)[1] == expected


def _per_query_map(ids, vectors, labels, ks):
    """The per-query MAP@K this module computed before ranking in blocks:
    a stable argsort over id-ascending rows, then AP by a Python loop."""
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    base_order = sorted(range(len(ids)), key=lambda i: ids[i])
    rankings = []
    totals = {k: 0.0 for k in ks}
    for row, sid in enumerate(ids):
        sims = unit @ unit[row]
        base = [i for i in base_order if i != row]
        ranked = [ids[base[j]] for j in np.argsort(-sims[base], kind="stable")]
        rankings.append(ranked)
        total_relevant = sum(1 for other in ids if other != sid and labels[other] == labels[sid])
        rel = [1 if labels[other] == labels[sid] else 0 for other in ranked[:max(ks)]]
        for k in ks:
            totals[k] += average_precision_at_k(rel, total_relevant, k)
    return {k: totals[k] / len(ids) for k in ks}, rankings


def test_blocked_map_equals_per_query_map_exactly():
    n = 600
    step = evaluation._RANK_BLOCK_BYTES // (8 * n)
    assert 1 < step < n and n % step, "want several blocks and a ragged last one"
    rng = np.random.default_rng(11)
    vectors = _tied_universe(rng, n, 16, duplicates=120, fallbacks=20)
    # near-copies whose similarities differ only in the last bits, so the
    # ranking must round exactly as the per-query product did
    for row in rng.choice(n, size=120, replace=False):
        vectors[row] = vectors[rng.integers(n)] * (1 + 1e-15 * rng.normal(size=16))
    ids = [int(i) for i in rng.permutation(5 * n)[:n]]
    sectors = {sid: int(rng.integers(17)) for sid in ids}
    industries = {sid: f"industry-{rng.integers(33)}" for sid in ids}
    emb = EmbeddingMatrix(ids, vectors)
    for labels in (sectors, industries):
        expected, rankings = _per_query_map(ids, vectors, labels, (5, 10, 50))
        assert map_at_k(emb, labels, (5, 10, 50)) == expected
    top = emb.neighbor_rows(50)
    assert [[ids[i] for i in row] for row in top] == [ranked[:50] for ranked in rankings]


def test_ranked_neighbors_lists_every_other_id_after_a_short_prefix_is_cached():
    rng = np.random.default_rng(12)
    n = 30
    vectors = _tied_universe(rng, n, 4, duplicates=5, fallbacks=3)
    ids = list(range(n))
    emb = EmbeddingMatrix(ids, vectors)
    map_at_k(emb, {i: i % 3 for i in ids}, ks=(5,))
    for q in ids:
        assert emb.ranked_neighbors(q) == brute_knn(ids, vectors, q, n - 1)


def test_map_rejects_k_below_one():
    emb = EmbeddingMatrix([0, 1], np.eye(2))
    with pytest.raises(ValueError):
        map_at_k(emb, {0: "A", 1: "A"}, ks=(0,))
    with pytest.raises(ValueError):
        map_at_k(emb, {0: "A", 1: "A"}, ks=(3, -1))


@pytest.mark.parametrize("k", [-1, 2.5, float("nan"), float("inf"), True, "3"])
def test_every_ranking_refuses_a_k_that_is_not_an_integer_naming_it(k):
    emb = EmbeddingMatrix(list(range(6)), np.random.default_rng(9).normal(size=(6, 3)))
    emb.neighbor_rows(3)  # with this prefix cached, k=-1 used to return 2 columns
    labels = {i: i % 2 for i in range(6)}
    for least, call in ((0, lambda: emb.neighbor_rows(k)),
                        (0, lambda: cosine_knn(emb, 0, k)),
                        (1, lambda: map_at_k(emb, labels, [5, k])),
                        (1, lambda: average_precision_at_k([1, 0, 1], 2, k))):
        with pytest.raises(DataError, match=rf"^k must be an integer of at least {least}, "
                                            rf"got {re.escape(repr(k))}$"):
            call()


@pytest.mark.parametrize("rows", [[1.5], [True], [-1], [5], [0, None], ["1"], [np.int64(9)],
                                  np.array([-1]), np.array([5], dtype=np.uint8),
                                  np.array([True]), np.array([1.0]), np.array([[1]])])
@pytest.mark.parametrize("cached", [False, True])
def test_neighbor_rows_refuses_a_row_that_is_not_an_integer_in_range_naming_it(rows, cached):
    # [1.5] and [True] once ranked row 1 on a fresh matrix and raised numpy's
    # IndexError on a cached one; [-1] ranked the last row on both
    emb = EmbeddingMatrix(list(range(5)), np.random.default_rng(11).normal(size=(5, 3)))
    if cached:
        emb.neighbor_rows(4)
    with pytest.raises(DataError, match=r"^row must be an integer in \[0, 4\], got "):
        emb.neighbor_rows(2, rows)


@pytest.mark.parametrize("rows", [3, np.int64(3), np.array(3)])
def test_neighbor_rows_refuses_rows_that_are_no_sequence(rows):
    emb = EmbeddingMatrix(list(range(5)), np.random.default_rng(11).normal(size=(5, 3)))
    with pytest.raises(DataError, match=r"^rows must be a sequence of rows, got "):
        emb.neighbor_rows(2, rows)


def test_neighbor_rows_take_integer_rows_of_any_integer_type():
    emb = EmbeddingMatrix(list(range(5)), np.random.default_rng(11).normal(size=(5, 3)))
    expected = emb.neighbor_rows(2)[[4, 0]]
    for rows in ([4, 0], [np.int8(4), np.uint64(0)], np.array([4, 0], dtype=np.uint16)):
        assert np.array_equal(EmbeddingMatrix(emb.ids, emb.vectors).neighbor_rows(2, rows),
                              expected)
        assert np.array_equal(emb.neighbor_rows(2, rows), expected)
    assert emb.neighbor_rows(2, []).shape == (0, 2)


def test_map_refuses_an_empty_list_of_ks():
    emb = EmbeddingMatrix([0, 1], np.eye(2))
    with pytest.raises(DataError, match="needs at least one k"):
        map_at_k(emb, {0: "A", 1: "A"}, ks=[])


def test_a_k_past_n_minus_one_ranks_as_n_minus_one():
    rng = np.random.default_rng(10)
    n = 12
    emb = EmbeddingMatrix(list(range(n)), rng.normal(size=(n, 4)))
    labels = {i: i % 3 for i in range(n)}
    got = map_at_k(emb, labels, [n - 1, n, 10**30, np.int64(n + 5)])
    assert len(set(got.values())) == 1
    assert got[n - 1] == brute_map(list(range(n)), emb.vectors, labels, n - 1)
    assert emb.neighbor_rows(10**30).shape == (n, n - 1)
    assert emb.neighbor_rows(np.int64(2), [0]).shape == (1, 2)


# ---------------------------------------------------------------------------
# model evaluation pipeline


def test_evaluate_map_samples_in_the_models_neighbor_direction():
    spec = GeneratorSpec(n=60, sectors=3, industries=5, vocab_size=80, tokens_per_doc=6,
                         avg_degree=4, graph_signal=0.8, text_signal=0.5,
                         direction_signal=1.0, seed=3)
    ds = generate_synthetic(spec)
    config = TrainConfig(hidden_dim=8, encoder_depth=1, max_tokens=8, seed=3,
                         neighbor_direction="out")
    model = build_model(config, Vocab.build(r.text for r in ds.records),
                        n_sectors=3, n_industries=5)
    g = prepare_graph(ds.graph, config)
    ids = [r.stock_id for r in ds.records]
    expected = embed_universe(model, g, ds.records, ids, "out")
    assert not np.array_equal(expected.vectors,
                              embed_universe(model, g, ds.records, ids, "in").vectors)
    assert evaluate_map(model, g, ds.records, ids, ks=(5, 10)) == {
        "topix17": map_at_k(expected, {r.stock_id: r.sector for r in ds.records}, (5, 10)),
        "topix33": map_at_k(expected, {r.stock_id: r.industry for r in ds.records}, (5, 10)),
    }


def test_embed_universe_samples_in_the_models_neighbor_direction_by_default():
    # the default was once "in", whatever direction the model was trained in
    ds = generate_synthetic(GeneratorSpec(n=60, sectors=3, industries=5, vocab_size=80,
                                          tokens_per_doc=6, avg_degree=4, graph_signal=0.8,
                                          text_signal=0.5, direction_signal=1.0, seed=3))
    config = TrainConfig(hidden_dim=8, encoder_depth=1, max_tokens=8, seed=3,
                         neighbor_direction="out")
    model = build_model(config, Vocab.build(r.text for r in ds.records), 3, 5)
    ids = [r.stock_id for r in ds.records]
    assert np.array_equal(embed_universe(model, ds.graph, ds.records, ids).vectors,
                          embed_universe(model, ds.graph, ds.records, ids, "out").vectors)


def test_an_undirected_model_scores_the_raw_graph_as_the_symmetrized_one():
    # the raw graph once scored 0.411/0.479 here, against 0.406/0.490
    # symmetrized, and nothing was raised
    ds = generate_synthetic(GeneratorSpec(n=120, seed=3))
    config = TrainConfig(seed=3, epochs=2, directed=False)
    model = build_model(config, Vocab.build(r.text for r in ds.records),
                        ds.taxonomy.n_sectors, ds.taxonomy.n_industries)
    split = split_records(ds.records, config)
    train(model, ds.graph, ds.records, split, config)
    assert (evaluate_map(model, ds.graph, ds.records, split.test)
            == evaluate_map(model, prepare_graph(ds.graph, config), ds.records, split.test))


# ---------------------------------------------------------------------------
# ablation runner


def _tiny_dataset(seed=0):
    spec = GeneratorSpec(n=30, sectors=2, industries=3, vocab_size=60,
                         tokens_per_doc=6, avg_degree=3, graph_signal=0.8,
                         text_signal=0.9, theme_count=2, seed=seed)
    return generate_synthetic(spec)


def _tiny_config():
    return TrainConfig(epochs=1, hidden_dim=8, encoder_depth=1, seed=0, max_tokens=8)


def test_ablation_graph_type_axis_has_two_rows():
    rows = run_ablation(_tiny_dataset(), _tiny_config(), ["graph_type"], ks=(3,))
    assert len(rows) == 2
    assert [r["graph_type"] for r in rows] == ["directed", "undirected"]
    for row in rows:
        assert "topix17" in row and "topix33" in row


def test_ablation_is_deterministic():
    a = run_ablation(_tiny_dataset(), _tiny_config(), ["residual"], ks=(3,))
    b = run_ablation(_tiny_dataset(), _tiny_config(), ["residual"], ks=(3,))
    assert a == b


def test_ablation_grid_is_cartesian():
    rows = run_ablation(_tiny_dataset(), _tiny_config(),
                        ["graph_type", "residual"], ks=(3,))
    assert len(rows) == 4
    assert {(r["graph_type"], r["residual"]) for r in rows} == {
        ("directed", True), ("directed", False),
        ("undirected", True), ("undirected", False),
    }


@pytest.mark.parametrize("ks", [(0,), (5, 1.5), ()])
def test_a_bad_k_is_refused_before_any_training_or_embedding(monkeypatch, ks):
    ds = _tiny_dataset()
    model = build_model(_tiny_config(), Vocab.build(r.text for r in ds.records), 2, 3)
    sampled = _count_samples(monkeypatch)
    trained = []
    monkeypatch.setattr(training, "train", lambda *args: trained.append(args))
    message = "^map_at_k needs at least one k" if not ks else "^k must be an integer of at least 1"
    with pytest.raises(DataError, match=message):
        evaluate_map(model, ds.graph, ds.records, [0, 1, 2], ks)
    with pytest.raises(DataError, match=message):
        run_ablation(ds, _tiny_config(), ["residual", "gnn_kind"], ks=ks)
    assert sampled == [] and trained == []


def test_ablation_rejects_unknown_axis():
    with pytest.raises(ValueError):
        run_ablation(_tiny_dataset(), _tiny_config(), ["phase_of_moon"])


@pytest.mark.filterwarnings("ignore:overflow")
def test_ablation_annotates_failed_cells():
    # a learning rate this absurd overflows float64 on the next forward pass
    config = TrainConfig(epochs=1, hidden_dim=8, encoder_depth=1, seed=0,
                         max_tokens=8, learning_rate=1e160)
    rows = run_ablation(_tiny_dataset(), config, ["residual"], ks=(3,))
    assert len(rows) == 2
    for row in rows:
        assert "error" in row
        assert "topix17" not in row


def test_format_map_table_aligns_rows():
    rows = [{"graph_type": "directed", "topix17": {"map@5": 0.5}, "topix33": {"map@5": 0.25}}]
    text = format_map_table(rows)
    lines = text.split("\n")
    assert len(lines) == 2
    assert "topix17:map@5" in lines[0]
    assert "0.500" in lines[1]
