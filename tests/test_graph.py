import re

import numpy as np
import pytest

from setn.autodiff import Tensor
from setn.data import GeneratorSpec, generate_synthetic
from setn.errors import DataError, ShapeError
from setn import graph as graph_module
from setn.graph import (GnnParams, StockGraph, Subgraph, _adjacency, gat_attention,
                        gat_layer, gcn_layer, gcn_normalize, init_gnn_params,
                        sample_subgraph, sample_subgraphs, to_undirected)

from gradcheck import grad_check_params
from op_by_op import sum_all


@pytest.mark.parametrize("n_nodes, edges, message", [
    # each of these endpoints was once turned into a node id with int()
    (3, ((0, 1.5),), "node id in edge (0, 1.5) must be an integer in [0, 2], got 1.5"),
    (3, ((True, 2),), "node id in edge (True, 2) must be an integer in [0, 2], got True"),
    (3, (("1", 2),), "node id in edge ('1', 2) must be an integer in [0, 2], got '1'"),
    (2.5, (), "n_nodes must be an integer of at least 0, got 2.5"),
    (-1, (), "n_nodes must be an integer of at least 0, got -1"),
    (True, (), "n_nodes must be an integer of at least 0, got True"),
])
def test_graph_refuses_a_node_id_that_is_not_an_integer(n_nodes, edges, message):
    with pytest.raises(DataError) as exc:
        StockGraph(n_nodes, edges)
    assert str(exc.value) == message


@pytest.mark.parametrize("edges, message", [
    # each once ended in a Python error from unpacking the edge as s, d
    (((0, 1, 2),), "edge (0, 1, 2) must be a pair of node ids"),
    ((5,), "edge 5 must be a pair of node ids"),
    (((0, 1), (2,)), "edge (2,) must be a pair of node ids"),
    # an edge iterator is read once, so the check sees the edge it refuses
    (iter([(0, 1), (1, 2, 0)]), "edge (1, 2, 0) must be a pair of node ids"),
])
def test_graph_refuses_an_edge_that_is_not_a_pair_naming_it(edges, message):
    with pytest.raises(DataError) as exc:
        StockGraph(3, edges)
    assert str(exc.value) == message


def test_graph_stores_numpy_node_ids_as_ints():
    g = StockGraph(np.int64(3), ((np.int64(0), np.int32(1)), [2, np.uint8(1)]))
    assert (g.n_nodes, g.edges) == (3, ((0, 1), (2, 1)))
    assert {type(x) for x in (g.n_nodes, *g.edges[0], *g.edges[1])} == {int}
    # an edge iterator once built a graph with no edges
    assert StockGraph(3, iter([(0, 1), (1, 2)])).edges == ((0, 1), (1, 2))


def test_graph_validation():
    with pytest.raises(DataError):
        StockGraph(2, ((0, 2),))
    with pytest.raises(DataError):
        StockGraph(2, ((0, 0),))
    with pytest.raises(DataError):
        StockGraph(2, ((0, 1), (0, 1)))


@pytest.mark.parametrize("edges, message", [
    (((0, 1), (1, 1), (0, 9), (0, 1)),
     "self-loop on node 1; layers insert self-loops themselves"),
    (((0, 1), (0, 9), (1, 1), (0, 1)), "edge (0, 9) outside node range [0, 3)"),
    (((0, 1), (2, 0), (0, 1), (1, 1), (0, 9)), "duplicate edge (0, 1)"),
    (((1, 2), (-1, 0), (1, 2)), "edge (-1, 0) outside node range [0, 3)"),
    # a repeated out-of-range edge is out of range first
    (((0, 9), (0, 9)), "edge (0, 9) outside node range [0, 3)"),
    (((2, 1), (1, 2), (0, 2**70), (2, 1)), f"edge (0, {2**70}) outside node range [0, 3)"),
    (((0, 1), (2, 2**70), (2**70, 2**70)), f"edge (2, {2**70}) outside node range [0, 3)"),
    (((2, 1), (2, 0), (2, 1), (0, 0), (2, 0)), "duplicate edge (2, 1)"),
    (((1, 0), (2, 1), (0, 2), (2, 2)), "self-loop on node 2; layers insert self-loops themselves"),
])
def test_graph_names_the_first_bad_edge_in_input_order(edges, message):
    # several bad edges of mixed kinds: the message names the earliest, by its kind
    with pytest.raises(DataError) as exc:
        StockGraph(3, edges)
    assert str(exc.value) == message


def test_to_undirected_symmetrizes():
    g = to_undirected(StockGraph(2, ((0, 1),)))
    assert set(g.edges) == {(0, 1), (1, 0)}
    assert {(d, s) for s, d in g.edges} == set(g.edges)


def test_to_undirected_idempotent_on_symmetric_graph():
    g = StockGraph(3, ((0, 1), (1, 0), (1, 2), (2, 1)))
    assert set(to_undirected(g).edges) == set(g.edges)


def test_symmetrizing_never_decreases_edge_count():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 100
        edges = set()
        for _ in range(rng.integers(50, 300)):
            s, d = rng.integers(n, size=2)
            if s != d:
                edges.add((int(s), int(d)))
        g = StockGraph(n, tuple(sorted(edges)))
        assert len(to_undirected(g).edges) >= len(g.edges)


# ---------------------------------------------------------------------------
# subgraph sampling


def test_sample_chain_directed_uses_in_neighbors():
    g = StockGraph(3, ((0, 1), (1, 2)))  # a->b->c
    sub = sample_subgraph(g, 1)
    assert sub.members == (1, 0)
    assert sub.edges == ((1, 0),)  # a->b in local indices


def test_sample_chain_undirected_takes_both_sides():
    g = to_undirected(StockGraph(3, ((0, 1), (1, 2))))
    sub = sample_subgraph(g, 1)
    assert sub.members == (1, 0, 2)


def test_sample_isolated_node():
    g = StockGraph(3, ((0, 1),))
    sub = sample_subgraph(g, 2)
    assert sub.members == (2,)
    assert sub.edges == ()


def test_sample_out_direction_switch():
    g = StockGraph(3, ((0, 1), (1, 2)))
    sub = sample_subgraph(g, 1, direction="out")
    assert sub.members == (1, 2)


_UNDIRECTED_CASES = {
    **{f"synthetic n={n} seed={seed}": (lambda n=n, seed=seed: generate_synthetic(
        GeneratorSpec(n=n, seed=seed)).graph) for n in (300, 2000) for seed in range(3)},
    "hub": lambda: StockGraph(7, ((0, 1), (0, 2), (0, 3), (4, 0), (5, 0), (1, 2))),
    "ring": lambda: StockGraph(6, tuple((i, (i + 1) % 6) for i in range(6))),
    "isolated nodes": lambda: StockGraph(5, ((0, 1), (1, 2))),
    # u -> v and v -> u both: the symmetric closure must hold each edge once
    "both ways": lambda: StockGraph(4, ((0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (0, 2))),
}


@pytest.mark.parametrize("case", sorted(_UNDIRECTED_CASES))
def test_undirected_sampling_equals_sampling_the_symmetrized_graph(case):
    g = _UNDIRECTED_CASES[case]()
    sym = to_undirected(g)
    for target in range(g.n_nodes):
        sub = sample_subgraph(g, target, directed=False)
        for direction in ("in", "out"):
            assert sample_subgraph(sym, target, direction) == sub
            # the flag on either graph, in either direction, samples the same
            assert sample_subgraph(g, target, direction, directed=False) == sub
            assert sample_subgraph(sym, target, direction, directed=False) == sub


def _walk_sampler(g):
    """The per-target sampler that ``sample_subgraphs`` replaced, kept as its
    oracle: adjacency lists in edge order, and for each target a dict of local
    indices and a walk over every member's out-edges."""
    out_adj = [[] for _ in range(g.n_nodes)]
    in_adj = [[] for _ in range(g.n_nodes)]
    for s, d in g.edges:
        out_adj[s].append(d)
        in_adj[d].append(s)

    def sample(target, direction, directed):
        near = ((in_adj[target] if direction == "in" else out_adj[target]) if directed
                else {*in_adj[target], *out_adj[target]})
        members = (target, *sorted(near))
        index = {node: i for i, node in enumerate(members)}
        local = [(index[u], index[v]) for u in members for v in out_adj[u] if v in index]
        if not directed:
            local = {*local, *((v, u) for u, v in local)}
        return Subgraph(target, members, tuple(sorted(local)))

    return sample


@pytest.mark.parametrize("case", sorted(_UNDIRECTED_CASES))
@pytest.mark.parametrize("direction, directed", [("in", True), ("out", True), ("in", False),
                                                  ("out", False)])
def test_the_batched_sampler_equals_the_list_walk_for_every_target(case, direction, directed):
    g = _UNDIRECTED_CASES[case]()
    walk = _walk_sampler(g)
    targets = list(range(g.n_nodes))
    expected = [walk(t, direction, directed) for t in targets]
    # every target at once, a shuffled part, and one at a time
    part = np.random.default_rng(g.n_nodes).permutation(g.n_nodes)[:g.n_nodes // 2 + 1].tolist()
    for order in (targets, part):
        hoods = sample_subgraphs(g, order, direction, directed=directed)
        subs = hoods.subgraphs()
        assert subs == [expected[t] for t in order]
        assert np.array_equal(hoods.members, [m for sub in subs for m in sub.members])
        assert np.array_equal(np.diff(hoods.offsets), [sub.size for sub in subs])
        assert list(zip(hoods.sub.tolist(), hoods.src.tolist(), hoods.dst.tolist())) == [
            (i, s, d) for i, sub in enumerate(subs) for s, d in sub.edges]
        # the adjacency of a batch of one member count is the one its subgraphs give
        by_size = {}
        for i, sub in enumerate(subs):
            by_size.setdefault(sub.size, []).append(i)
        for batch in by_size.values():
            assert np.array_equal(hoods.adjacency(batch), _adjacency([subs[i] for i in batch]))
    for t in targets:
        assert sample_subgraph(g, t, direction, directed=directed) == expected[t]


def test_the_batched_sampler_bounds_its_table_by_blocks_of_targets(monkeypatch):
    # a table of (subgraph, node) entries per block: blocks of one and of three
    # subgraphs find the edges that one block for every target finds
    g = _UNDIRECTED_CASES["synthetic n=300 seed=1"]()
    targets = list(range(g.n_nodes))
    whole = sample_subgraphs(g, targets, directed=False).subgraphs()
    for entries in (1, 3 * g.n_nodes):
        monkeypatch.setattr(graph_module, "_TABLE_ENTRIES", entries)
        assert sample_subgraphs(g, targets, directed=False).subgraphs() == whole


def test_sample_target_out_of_range():
    with pytest.raises(DataError):
        sample_subgraph(StockGraph(2, ()), 5)


@pytest.mark.parametrize("target", [1.5, 1.0, True, False, "1", None, float("nan")])
def test_sample_target_must_be_an_integer_never_a_bool(target):
    # 1.5 once failed with a TypeError, and True sampled stock 1 as target True
    with pytest.raises(DataError, match=rf"^target node must be an integer in \[0, 2\], got "
                                        rf"{re.escape(repr(target))}$"):
        sample_subgraph(StockGraph(3, ((0, 1), (1, 2))), target)


def test_sample_target_may_be_a_numpy_integer():
    g = StockGraph(3, ((0, 1), (1, 2)))
    assert sample_subgraph(g, np.int64(1)) == sample_subgraph(g, 1)


def test_sample_includes_edges_between_neighbors():
    g = StockGraph(3, ((0, 2), (1, 2), (0, 1)))
    sub = sample_subgraph(g, 2)
    assert sub.members == (2, 0, 1)
    # local: 2->0, 0->1, 1->2 means (1,0), (2,0), (1,2)
    assert set(sub.edges) == {(1, 0), (2, 0), (1, 2)}


# ---------------------------------------------------------------------------
# the adjacency with self-loops, checked against a loop over the edges


def _loop_adjacency(subs):
    n = subs[0].size
    a = np.zeros((len(subs), n, n))
    for b, sub in enumerate(subs):
        for i in range(n):
            a[b, i, i] = 1.0
        for s, d in sub.edges:
            a[b, d, s] = 1.0
    return a


def _random_subgraph(rng, n, p):
    members = tuple(int(m) for m in rng.choice(100, n, replace=False))
    edges = tuple((s, d) for s in range(n) for d in range(n) if s != d and rng.random() < p)
    return Subgraph(members[0], members, edges)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_adjacency_equals_a_loop_over_the_edges(n):
    rng = np.random.default_rng(n)
    for trial in range(30):
        # each stack starts with an edgeless subgraph; the first trials hold no edge at all
        p = 0.0 if trial < 3 else rng.choice([0.2, 0.6])
        subs = [_random_subgraph(rng, n, p if i else 0.0) for i in range(rng.integers(1, 8))]
        expected = _loop_adjacency(subs)
        assert np.array_equal(_adjacency(subs), expected), (n, trial)
        assert np.array_equal(_adjacency(tuple(subs)), expected), (n, trial)
        alone = _adjacency(subs[-1])
        assert alone.shape == (n, n) and np.array_equal(alone, expected[-1]), (n, trial)


# ---------------------------------------------------------------------------
# GCN normalization, checked against dense hand computations


def test_gcn_normalize_single_node():
    sub = Subgraph(target=0, members=(0,), edges=())
    assert np.array_equal(gcn_normalize(sub).data, [[1.0]])


def test_gcn_normalize_two_node_hand_oracle():
    # edge u->v with rows ordered (u, v): A_hat=[[1,0],[1,1]], D=diag(1,2)
    sub = Subgraph(target=0, members=(0, 1), edges=((0, 1),))
    expected = np.array([[1.0, 0.0], [1.0 / np.sqrt(2.0), 0.5]])
    assert np.max(np.abs(gcn_normalize(sub).data - expected)) < 1e-10


def test_gcn_normalize_regular_graphs_rows_sum_to_one():
    # symmetric graphs with all degrees equal: a 4-cycle and a complete triangle
    cycle = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3))
    triangle = ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))
    for n, edges in ((4, cycle), (3, triangle)):
        sub = Subgraph(target=0, members=tuple(range(n)), edges=edges)
        sums = gcn_normalize(sub).data.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_gcn_normalize_symmetric_graph_gives_symmetric_matrix():
    edges = ((0, 1), (1, 0), (1, 2), (2, 1))
    sub = Subgraph(target=0, members=(0, 1, 2), edges=edges)
    norm = gcn_normalize(sub).data
    assert np.max(np.abs(norm - norm.T)) < 1e-12


# ---------------------------------------------------------------------------
# GCN layer


def _params(dim, seed=0, attention=False):
    return init_gnn_params(dim, np.random.default_rng(seed), with_attention=attention)


def test_gcn_layer_isolated_node_is_relu():
    sub = Subgraph(target=0, members=(0,), edges=())
    p = GnnParams(Tensor(np.eye(2), requires_grad=True),
                  Tensor(np.zeros(2), requires_grad=True))
    out = gcn_layer(Tensor([[1.0, -2.0]]), sub, p)
    assert np.array_equal(out.data, [[1.0, 0.0]])


def test_gcn_layer_two_node_hand_oracle():
    sub = Subgraph(target=0, members=(0, 1), edges=((0, 1),))
    p = GnnParams(Tensor([[1.0]], requires_grad=True), Tensor([0.0], requires_grad=True))
    out = gcn_layer(Tensor([[1.0], [1.0]]), sub, p)
    expected = np.array([[1.0], [1.0 / np.sqrt(2.0) + 0.5]])
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_gcn_layer_edgeless_subgraph_is_rowwise_affine_relu():
    rng = np.random.default_rng(1)
    sub = Subgraph(target=0, members=(0, 1, 2), edges=())
    h = rng.normal(size=(3, 4))
    p = _params(4, seed=2)
    out = gcn_layer(Tensor(h), sub, p)
    expected = np.maximum(h @ p.weight.data + p.bias.data, 0.0)
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_gcn_layer_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    sub = Subgraph(target=0, members=(0, 1, 2, 3),
                   edges=((1, 0), (2, 0), (3, 2), (1, 2)))
    h = Tensor(rng.normal(size=(4, 3)) + 0.5, requires_grad=True)
    p = _params(3, seed=7)

    err = grad_check_params(lambda: sum_all(gcn_layer(h, sub, p)),
                            [h, p.weight, p.bias])
    assert err < 1e-6


def test_gcn_layer_shape_mismatch():
    sub = Subgraph(target=0, members=(0, 1), edges=())
    with pytest.raises(ShapeError):
        gcn_layer(Tensor(np.ones((3, 2))), sub, _params(2))


# ---------------------------------------------------------------------------
# GAT layer


def test_gat_isolated_node_attends_to_itself():
    sub = Subgraph(target=0, members=(0,), edges=())
    p = _params(2, seed=3, attention=True)
    h = Tensor([[0.3, -0.7]])
    alpha = gat_attention(h, sub, p)
    assert np.allclose(alpha.data, [[1.0]])
    out = gat_layer(h, sub, p)
    expected = np.maximum(h.data @ p.weight.data + p.bias.data, 0.0)
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_gat_attention_rows_sum_to_one():
    rng = np.random.default_rng(9)
    sub = Subgraph(target=0, members=(0, 1, 2, 3),
                   edges=((1, 0), (2, 0), (0, 1), (3, 1)))
    p = _params(5, seed=4, attention=True)
    alpha = gat_attention(Tensor(rng.normal(size=(4, 5))), sub, p)
    assert np.max(np.abs(alpha.data.sum(axis=1) - 1.0)) < 1e-12


def test_gat_identical_features_give_uniform_attention():
    # 3-node star into the target with identical features everywhere
    sub = Subgraph(target=0, members=(0, 1, 2), edges=((1, 0), (2, 0)))
    p = _params(3, seed=5, attention=True)
    h = Tensor(np.tile([0.4, -0.2, 0.9], (3, 1)))
    alpha = gat_attention(h, sub, p)
    assert alpha.data[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_gat_masked_pairs_get_zero_attention():
    sub = Subgraph(target=0, members=(0, 1, 2), edges=((1, 0),))
    p = _params(2, seed=8, attention=True)
    alpha = gat_attention(Tensor(np.ones((3, 2))), sub, p)
    assert alpha.data[0, 2] == 0.0
    assert alpha.data[1, 0] == 0.0 and alpha.data[1, 2] == 0.0


def test_gat_layer_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    sub = Subgraph(target=0, members=(0, 1, 2, 3),
                   edges=((1, 0), (2, 0), (3, 0), (2, 3)))
    h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    p = _params(3, seed=11, attention=True)

    err = grad_check_params(lambda: sum_all(gat_layer(h, sub, p)),
                            [h, p.weight, p.bias, p.attention])
    assert err < 1e-6


def test_gat_layer_requires_attention_params():
    sub = Subgraph(target=0, members=(0,), edges=())
    with pytest.raises(ValueError):
        gat_layer(Tensor([[1.0, 2.0]]), sub, _params(2, attention=False))


# ---------------------------------------------------------------------------
# shared layer properties


def _permute_subgraph(sub, perm):
    """Relabel local indices by perm (perm[0] must stay 0)."""
    inv = {old: new for new, old in enumerate(perm)}
    members = tuple(sub.members[i] for i in perm)
    edges = tuple(sorted((inv[s], inv[d]) for s, d in sub.edges))
    return Subgraph(sub.target, members, edges)


@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_layers_equivariant_to_member_relabeling(kind):
    rng = np.random.default_rng(12)
    sub = Subgraph(target=0, members=(0, 1, 2, 3),
                   edges=((1, 0), (2, 0), (3, 2)))
    perm = [0, 3, 1, 2]
    sub_p = _permute_subgraph(sub, perm)
    h = rng.normal(size=(4, 3))
    p = _params(3, seed=13, attention=True)
    layer = gcn_layer if kind == "gcn" else gat_layer
    out = layer(Tensor(h), sub, p).data
    out_p = layer(Tensor(h[perm]), sub_p, p).data
    assert np.max(np.abs(out[perm] - out_p)) < 1e-12


@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_layer_outputs_non_negative(kind):
    rng = np.random.default_rng(14)
    sub = Subgraph(target=0, members=(0, 1, 2), edges=((1, 0), (2, 1)))
    p = _params(4, seed=15, attention=True)
    layer = gcn_layer if kind == "gcn" else gat_layer
    out = layer(Tensor(rng.normal(size=(3, 4))), sub, p).data
    assert np.all(out >= 0.0)
