"""Directed stock graph, 1-hop subgraph sampling, and the GNN layers.

Edges run cause -> effect. Messages follow the edges, so a node aggregates
its in-neighbors; adjacency is built with A[i][j] = 1 for edge j -> i.
Subgraphs are small (one hop), so all layer math is dense.

Each layer is one recorded op on plain arrays, with the output and the
gradients of the layer built from single ops (see ``setn.autodiff``). A layer
takes one subgraph with its features [n, d], or a sequence of B subgraphs of
n members each with their features stacked as [B, n, d]. Its math reads only
the last two axes, so each slice of a stack gets the output of that subgraph
on its own, bit for bit, and a parameter's gradient adds the slices' own in
slice order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _MASK_FILL
from .errors import DataError, ShapeError, is_int_type, require_int

SUBGRAPH_HOPS = 1  # sampling depth is fixed by design
DIRECTIONS = ("in", "out")


@dataclass(frozen=True, eq=False)
class StockGraph:
    """Immutable directed graph over dense integer node ids; undirected when
    its edge set is symmetric (``to_undirected``)."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", require_int(self.n_nodes, "n_nodes", 0))
        edges = tuple(self.edges)  # a tuple as it is; any other iterable read once
        try:
            edges = [(s, d) for s, d in edges]
        except (TypeError, ValueError):
            edges = list(map(_pair, edges))
        # the rule runs over the set of endpoint types, which keeps a large edge list cheap
        kinds = set(map(type, chain.from_iterable(edges)))
        if not all(map(is_int_type, kinds)):
            edge = next(e for e in edges if not all(map(is_int_type, map(type, e))))
            for node in edge:
                require_int(node, f"node id in edge {edge!r}", 0, self.n_nodes - 1)
        if kinds - {int}:
            edges = [(int(s), int(d)) for s, d in edges]
        object.__setattr__(self, "edges", tuple(edges))
        seen = set()
        out_adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        in_adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for s, d in self.edges:
            if not (0 <= s < self.n_nodes and 0 <= d < self.n_nodes):
                raise DataError(f"edge ({s}, {d}) outside node range [0, {self.n_nodes})")
            if s == d:
                raise DataError(f"self-loop on node {s}; layers insert self-loops themselves")
            if (s, d) in seen:
                raise DataError(f"duplicate edge ({s}, {d})")
            seen.add((s, d))
            out_adj[s].append(d)
            in_adj[d].append(s)
        object.__setattr__(self, "_out", out_adj)
        object.__setattr__(self, "_in", in_adj)


def _pair(edge) -> tuple:
    try:
        s, d = edge
    except (TypeError, ValueError):
        raise DataError(f"edge {edge!r} must be a pair of node ids") from None
    return s, d


def to_undirected(g: StockGraph) -> StockGraph:
    """Symmetrize and deduplicate the edge set."""
    sym = set()
    for s, d in g.edges:
        sym.add((s, d))
        sym.add((d, s))
    return StockGraph(g.n_nodes, tuple(sorted(sym)))


@dataclass(frozen=True)
class Subgraph:
    """Target plus its 1-hop neighborhood, edges re-indexed locally.

    ``members[0]`` is always the target.
    """

    target: int
    members: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def sample_subgraph(g: StockGraph, target: int, direction: str = "in") -> Subgraph:
    """1-hop neighborhood of ``target``: its in-neighbors, or its
    out-neighbors with ``direction='out'``. On a symmetric edge set both are
    all of its neighbors. ``target`` is a node id: an integer by
    ``errors.require_int`` in [0, n_nodes)."""
    target = require_int(target, "target node", 0, g.n_nodes - 1)
    if direction not in DIRECTIONS:
        raise DataError(f"direction must be 'in' or 'out', got {direction!r}")
    members = (target, *sorted(g._in[target] if direction == "in" else g._out[target]))
    index = {node: i for i, node in enumerate(members)}
    local = [(index[u], index[v]) for u in members for v in g._out[u] if v in index]
    return Subgraph(target, members, tuple(sorted(local)))


# One subgraph, or a sequence of subgraphs with one member count.
Subgraphs = Union[Subgraph, Sequence[Subgraph]]


def _adjacency(sub: Subgraphs) -> np.ndarray:
    """A + I as exact 0/1 values: 1 at [i, i] and at [d, s] for each edge
    s -> d; [n, n] for one subgraph, [B, n, n] for a sequence of B."""
    subs = (sub,) if isinstance(sub, Subgraph) else sub
    n = subs[0].size
    a = np.zeros((len(subs), n, n))
    a[:, range(n), range(n)] = 1.0
    counts = [len(one.edges) for one in subs]
    edges = np.fromiter(chain.from_iterable(chain.from_iterable(one.edges for one in subs)),
                        dtype=np.intp, count=2 * sum(counts)).reshape(-1, 2)
    a[np.repeat(np.arange(len(subs)), counts), edges[:, 1], edges[:, 0]] = 1.0
    return a[0] if isinstance(sub, Subgraph) else a


def gcn_normalize(sub: Subgraphs) -> Tensor:
    """Degree-normalized adjacency with self-loops: D^-1/2 (A + I) D^-1/2.

    Row i receives edge j -> i; degrees are row sums, so directed graphs
    normalize by in-degree.
    """
    a_hat = _adjacency(sub)
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    return Tensor(a_hat * inv_sqrt[..., :, None] * inv_sqrt[..., None, :])


@dataclass
class GnnParams:
    """Square weight and bias; attention vector [2d] present for GAT."""

    weight: Tensor
    bias: Tensor
    attention: Optional[Tensor] = None

    @property
    def dim(self) -> int:
        return self.weight.data.shape[0]

    def named_params(self):
        yield "weight", self.weight
        yield "bias", self.bias
        if self.attention is not None:
            yield "attention", self.attention


def init_gnn_params(dim: int, rng: np.random.Generator, with_attention: bool = False) -> GnnParams:
    attention = None
    if with_attention:
        attention = Tensor(rng.uniform(-0.3, 0.3, (2 * dim,)), requires_grad=True)
    # small positive bias keeps the layer's ReLU units alive early in training
    return GnnParams(
        weight=ad.xavier_uniform(rng, dim, dim),
        bias=Tensor(np.full(dim, 0.01), requires_grad=True),
        attention=attention,
    )


def _check_layer_input(h: Tensor, sub: Subgraphs, params: GnnParams) -> None:
    """Features [n, d] for one subgraph of n members, or [B, n, d] for a
    sequence of B subgraphs of n members each."""
    if isinstance(sub, Subgraph):
        expected = (sub.size,)
    else:
        sizes = {one.size for one in sub}
        if len(sizes) != 1:
            raise ShapeError(f"a stack of subgraphs needs one member count, got {sorted(sizes)}")
        expected = (len(sub), sizes.pop())
    if h.data.shape[:-1] != expected:
        raise ShapeError(f"features {h.data.shape} do not match subgraphs of shape {expected}")
    if h.data.shape[-1] != params.dim:
        raise ShapeError(f"feature dim {h.data.shape[-1]} does not match weight {params.weight.data.shape}")


def gcn_layer(h: Tensor, sub: Subgraphs, params: GnnParams) -> Tensor:
    """ReLU(norm_adj @ h @ W + b) over the subgraph (each subgraph of a
    stack), as one recorded op."""
    _check_layer_input(h, sub, params)
    w, b = params.weight, params.bias
    a = gcn_normalize(sub).data
    ah = a @ h.data
    z = ad._affine(ah, w, b)
    keep = z > 0
    z *= keep

    def bw(g: np.ndarray) -> None:
        g_ah = ad._affine_grad(ah, w, b, g * keep + 0.0, h.requires_grad)
        if g_ah is not None:
            ad._accum(h, a.swapaxes(-1, -2) @ (g_ah + 0.0))

    return ad._op(z, (h, w, b), bw)


def _attention(h: Tensor, sub: Subgraphs, params: GnnParams):
    """W h, the attention coefficients [n, n] ([B, n, n] for a stack), and
    what the GAT backward reads: the adjacency mask, the leaky ReLU's slopes
    and the attention vector's halves as [d, 1] copies, as the graph's row
    gathers made them."""
    _check_layer_input(h, sub, params)
    if params.attention is None:
        raise DataError("attention layer needs GnnParams.attention")
    d = params.dim
    wh = h.data @ params.weight.data
    a_self, a_neigh = (params.attention.data[part].reshape(d, 1).copy()
                       for part in (slice(d), slice(d, None)))
    # [..., n, n]: the attending node's score share plus the neighbor's
    scores = wh @ a_self + (wh @ a_neigh).swapaxes(-1, -2)
    # the one intermediate whose non-finite entries (-inf) the rest can absorb
    ad._require_finite(scores)
    slope = np.where(scores > 0, 1.0, ad._LEAKY_SLOPE)
    scores *= slope
    mask = _adjacency(sub)
    scores *= mask
    scores += (1.0 - mask) * _MASK_FILL
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return wh, scores, mask, slope, a_self, a_neigh


def gat_attention(h: Tensor, sub: Subgraphs, params: GnnParams) -> Tensor:
    """Attention coefficients [n, n] ([B, n, n] for a stack): row i softmaxes
    over i's in-neighbors and i itself. A constant: gradients flow through
    ``gat_layer`` only."""
    return Tensor(_attention(h, sub, params)[1])


def gat_layer(h: Tensor, sub: Subgraphs, params: GnnParams) -> Tensor:
    """ReLU(attention-weighted aggregation of W h + b) over the subgraph
    (each subgraph of a stack), as one recorded op."""
    w, b, att = params.weight, params.bias, params.attention
    wh, alpha, mask, slope, a_self, a_neigh = _attention(h, sub, params)
    z = alpha @ wh
    z += b.data
    keep = z > 0
    z *= keep
    hd, batch, (n, d) = h.data, wh.shape[:-2], wh.shape[-2:]

    def bw(g: np.ndarray) -> None:
        g = g * keep + 0.0
        ad._accum(b, ad._unbroadcast(g, b.data.shape))
        # alpha's gradient, then back through the softmax, mask and leaky ReLU
        g_s = g @ wh.swapaxes(-1, -2) + 0.0
        g_s -= (g_s * alpha).sum(axis=-1, keepdims=True)
        for factor in (alpha, mask, slope):
            g_s = g_s * factor + 0.0
        g_self = ad._unbroadcast(g_s, (*batch, n, 1)) + 0.0
        g_neigh = ad._unbroadcast(g_s, (*batch, 1, n)).reshape(*batch, n, 1) + 0.0
        # the self half, then the neighbor half, each plus 0.0 as a row gather adds it
        halves = np.concatenate([wh.swapaxes(-1, -2) @ g_self,
                                 wh.swapaxes(-1, -2) @ g_neigh], axis=-2)
        ad._accum(att, ad._unbroadcast(halves, (2 * d, 1)).reshape(2 * d) + 0.0)
        # W h is read by the scores, then by the aggregation
        g_wh1 = (g_self @ a_self.swapaxes(-1, -2) + 0.0) + g_neigh @ a_neigh.swapaxes(-1, -2)
        g_wh2 = alpha.swapaxes(-1, -2) @ g + 0.0
        for g_wh in (g_wh1, g_wh2):
            ad._accum(w, ad._unbroadcast(hd.swapaxes(-1, -2) @ g_wh, w.data.shape))
        if h.requires_grad:
            wt = w.data.swapaxes(-1, -2)
            ad._accum(h, (g_wh1 @ wt + 0.0) + g_wh2 @ wt)

    return ad._op(z, (h, w, b, att), bw)
