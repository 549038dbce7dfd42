"""Directed stock graph, 1-hop subgraph sampling, and the GNN layers.

Edges run cause -> effect. Messages follow the edges, so a node aggregates
its in-neighbors; adjacency is built with A[i][j] = 1 for edge j -> i.
Subgraphs are small (one hop), so all layer math is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _MASK_FILL
from .errors import DataError, ShapeError

SUBGRAPH_HOPS = 1  # sampling depth is fixed by design
DIRECTIONS = ("in", "out")


@dataclass(frozen=True, eq=False)
class StockGraph:
    """Immutable directed graph over dense integer node ids; undirected when
    its edge set is symmetric (``to_undirected``)."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(s), int(d)) for s, d in self.edges))
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
    all of its neighbors."""
    if not 0 <= target < g.n_nodes:
        raise DataError(f"target node {target} outside range [0, {g.n_nodes})")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    neigh = set(g._in[target] if direction == "in" else g._out[target])
    neigh.discard(target)
    members = (target, *sorted(neigh))
    index = {node: i for i, node in enumerate(members)}
    local = set()
    for u in members:
        for v in g._out[u]:
            if v in index:
                local.add((index[u], index[v]))
    return Subgraph(target, members, tuple(sorted(local)))


def _adjacency(sub: Subgraph) -> np.ndarray:
    """A + I as exact 0/1 values: 1 at [i, i] and at [d, s] for each edge s -> d."""
    a = np.eye(sub.size)
    for s, d in sub.edges:
        a[d, s] = 1.0
    return a


def gcn_normalize(sub: Subgraph) -> Tensor:
    """Degree-normalized adjacency with self-loops: D^-1/2 (A + I) D^-1/2.

    Row i receives edge j -> i; degrees are row sums, so directed graphs
    normalize by in-degree.
    """
    a_hat = _adjacency(sub)
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return Tensor(a_hat * inv_sqrt[:, None] * inv_sqrt[None, :])


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


def _check_layer_input(h: Tensor, sub: Subgraph, params: GnnParams) -> None:
    if h.data.ndim != 2 or h.data.shape[0] != sub.size:
        raise ShapeError(f"features {h.data.shape} do not match subgraph of {sub.size} members")
    if h.data.shape[1] != params.dim:
        raise ShapeError(f"feature dim {h.data.shape[1]} does not match weight {params.weight.data.shape}")


def gcn_layer(h: Tensor, sub: Subgraph, params: GnnParams) -> Tensor:
    """ReLU(norm_adj @ h @ W + b) over the subgraph."""
    _check_layer_input(h, sub, params)
    return ad.relu(ad.linear(ad.matmul(gcn_normalize(sub), h), params.weight, params.bias))


def gat_attention(h: Tensor, sub: Subgraph, params: GnnParams) -> Tensor:
    """Attention coefficients [n, n]: row i softmaxes over i's in-neighbors and i itself."""
    _check_layer_input(h, sub, params)
    if params.attention is None:
        raise ValueError("attention layer needs GnnParams.attention")
    d = params.dim
    wh = ad.matmul(h, params.weight)
    a_self = ad.reshape(ad.take_rows(params.attention, range(d)), (d, 1))
    a_neigh = ad.reshape(ad.take_rows(params.attention, range(d, 2 * d)), (d, 1))
    s_self = ad.matmul(wh, a_self)     # [n, 1], score share of the attending node
    s_neigh = ad.matmul(wh, a_neigh)   # [n, 1], score share of the neighbor
    logits = ad.leaky_relu(ad.add(s_self, ad.transpose(s_neigh)))
    mask = _adjacency(sub)
    masked = ad.add(ad.mul(logits, Tensor(mask)), Tensor((1.0 - mask) * _MASK_FILL))
    return ad.softmax_rows(masked)


def gat_layer(h: Tensor, sub: Subgraph, params: GnnParams) -> Tensor:
    """ReLU(attention-weighted aggregation of W h + b) over the subgraph.

    It reads ``h`` twice, through an identity node of its own, so backward
    adds its two reads before any other reader's, such as a residual's."""
    h = ad.reshape(h, h.shape)
    alpha = gat_attention(h, sub, params)
    wh = ad.matmul(h, params.weight)
    return ad.relu(ad.add(ad.matmul(alpha, wh), params.bias))
