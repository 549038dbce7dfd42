"""Directed stock graph, 1-hop subgraph sampling, and the GNN layers.

Edges run cause -> effect. Messages follow the edges, so a node aggregates
its in-neighbors; adjacency is built with A[i][j] = 1 for edge j -> i.
Subgraphs are small (one hop), so all layer math is dense.

Each layer is one recorded op on plain arrays, with the output and the
gradients of the layer built from single ops (see ``setn.autodiff``). A layer
takes one subgraph with its features [n, d], or a sequence of B subgraphs of
n members each with their features stacked as [B, n, d]; either may come as
its A + I, [n, n] or [B, n, n] (``Neighborhoods.adjacency``). Its math reads
only the last two axes, so each slice of a stack gets the output of that
subgraph on its own, bit for bit, and a parameter's gradient adds the
slices' own in slice order.
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
# Entries of the (subgraph, node) table that ``sample_subgraphs`` fills for a
# block of subgraphs at a time: it bounds the table whatever the target count.
_TABLE_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class StockGraph:
    """Immutable directed graph over dense integer node ids; undirected when
    its edge set is symmetric (``to_undirected``). Besides ``edges`` it keeps
    its out- and in-adjacency as CSR arrays, ``_out`` and ``_in``: an index
    pointer and the neighbour ids, each node's in ascending order. Only this
    module reads them."""

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
        n, count = self.n_nodes, len(edges)
        try:
            ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * count)
        except OverflowError:  # an endpoint past int64 is outside the range, as its clamp is
            ends = np.array([min(max(x, -1), n) for x in chain.from_iterable(edges)], np.int64)
        src, dst = ends.reshape(count, 2).T
        # the first edge that fails a check, in input order, named as a loop over them would
        bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (src == dst))
        first = bad[0] if bad.size else count
        keys = src[:first] * n + dst[:first]
        order = np.argsort(keys, kind="stable")
        first = min(first, order[1:][keys[order[1:]] == keys[order[:-1]]].min(initial=count))
        if first < count:
            s, d = edges[first]
            if not (0 <= s < n and 0 <= d < n):
                raise DataError(f"edge ({s}, {d}) outside node range [0, {n})")
            if s == d:
                raise DataError(f"self-loop on node {s}; layers insert self-loops themselves")
            raise DataError(f"duplicate edge ({s}, {d})")
        object.__setattr__(self, "_out", _csr(n, src, dst))
        object.__setattr__(self, "_in", _csr(n, dst, src))


def _csr(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The heads of each tail node u, ascending, as ``idx[ptr[u]:ptr[u + 1]]``:
    returns (ptr, idx)."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(tails, minlength=n), out=ptr[1:])
    return ptr, heads[np.argsort(tails * n + heads)].astype(np.intp)


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


@dataclass(frozen=True, eq=False)
class Neighborhoods:
    """The 1-hop subgraphs of several targets as flat arrays. Subgraph i has
    the members ``members[offsets[i]:offsets[i + 1]]``, its target first, and
    the local edges ``(src[j], dst[j])`` for each j with ``sub[j] == i``, in
    the order of its ``Subgraph``; ``sub`` is ascending."""

    members: np.ndarray
    offsets: np.ndarray
    sub: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def subgraphs(self) -> list[Subgraph]:
        """One ``Subgraph`` per target, in target order."""
        members, at = self.members.tolist(), self.offsets.tolist()
        edges = list(zip(self.src.tolist(), self.dst.tolist()))
        cut = self.sub.searchsorted(np.arange(len(at))).tolist()
        return [Subgraph(members[lo], tuple(members[lo:hi]), tuple(edges[a:b]))
                for lo, hi, a, b in zip(at, at[1:], cut, cut[1:])]

    def targets(self) -> "Neighborhoods":
        """Each target alone: one member and no edge per subgraph."""
        none = self.sub[:0]
        return Neighborhoods(self.members[self.offsets[:-1]], np.arange(len(self.offsets)),
                             none, none, none)

    def adjacency(self, batch: Sequence[int]) -> np.ndarray:
        """A + I of the subgraphs that ``batch`` lists, which have one member
        count n, stacked in that order as [B, n, n] (``_adjacency``)."""
        slot = np.full(len(self.offsets) - 1, -1)
        slot[batch] = range(len(batch))
        at = slot[self.sub]
        keep = at >= 0
        n = self.offsets[batch[0] + 1] - self.offsets[batch[0]]
        return _fill(len(batch), n, at[keep], self.dst[keep], self.src[keep])


def _neighbors(adj: tuple[np.ndarray, np.ndarray], nodes: np.ndarray):
    """The CSR neighbour lists of ``nodes`` end to end, and for each entry the
    position in ``nodes`` of the node whose list holds it."""
    ptr, idx = adj
    lo = ptr[nodes]
    counts = ptr[nodes + 1] - lo
    owner = np.arange(len(nodes)).repeat(counts)
    return owner, idx[(lo - counts.cumsum() + counts)[owner] + np.arange(len(owner))]


def _require_targets(targets, n: int) -> np.ndarray:
    """The targets as an intp array, each a node id by ``errors.require_int``
    in [0, n); the first that is not one raises."""
    targets = list(targets)
    # the rule runs over the set of target types, which keeps a long list cheap
    if not (all(map(is_int_type, set(map(type, targets))))
            and 0 <= min(targets, default=0) and max(targets, default=-1) < n):
        for target in targets:
            require_int(target, "target node", 0, n - 1)
    return np.array(targets, dtype=np.intp)


def sample_subgraphs(g: StockGraph, targets: Sequence[int], direction: str = "in", *,
                     directed: bool = True) -> Neighborhoods:
    """The 1-hop subgraph of each target, all in one pass over the graph's
    arrays: subgraph i is ``sample_subgraph(g, targets[i], direction,
    directed=directed)``. The members are the target, then its in-neighbors
    (out-neighbors with ``direction='out'``, both with ``directed=False``) in
    ascending id. The local edges are the members' edges among themselves,
    with ``directed=False`` both ways, in ascending (source, destination)
    order, each once."""
    n = g.n_nodes
    targets = _require_targets(targets, n)
    if direction not in DIRECTIONS:
        raise DataError(f"direction must be 'in' or 'out', got {direction!r}")
    if not isinstance(directed, bool):
        raise DataError(f"directed must be a bool, got {directed!r}")
    sides = (g._in, g._out) if not directed else (g._in,) if direction == "in" else (g._out,)
    # each subgraph's neighbors, ascending; with ``directed=False`` the union of
    # both sides, as keys ``subgraph * n + node``
    lists = [_neighbors(side, targets) for side in sides]
    owner, near = (lists[0] if directed else
                   np.divmod(_distinct(np.concatenate([o * n + x for o, x in lists])), n))
    counts = np.bincount(owner, minlength=len(targets)) + 1
    offsets = np.zeros(len(targets) + 1, dtype=np.intp)
    counts.cumsum(out=offsets[1:])
    of = np.arange(len(targets)).repeat(counts)  # each member's subgraph
    members = np.empty(offsets[-1], dtype=np.intp)
    members[offsets[:-1]] = targets
    members[np.arange(len(near)) + owner + 1] = near
    local = np.arange(len(members)) - offsets[of]
    # the member edges: each member's out-neighbors, looked up in a table of
    # (subgraph, node) -> local index + 1 (0: not a member), built for a block
    # of subgraphs at a time
    tail, head = _neighbors(g._out, members)
    keys, wanted = of * n + members, of[tail] * n + head
    size = counts.max(initial=1)
    found = np.empty(len(tail), dtype=np.min_scalar_type(size))
    step = max(1, _TABLE_ENTRIES // max(n, 1))
    for lo in range(0, len(targets), step):
        hi = min(lo + step, len(targets))
        table = np.zeros((hi - lo) * n, dtype=found.dtype)
        block = slice(offsets[lo], offsets[hi])
        table[keys[block] - lo * n] = local[block] + 1
        block = slice(*tail.searchsorted((offsets[lo], offsets[hi])))
        found[block] = table[wanted[block] - lo * n]
    hit = found > 0
    tail, head = tail[hit], found[hit].astype(np.intp) - 1
    # (source, destination) as one key, and with ``directed=False`` its reverse
    # too: ascending, and each once
    pairs = tail * size + head
    if not directed:
        pairs = np.concatenate([pairs, (offsets[of[tail]] + head) * size + local[tail]])
    tail, dst = np.divmod(_distinct(pairs), size)
    return Neighborhoods(members, offsets, of[tail], local[tail], dst)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending; sorts ``keys`` in place."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def sample_subgraph(g: StockGraph, target: int, direction: str = "in", *, directed: bool = True) -> Subgraph:
    """1-hop neighborhood of ``target``: its in-neighbors, or its out-neighbors
    with ``direction='out'``; with ``directed=False`` both, and the member edges
    both ways, as either direction on ``to_undirected(g)``. ``target`` is a node
    id: an integer by ``errors.require_int`` in [0, n_nodes). The one-target
    case of ``sample_subgraphs``."""
    return sample_subgraphs(g, [target], direction, directed=directed).subgraphs()[0]


# One subgraph, a sequence of subgraphs with one member count, or their A + I
# as an array ([n, n] or [B, n, n]).
Subgraphs = Union[Subgraph, Sequence[Subgraph], np.ndarray]


def _fill(b: int, n: int, slot: np.ndarray, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """A + I of b subgraphs of n members, [b, n, n]: 1 on each diagonal and at
    [slot, d, s] for each local edge s -> d of the subgraph in slot ``slot``."""
    a = np.zeros((b, n, n))
    a[:, range(n), range(n)] = 1.0
    a[slot, dst, src] = 1.0
    return a


def _adjacency(sub: Subgraphs) -> np.ndarray:
    """A + I as exact 0/1 values: 1 at [i, i] and at [d, s] for each edge
    s -> d; [n, n] for one subgraph, [B, n, n] for a sequence of B. An array
    is that A + I already."""
    if isinstance(sub, np.ndarray):
        return sub
    subs = (sub,) if isinstance(sub, Subgraph) else sub
    counts = [len(one.edges) for one in subs]
    edges = np.fromiter(chain.from_iterable(chain.from_iterable(one.edges for one in subs)),
                        dtype=np.intp, count=2 * sum(counts)).reshape(-1, 2)
    a = _fill(len(subs), subs[0].size, np.repeat(np.arange(len(subs)), counts),
              edges[:, 1], edges[:, 0])
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
    sequence of B subgraphs of n members each, given as subgraphs or as their
    A + I."""
    if isinstance(sub, np.ndarray):
        expected = sub.shape[:-1]
    elif isinstance(sub, Subgraph):
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
