"""The op-by-op oracle: single recorded ops that the package no longer uses,
and the layers built from them.

``setn.autodiff.linear`` and ``setn.graph.gcn_layer`` and ``gat_layer`` are
each one recorded op; ``linear``, ``gcn_layer`` and ``gat_layer`` here are
the graphs of single ops they replaced, whose outputs and gradients they must
equal bit for bit. ``sum_all`` is the tests' scalar reduction for gradient
references, and ``mul`` their way to weight an output before it.
"""

import numpy as np

from setn import autodiff as ad
from setn.autodiff import Tensor, _accum, _op, _scale, _unbroadcast
from setn.errors import ShapeError
from setn.graph import _adjacency, _check_layer_input, gcn_normalize


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        _accum(x, np.full(x.data.shape, float(g.sum())))

    return _op(np.asarray(x.data.sum()), (x,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _op(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a [..., m, k] and b [k, n] (shared by every slice of a)
    or b [..., k, n] (one matrix per slice)."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs operands of rank 2 or more, got {a.data.shape} and {b.data.shape}")
    if b.data.ndim != 2 and b.data.shape[:-2] != a.data.shape[:-2]:
        raise ShapeError(f"matmul batch axes differ: {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul dimension mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            # one b for every slice: sum the slices' gradients in slice order
            _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _op(data, (a, b), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as two recorded nodes."""
    return ad.add(matmul(x, weight), bias)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose needs a tensor of rank 2 or more, got shape {x.data.shape}")

    def bw(g):
        _accum(x, g.swapaxes(-1, -2))

    return _op(x.data.swapaxes(-1, -2), (x,), bw)


def leaky_relu(x: Tensor) -> Tensor:
    return _scale(x, np.where(x.data > 0, 1.0, ad._LEAKY_SLOPE))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis with per-row max subtraction for overflow safety."""
    if x.data.ndim < 2:
        raise ShapeError(f"softmax_rows needs a tensor of rank 2 or more, got shape {x.data.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, (g - inner) * y)

    return _op(y, (x,), bw)


def gcn_layer(h, sub, params):
    """ReLU(norm_adj @ h @ W + b), one recorded node per op."""
    _check_layer_input(h, sub, params)
    return ad.relu(linear(matmul(gcn_normalize(sub), h), params.weight, params.bias))


def gat_attention(h, sub, params):
    """Attention coefficients [n, n], one recorded node per op."""
    d = params.dim
    wh = matmul(h, params.weight)
    a_self = ad.reshape(ad.take_rows(params.attention, range(d)), (d, 1))
    a_neigh = ad.reshape(ad.take_rows(params.attention, range(d, 2 * d)), (d, 1))
    s_self = matmul(wh, a_self)
    s_neigh = matmul(wh, a_neigh)
    logits = leaky_relu(ad.add(s_self, transpose(s_neigh)))
    mask = _adjacency(sub)
    masked = ad.add(mul(logits, Tensor(mask)), Tensor((1.0 - mask) * ad._MASK_FILL))
    return softmax_rows(masked)


def gat_layer(h, sub, params):
    """ReLU(attention-weighted aggregation of W h + b), one recorded node per
    op. It reads ``h`` twice through an identity node of its own, so backward
    adds its two reads before any other reader's."""
    _check_layer_input(h, sub, params)
    h = ad.reshape(h, h.shape)
    alpha = gat_attention(h, sub, params)
    wh = matmul(h, params.weight)
    return ad.relu(ad.add(matmul(alpha, wh), params.bias))
