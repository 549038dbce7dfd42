"""Reverse-mode automatic differentiation on dense float64 arrays.

Define-by-run: an operation records itself on the computation graph only
when one of its inputs needs gradients. ``backward`` walks the recorded
graph once in reverse topological order, deposits gradients on the
participating leaves, and frees the graph, so each recorded forward pass
supports exactly one backward pass. Inside ``no_grad()`` nothing is recorded.

Matrix ops take optional leading batch axes: ``linear`` accepts ``[..., L, k]``
inputs, row-wise ops work over the last axis and the row reductions over axis
-2. A rank-2 input takes the same arithmetic as a single slice of a batch, and
the gradient to an operand that every slice shares is the slices' own
gradients added in slice order, bit for bit what a loop over the slices
accumulates.

``linear``, ``encoder_block`` and the GNN layers (``graph.gcn_layer``,
``graph.gat_layer``) are each one recorded op on plain arrays, whose backward
adds every gradient in the order of the graph of single ops it replaced, so
outputs and gradients equal that graph's bit for bit. A GAT layer gives W its
scores' read before its aggregation's, and hands its input one gradient, the
sum of its two reads, so a residual's read of the input adds after both.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (ContractError, DataError, LabelError, NonFiniteError, ShapeError,
                     is_finite_number)

Array = np.ndarray

# Entries this negative are squashed to exactly zero by a row softmax.
_MASK_FILL = -1e30
# The negative slope of the GAT scores' leaky ReLU, the variance floor of the
# ``encoder_block`` layer norms and the std of ``normal_param``'s draws.
_LEAKY_SLOPE = 0.2
_NORM_EPS = 1e-5
_INIT_STD = 0.02


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process (glibc only; elsewhere a no-op).

    A batched training step allocates activations and gradients of 115-400 KB
    each. By default glibc serves blocks of 128 KiB and more with ``mmap``,
    and once one is freed it raises that threshold and sets the trim threshold
    to twice the block, so the working set freed at the end of each step is
    handed back to the kernel and the next step page-faults it in again. Two
    epochs of the reference recipe on 300 stocks (2-core x86-64) took 632k
    minor faults and 5.3 s, 1.8 s of it system time; with both thresholds
    fixed, 3.9k faults and 3.0 s. Either one alone is not enough: 50k faults
    with the trim threshold only, 799k with the mmap threshold only. The
    setting is process-wide and changes no arithmetic.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB, glibc's largest
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: 64 MiB


_keep_freed_heap()


def _require_finite(arr: Array) -> Array:
    if not np.isfinite(arr).all():
        raise NonFiniteError("tensor entries must be finite (NaN/Inf rejected)")
    return arr


class Tensor:
    """Dense float64 array, optionally tracking gradients. A tensor built
    needing them is a parameter: its array is read-only, and only ``writing``
    and ``Adam`` change it, each bumping its ``version``."""

    __slots__ = ("data", "requires_grad", "grad", "version", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _require_finite(np.ascontiguousarray(np.asarray(data, dtype=np.float64)))
        if requires_grad:  # a view: the caller's own array stays as it was
            self.data = self.data.view()
            self.data.flags.writeable = False
        self.requires_grad = bool(requires_grad)
        self.version = 0
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() expects a single element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _NoGradCount(threading.local):
    """The number of ``no_grad`` contexts open in the current thread: its ops
    record while it is 0. Each thread reads the class attribute until it
    opens its first context, which is cheaper than ``getattr`` with a
    default; one thread's contexts never switch off another's recording."""

    open = 0


_no_grad = _NoGradCount()


@contextmanager
def no_grad():
    """Record no graph in this thread while the context is open: op results
    need no gradients, whatever their inputs. Recording resumes when the
    thread's last open context exits, also when the block raises. Other
    threads keep recording: one thread may embed while another trains a
    different model."""
    _no_grad.open += 1
    try:
        yield
    finally:
        _no_grad.open -= 1


def is_recording() -> bool:
    """Whether ops record their graph in this thread (False inside ``no_grad``)."""
    return _no_grad.open == 0


def _records(parents: Iterable[Tensor]) -> bool:
    """Whether an op on ``parents`` records its graph: recording is on and
    some parent needs a gradient."""
    return _no_grad.open == 0 and any(p.requires_grad for p in parents)


def _op(data: Array, parents: tuple[Tensor, ...], backward_fn: Callable[[Array], None]) -> Tensor:
    """Build an op-result tensor, recording it when ``_records(parents)``."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # the same sum as zeros_like + g, without the zero fill
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        # also the first write to an ``Adam`` gradient view, which starts at
        # zero: 0.0 + g is g + 0.0 bit for bit, -0.0 included
        t.grad += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient back down to ``shape`` after numpy broadcasting. Extra
    leading axes are summed innermost first, so a batch's slices are each
    reduced on their own and then added in slice order, as a loop over the
    slices would add them."""
    if g.shape == shape:
        return g
    for axis in reversed(range(g.ndim - len(shape))):
        g = g.sum(axis=axis)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf that ``loss`` depends on.

    The recorded graph is freed afterwards; calling backward a second time
    on the same loss raises.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._backward_fn is None:
        raise ContractError("loss is not attached to a recorded computation")

    topo: list[Tensor] = []
    finished: set[Tensor] = set()
    visited: set[Tensor] = set()
    stack: list[Tensor] = [loss]
    while stack:
        node = stack[-1]
        if node in visited:
            stack.pop()
            if node not in finished:
                finished.add(node)
                topo.append(node)
            continue
        visited.add(node)
        for p in node._parents:
            if p._backward_fn is not None and p not in visited:
                stack.append(p)

    loss.grad = np.ones_like(loss.data)
    # reverse topological order: every consumer has added into a node's grad
    for node in reversed(topo):
        node._backward_fn(node.grad)  # type: ignore[misc]

    for node in topo:
        node._parents = ()
        node._backward_fn = None
        node.grad = None


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(g: Array) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _op(data, (a, b), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight + bias`` for x [..., n, d], weight [d, k], bias
    [k]: one recorded op, with the gradients of a matmul node and an add node."""
    if x.data.ndim < 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear needs input of rank 2 or more and a rank-2 weight, "
                         f"got {x.data.shape} and {weight.data.shape}")
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(f"linear dimension mismatch: input {x.data.shape} vs weight {weight.data.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeError(f"linear bias shape {bias.data.shape} does not match weight {weight.data.shape}")

    def bw(g: Array) -> None:
        gx = _affine_grad(x.data, weight, bias, g, x.requires_grad)
        if gx is not None:
            _accum(x, gx)

    return _op(_affine(x.data, weight, bias), (x, weight, bias), bw)


def _scale(x: Tensor, factor: Array) -> Tensor:
    """``x`` times a constant array of its shape, elementwise."""
    def bw(g: Array) -> None:
        _accum(x, g * factor)

    return _op(x.data * factor, (x,), bw)


def relu(x: Tensor) -> Tensor:
    return _scale(x, x.data > 0)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: with a generator, survivors are scaled by 1/(1-rate);
    without one it is the identity."""
    if not (is_finite_number(rate) and 0.0 <= rate < 1.0):
        raise DataError(f"dropout rate must be in [0, 1), got {rate!r}")
    if rng is None or rate == 0.0:
        return x
    return _scale(x, (rng.random(x.data.shape) >= rate) / (1.0 - rate))


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] for one row of logits [c]."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy needs one row of logits, got shape {logits.data.shape}")
    if not 0 <= target < len(logits.data):
        raise LabelError(f"label {target} out of range [0, {len(logits.data)})")
    z = logits.data - logits.data.max()
    logp = z - np.log(np.exp(z).sum())

    def bw(g: Array) -> None:
        p = np.exp(logp)
        p[target] -= 1.0
        _accum(logits, float(g.sum()) * p)

    return _op(np.asarray(-logp[target]), (logits,), bw)


def take_rows(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather entries along ``axis`` (rows by default); an index array of any
    shape replaces that axis. Gradients scatter-add back: each slice of an
    index array of rank 2 or more (a lower rank is one slice) scatters into
    a zero table of its own, and the tables add in slice order, as a loop
    over the slices would accumulate them."""
    idx = np.asarray(indices, dtype=np.int64)
    data = np.take(x.data, idx, axis=axis)

    def bw(g: Array) -> None:
        gx = np.zeros_like(x.data)
        table = np.moveaxis(gx, axis, 0)
        start = axis % x.data.ndim
        g = np.moveaxis(g, range(start, start + idx.ndim), range(idx.ndim))
        for rows, g_rows in zip(idx, g) if idx.ndim > 1 else [(idx, g)]:
            part = np.zeros_like(table)
            np.add.at(part, rows, g_rows)
            table += part
        _accum(x, gx)

    return _op(data, (x,), bw)


def place_rows(parts: Sequence[Tensor], rows: Sequence[Sequence[int]]) -> Tensor:
    """Interleave matrices into one: row ``rows[i][j]`` of the result is row
    ``j`` of ``parts[i]``. The row lists must cover ``0..n-1`` once each."""
    parts = list(parts)
    index = [np.asarray(r, dtype=np.int64) for r in rows]
    if not parts or len(index) != len(parts) or any(
            p.data.ndim != 2 or len(p.data) != len(r) for p, r in zip(parts, index)):
        raise ShapeError("place_rows needs one row list per matrix, as long as the matrix")
    n = sum(len(r) for r in index)
    if not np.array_equal(np.sort(np.concatenate(index)), np.arange(n)):
        raise ShapeError(f"place_rows row lists must cover 0..{n - 1} once each")
    data = np.empty((n, parts[0].data.shape[1]))
    for p, r in zip(parts, index):
        data[r] = p.data

    def bw(g: Array) -> None:
        for p, r in zip(parts, index):
            _accum(p, g[r])

    return _op(data, tuple(parts), bw)


def mean_rows(x: Tensor) -> Tensor:
    """Mean over rows (axis -2): [..., n, d] -> [..., d]."""
    if x.data.ndim < 2:
        raise ShapeError(f"mean_rows needs a tensor of rank 2 or more, got shape {x.data.shape}")
    n = x.data.shape[-2]

    def bw(g: Array) -> None:
        _accum(x, np.broadcast_to(np.expand_dims(g / n, -2), x.data.shape))

    return _op(x.data.sum(axis=-2) / n, (x,), bw)


def max_rows(x: Tensor) -> Tensor:
    """Max over rows (axis -2): [..., n, d] -> [..., d]. Gradient routes to the argmax row."""
    if x.data.ndim < 2:
        raise ShapeError(f"max_rows needs a tensor of rank 2 or more, got shape {x.data.shape}")
    am = np.expand_dims(x.data.argmax(axis=-2), -2)

    def bw(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, am, np.expand_dims(g, -2), axis=-2)
        _accum(x, gx)

    return _op(np.take_along_axis(x.data, am, axis=-2).squeeze(-2), (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    def bw(g: Array) -> None:
        _accum(x, g.reshape(x.data.shape))

    return _op(x.data.reshape(shape), (x,), bw)


def _affine(x: Array, w: Tensor, b: Tensor) -> Array:
    """``x @ w + b`` in a new array, the bias added in place."""
    out = x @ w.data
    out += b.data
    return out


def _norm(x: Array, gain: Tensor, bias: Tensor, out: Array) -> Array:
    """Layer norm over the last axis, then gain and bias, in place: ``x``
    becomes xhat and ``out`` (any other array of its shape) the result, after
    serving as scratch for the squares. Returns 1/std."""
    d = x.shape[-1]
    # sum / d is exactly what ndarray.mean computes, minus its Python overhead
    x -= x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.multiply(x, x, out=out).sum(axis=-1, keepdims=True) / d + _NORM_EPS)
    x *= inv
    np.multiply(x, gain.data, out=out)
    out += bias.data
    return inv


def _norm_grad(g: Array, xhat: Array, inv: Array, gain: Tensor, bias: Tensor) -> Array:
    """Accumulate ``_norm``'s gain and bias gradients; return its input's, in
    a new array. ``g`` is only read."""
    _accum(bias, _unbroadcast(g, bias.data.shape))
    scratch = g * xhat
    _accum(gain, _unbroadcast(scratch, gain.data.shape))
    d = g.shape[-1]
    gh = g * gain.data
    m1 = gh.sum(axis=-1, keepdims=True) / d
    m2 = np.multiply(gh, xhat, out=scratch).sum(axis=-1, keepdims=True) / d
    gh -= m1
    gh -= np.multiply(xhat, m2, out=scratch)
    gh *= inv
    return gh


def _affine_grad(x: Array, w: Tensor, b: Tensor, g: Array, need_input: bool = True) -> Array | None:
    """Accumulate the weight and bias gradients of ``x @ w + b``; return the
    input's gradient when ``need_input``."""
    if b.requires_grad:
        _accum(b, _unbroadcast(g, b.data.shape))
    if w.requires_grad:
        _accum(w, _unbroadcast(x.swapaxes(-1, -2) @ g, w.data.shape))
    return g @ w.data.swapaxes(-1, -2) if need_input else None


def encoder_block(x: Tensor, params: Sequence[Tensor]) -> Tensor:
    """A post-norm single-head self-attention block with a ReLU feedforward,
    recorded as one op: x [..., L, d] and the 16 parameters of
    ``text.EncoderBlock.param_table``, in that order.

    Forward and backward compute the expressions of the same block built from
    single ops (linear maps, a transpose, matmuls, a scale, a row softmax,
    adds, a ReLU and a layer norm), and add the gradients in the order that
    graph's backward walk adds them, so every result is bit for bit the same.

    Every elementwise step runs in place on an array the op allocated itself,
    never on ``x.data``, a parameter or the incoming gradient. When nothing
    needs a gradient the op keeps nothing: the second layer norm writes its
    output over the first one's xhat, and the result has no graph.
    """
    wq, bq, wk, bk, wv, bv, wo, bo, gain1, bias1, w1, b1, w2, b2, gain2, bias2 = params
    if x.data.ndim < 2 or x.data.shape[-1] != wq.data.shape[0]:
        raise ShapeError(f"encoder block of width {wq.data.shape[0]} got input of shape {x.data.shape}")
    record = _records((x, *params))
    xd = x.data
    q, k, v = (_affine(xd, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    # contiguous, as a recorded transpose stores it: q @ (view) rounds
    # differently; a copy even when kᵀ is already contiguous (d = 1), since
    # k's buffer is reused for h1 below
    kt = k.swapaxes(-1, -2).copy()
    scale = 1.0 / math.sqrt(xd.shape[-1])
    attn = q @ kt
    attn *= scale
    # the one intermediate whose non-finite entries (-inf) the rest can absorb
    _require_finite(attn)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = attn @ v
    xhat1 = _affine(ctx, wo, bo)
    xhat1 += xd
    h1 = k  # k's buffer is free once kt holds its copy
    inv1 = _norm(xhat1, gain1, bias1, h1)
    hidden = _affine(h1, w1, b1)
    mask = hidden > 0
    hidden *= mask
    xhat2 = _affine(hidden, w2, b2)
    xhat2 += h1
    out = np.empty_like(xhat2) if record else xhat1  # xhat1 is dead unrecorded
    inv2 = _norm(xhat2, gain2, bias2, out)

    def bw(g: Array) -> None:
        g_r2 = _norm_grad(g, xhat2, inv2, gain2, bias2)
        g_hidden = _affine_grad(hidden, w2, b2, g_r2)
        g_hidden *= mask
        g_r2 += _affine_grad(h1, w1, b1, g_hidden)
        g_r1 = _norm_grad(g_r2, xhat1, inv1, gain1, bias1)
        g_ctx = _affine_grad(ctx, wo, bo, g_r1)
        g_scores = g_ctx @ v.swapaxes(-1, -2)
        g_scores -= np.multiply(g_scores, attn).sum(axis=-1, keepdims=True)
        g_scores *= attn
        g_scores *= scale
        # the gradient of a recorded k is a contiguous copy of kᵀ's
        g_k = np.ascontiguousarray((q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2))
        parts = [_affine_grad(xd, w, b, gp, x.requires_grad) for w, b, gp in (
            (wq, bq, g_scores @ kt.swapaxes(-1, -2)), (wk, bk, g_k), (wv, bv, attn.swapaxes(-1, -2) @ g_ctx))]
        if x.requires_grad:
            for part in (g_r1, *parts):  # the residual first, then q, k, v
                _accum(x, part)

    return _op(out, (x, *params), bw)


# ---------------------------------------------------------------------------
# parameters: the writer and initialization


@contextmanager
def writing(*params: Tensor):
    """Make the parameters' arrays writeable for the block; on exit, also on a
    raise, make them read-only again and bump their versions. Write through
    ``p.data`` or a view taken inside the block, which must not outlive it."""
    for p in params:
        p.data.flags.writeable = True
    try:
        yield
    finally:
        for p in params:
            p.data.flags.writeable = False
            p.version += 1


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    limit = math.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, (rows, cols)), requires_grad=True)


def normal_param(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(0.0, _INIT_STD, shape), requires_grad=True)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Bias-corrected Adam over one flat arena; updates parameters in place.
    Only the learning rate is a setting: the moment decays and epsilon are the
    usual constants.

    Building it copies the parameters into one contiguous vector ``data`` and
    rebinds each ``p.data`` to a read-only view of it; a step bumps each
    ``p.version``. ``grad`` has the same layout, and
    each ``p.grad`` is a view of it, so ``backward`` adds every leaf's gradient
    straight into the vector and a step is a few operations over all of it. A
    ``.grad`` that a caller assigns is copied in before it is read."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Iterable[Tensor], lr: float = 0.001):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("Adam needs each parameter once")
        if not (is_finite_number(lr) and lr > 0):
            raise DataError(f"Adam's lr must be a finite number above 0, got {lr!r}")
        self.lr = lr
        self.step_count = 0
        n = sum(p.data.size for p in self.params)
        self.data = np.empty(n)
        self.grad = np.zeros(n)
        self._m = np.zeros(n)
        self._v = np.zeros(n)
        self._scratch = (np.empty(n), np.empty(n))
        self._grads: list[Array] = []
        offset = 0
        for p in self.params:
            end = offset + p.data.size
            view = self.data[offset:end].reshape(p.data.shape)
            view[...] = p.data
            view.flags.writeable = False
            p.data = view
            self._grads.append(self.grad[offset:end].reshape(view.shape))
            offset = end
        self.gradient()

    def gradient(self) -> Array:
        """The gradient vector, after copying in each ``.grad`` that is not
        its view (a missing one counts as zero) and rebinding it to the view."""
        for p, view in zip(self.params, self._grads):
            if p.grad is not view:
                view[...] = 0.0 if p.grad is None else p.grad
                p.grad = view
        return self.grad

    def step(self) -> None:
        """Apply one update from the parameters' gradients: the usual
        expressions in place, in two scratch vectors, with the operands of a
        single ``*`` swapped at most, which is exact."""
        g = self.gradient()
        self.step_count += 1
        bc1 = 1.0 - self.BETA1 ** self.step_count
        bc2 = 1.0 - self.BETA2 ** self.step_count
        m, v = self._m, self._v
        s1, s2 = self._scratch
        m *= self.BETA1
        m += np.multiply(g, 1.0 - self.BETA1, out=s1)
        v *= self.BETA2
        v += np.multiply(np.multiply(g, g, out=s1), 1.0 - self.BETA2, out=s1)
        np.multiply(np.divide(m, bc1, out=s1), self.lr, out=s1)
        np.add(np.sqrt(np.divide(v, bc2, out=s2), out=s2), self.EPS, out=s2)
        self.data -= np.divide(s1, s2, out=s1)
        for p in self.params:
            p.version += 1

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for p, view in zip(self.params, self._grads):
            p.grad = view
