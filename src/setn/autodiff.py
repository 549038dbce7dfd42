"""Reverse-mode automatic differentiation on dense float64 arrays.

Define-by-run: an operation records itself on the computation graph only
when one of its inputs needs gradients. ``backward`` walks the recorded
graph once in reverse topological order, deposits gradients on the
participating leaves, and frees the graph, so each recorded forward pass
supports exactly one backward pass. Inside ``no_grad()`` nothing is recorded.

Matrix ops take optional leading batch axes: ``matmul`` and ``linear`` accept
``[..., L, k]`` inputs, ``transpose`` swaps the last two axes, row-wise ops
work over the last axis and the row reductions over axis -2. A rank-2 input
takes the same arithmetic as a single slice of a batch, and the gradient to an
operand that every slice shares is the slices' own gradients added in slice
order, bit for bit what a loop over the slices accumulates.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DataError, LabelError, NonFiniteError, ShapeError

Array = np.ndarray

# Entries this negative are squashed to exactly zero by a row softmax.
_MASK_FILL = -1e30


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


class Tensor:
    """Dense float64 array, optionally tracking gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor entries must be finite (NaN/Inf rejected)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[Array], None] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() expects a single element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# False while any ``no_grad`` context is open, in any thread. A plain module
# flag, not a thread-local one: a thread-local lookup in every op slowed the
# per-member forward pass by about 2%. ``_no_grad_open`` counts the open
# contexts, so recording resumes only when the last one closes, however the
# exits of contexts in several threads interleave.
_recording = True
_no_grad_open = 0
_no_grad_lock = threading.Lock()


@contextmanager
def no_grad():
    """Record no graph while the context is open: op results need no
    gradients, whatever their inputs. Recording resumes when the last open
    context exits, also when the block raises. The switch is process-wide:
    several threads may embed at once, but none may train while another is
    inside this context."""
    global _recording, _no_grad_open
    with _no_grad_lock:
        _no_grad_open += 1
        _recording = False
    try:
        yield
    finally:
        with _no_grad_lock:
            _no_grad_open -= 1
            _recording = _no_grad_open == 0


def is_recording() -> bool:
    """Whether ops record their graph (False inside ``no_grad``)."""
    return _recording


def _op(data: Array, parents: tuple[Tensor, ...], backward_fn: Callable[[Array], None]) -> Tensor:
    """Build an op-result tensor, recording it when any parent needs gradients
    and recording is on."""
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
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
    if loss._consumed:
        raise ContractError("backward already ran for this recorded graph")
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
    for node in reversed(topo):
        g = node.grad if node.grad is not None else np.zeros_like(node.data)
        node._backward_fn(g)  # type: ignore[misc]

    loss._consumed = True
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g: Array) -> None:
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

    def bw(g: Array) -> None:
        if a.requires_grad:
            _accum(a, g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            # one b for every slice: sum the slices' gradients in slice order
            _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _op(data, (a, b), bw)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose needs a tensor of rank 2 or more, got shape {x.data.shape}")

    def bw(g: Array) -> None:
        _accum(x, g.swapaxes(-1, -2))

    return _op(x.data.swapaxes(-1, -2), (x,), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight + bias`` for x [..., n, d], weight [d, k], bias [k]."""
    if x.data.ndim < 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear needs input of rank 2 or more and a rank-2 weight, "
                         f"got {x.data.shape} and {weight.data.shape}")
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(f"linear dimension mismatch: input {x.data.shape} vs weight {weight.data.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeError(f"linear bias shape {bias.data.shape} does not match weight {weight.data.shape}")
    return add(matmul(x, weight), bias)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bw(g: Array) -> None:
        _accum(x, g * mask)

    return _op(x.data * mask, (x,), bw)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    factor = np.where(x.data > 0, 1.0, negative_slope)

    def bw(g: Array) -> None:
        _accum(x, g * factor)

    return _op(x.data * factor, (x,), bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis with per-row max subtraction for overflow safety."""
    if x.data.ndim < 2:
        raise ShapeError(f"softmax_rows needs a tensor of rank 2 or more, got shape {x.data.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g: Array) -> None:
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, (g - inner) * y)

    return _op(y, (x,), bw)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate) at train time, identity in eval."""
    if not 0.0 <= rate < 1.0:
        raise DataError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs a seeded random generator")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)

    def bw(g: Array) -> None:
        _accum(x, g * keep)

    return _op(x.data * keep, (x,), bw)


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean over rows of -log softmax(logits)[i, targets[i]]."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy needs rank-2 logits, got shape {logits.data.shape}")
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, c = logits.data.shape
    if t.shape[0] != n:
        raise ShapeError(f"{t.shape[0]} targets for {n} logit rows")
    for i, ti in enumerate(t):
        if not 0 <= ti < c:
            raise LabelError(f"target {ti} out of range [0, {c}) at row {i}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(n), t].mean()

    def bw(g: Array) -> None:
        p = np.exp(logp)
        p[np.arange(n), t] -= 1.0
        _accum(logits, (float(g.sum()) / n) * p)

    return _op(np.asarray(loss), (logits,), bw)


def take_rows(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather entries along ``axis`` (rows by default); an index array of any
    shape replaces that axis. Gradients scatter-add back; with one index row
    per slice, each slice scatters on its own and the slices add in order."""
    idx = np.asarray(indices, dtype=np.int64)
    data = x.data[idx] if axis == 0 else np.take(x.data, idx, axis=axis)

    def bw(g: Array) -> None:
        gx = np.zeros_like(x.data)
        if axis == 0 and idx.ndim > 1:
            for rows, g_rows in zip(idx, g):
                part = np.zeros_like(x.data)
                np.add.at(part, rows, g_rows)
                gx += part
        elif axis == 0:
            np.add.at(gx, idx, g)
        else:
            np.add.at(np.moveaxis(gx, axis, 0), idx, np.moveaxis(g, axis, 0))
        _accum(x, gx)

    return _op(data, (x,), bw)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix."""
    rows = list(rows)
    if not rows:
        raise ShapeError("stack_rows needs at least one row")
    shape = rows[0].data.shape
    if len(shape) != 1 or any(r.data.shape != shape for r in rows):
        raise ShapeError("stack_rows needs 1-D tensors of identical length")
    data = np.stack([r.data for r in rows])

    def bw(g: Array) -> None:
        for i, r in enumerate(rows):
            _accum(r, g[i])

    return _op(data, tuple(rows), bw)


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


def sum_all(x: Tensor) -> Tensor:
    def bw(g: Array) -> None:
        _accum(x, np.full(x.data.shape, float(g.sum())))

    return _op(np.asarray(x.data.sum()), (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    def bw(g: Array) -> None:
        _accum(x, g.reshape(x.data.shape))

    return _op(x.data.reshape(shape), (x,), bw)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis to zero mean / unit variance, then gain and bias."""
    if x.data.ndim < 2:
        raise ShapeError(f"layer_norm_rows needs a tensor of rank 2 or more, got shape {x.data.shape}")
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer norm gain/bias must have shape ({d},)")
    # sum / d is exactly what ndarray.mean computes, minus its Python overhead
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv

    def bw(g: Array) -> None:
        _accum(bias, _unbroadcast(g, bias.data.shape))
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        gh = g * gain.data
        m1 = gh.sum(axis=-1, keepdims=True) / d
        m2 = (gh * xhat).sum(axis=-1, keepdims=True) / d
        _accum(x, inv * (gh - m1 - xhat * m2))

    return _op(xhat * gain.data + bias.data, (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# parameter initialization


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    limit = math.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, (rows, cols)), requires_grad=True)


def normal_param(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    return Tensor(rng.normal(0.0, std, shape), requires_grad=True)


def zeros_param(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape: int) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Bias-corrected Adam; updates parameters in place. Only the learning
    rate is a setting: the moment decays and epsilon are the usual constants."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Iterable[Tensor], lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update from each parameter's ``.grad``; a missing
        gradient counts as zero."""
        self.step_count += 1
        bc1 = 1.0 - self.BETA1 ** self.step_count
        bc2 = 1.0 - self.BETA2 ** self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# gradient checking


def _max_rel_err(a: Array, b: Array) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    err = np.abs(a - b) / denom
    return float(err.max()) if err.size else 0.0


def _check_scalar_deterministic(f) -> Tensor:
    out1 = f()
    out2 = f()
    if out1.data.size != 1 or out2.data.size != 1:
        raise ContractError(f"grad check needs a scalar-valued function, got shape {out1.data.shape}")
    if not np.array_equal(out1.data, out2.data):
        raise ContractError("grad check needs a deterministic function; two forward passes differ")
    return out2


def grad_check_params(f, params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between the analytic and the central finite-difference
    gradients of a zero-argument, scalar-valued closure over ``params``."""
    out = _check_scalar_deterministic(f)
    for p in params:
        p.grad = None
    if out._backward_fn is not None:
        backward(out)
    worst = 0.0
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False  # no need to record graphs during FD sweeps
    try:
        for p in params:
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            fd = np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            fdf = fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = f().item()
                flat[i] = orig - h
                lo = f().item()
                flat[i] = orig
                fdf[i] = (hi - lo) / (2.0 * h)
            worst = max(worst, _max_rel_err(analytic, fd))
    finally:
        for p, was in zip(params, flags):
            p.requires_grad = was
            p.grad = None
    return worst
