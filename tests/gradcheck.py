"""The tests' gradient checker: analytic gradients against central finite
differences."""

from typing import Sequence

import numpy as np

from setn.autodiff import Array, Tensor, backward, no_grad, writing
from setn.errors import ContractError


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


def _leaves(out: Tensor) -> list[Tensor]:
    """The leaves needing gradients that ``out``'s recorded graph reaches:
    those ``backward(out)`` writes to."""
    leaves, seen, stack = [], set(), [out]
    while stack:
        for p in stack.pop()._parents:
            if p not in seen:
                seen.add(p)
                if p._backward_fn is not None:
                    stack.append(p)
                elif p.requires_grad:
                    leaves.append(p)
    return leaves


def grad_check_params(f, params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between the analytic and the central finite-difference
    gradients of a zero-argument, scalar-valued closure over ``params``. Every
    leaf the check's ``backward`` writes, in ``params`` or not, ends with
    ``.grad`` None."""
    out = _check_scalar_deterministic(f)
    touched = [*params, *_leaves(out)]
    for p in touched:
        p.grad = None
    if out._backward_fn is not None:
        backward(out)
    worst = 0.0
    try:
        with no_grad():  # the sweeps need values only
            for p in params:
                analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
                fd = np.zeros_like(p.data)
                fdf = fd.reshape(-1)

                def put(i, value):  # through the writer, which bumps p.version
                    with writing(p):
                        p.data.reshape(-1)[i] = value

                for i in range(fdf.size):
                    orig = p.data.reshape(-1)[i]
                    try:
                        put(i, orig + h)
                        hi = f().item()
                        put(i, orig - h)
                        lo = f().item()
                    finally:
                        put(i, orig)
                    fdf[i] = (hi - lo) / (2.0 * h)
                worst = max(worst, _max_rel_err(analytic, fd))
    finally:
        for p in touched:
            p.grad = None
    return worst
