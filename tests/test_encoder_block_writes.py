"""The fused encoder block works in place on arrays it allocated itself.

Its input, its parameters and the gradient it is handed can be frozen-prefix
cache entries, optimizer arena views or views of another op's gradient, so
forward and backward must leave every one of them byte for byte as it was.
"""

import numpy as np
import pytest

from setn import autodiff as ad
from setn.autodiff import Adam, Tensor, backward, no_grad
from setn.text import EncoderBlock, TextEncoder

from op_by_op import mul, sum_all


def _block_params(dim, seed):
    """A block's parameters, with gains and biases moved off 1 and 0."""
    block = EncoderBlock(dim, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    params = [p for _, p in block.named_params()]
    for p in params:
        p.data += rng.normal(0.0, 0.3, p.data.shape)
    return params


def _freeze(*arrays):
    """Make ``arrays`` read-only, so that any write raises, and return copies
    of them as they were."""
    for a in arrays:
        a.flags.writeable = False
    return [a.copy() for a in arrays]


def _spy_on_incoming_gradient(out):
    """Wrap ``out``'s backward to freeze the gradient it is handed and keep
    it with a copy."""
    seen = []
    inner = out._backward_fn

    def spy(g):
        seen.append((g, *_freeze(g)))
        inner(g)

    out._backward_fn = spy
    return seen


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _signed_zeros(a, rng):
    """Set a fifth of ``a``'s entries to -0.0, which any ``+ 0.0`` would flip."""
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


@pytest.mark.parametrize("shape", [(3, 5, 8), (5, 8), (1, 1, 8), (3, 5, 1)])
def test_recorded_block_writes_neither_input_nor_parameters_nor_incoming_gradient(shape):
    params = _block_params(shape[-1], shape[-2])
    Adam(params)  # every parameter becomes a view of one arena
    rng = np.random.default_rng(shape[0])
    x = Tensor(_signed_zeros(rng.normal(size=shape), rng), requires_grad=True)
    before = _freeze(x.data, *(p.data for p in params))
    out = ad.encoder_block(x, params)
    seen = _spy_on_incoming_gradient(out)
    backward(sum_all(mul(out, Tensor(rng.normal(size=shape)))))
    assert len(seen) == 1 and _same_bytes(*seen[0])
    for now, then in zip((x.data, *(p.data for p in params)), before):
        assert _same_bytes(now, then)
    assert x.grad is not None and all(p.grad is not None for p in params)


@pytest.mark.parametrize("shape", [(3, 5, 8), (3, 5, 1), (4, 1)])
def test_the_arrays_a_recorded_block_keeps_share_no_buffer(shape):
    """Forward reuses buffers it is done with, so each array backward reads
    must still be its own: with d = 1 a transposed k is contiguous already,
    and a view of it would be overwritten by the first layer norm."""
    params = _block_params(shape[-1], shape[-2])
    x = Tensor(np.random.default_rng(shape[0]).normal(size=shape), requires_grad=True)
    out = ad.encoder_block(x, params)
    kept = [c.cell_contents for c in out._backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    # x.data, q, kt, v, attn, ctx, h1, xhat1, inv1, hidden, mask, xhat2, inv2
    assert len(kept) == 13
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("mode", ["no_grad", "nothing_trainable"])
@pytest.mark.parametrize("shape", [(3, 5, 8), (5, 8), (4, 1)])
def test_unrecorded_block_keeps_nothing_and_equals_the_recorded_output(shape, mode):
    params = _block_params(shape[-1], shape[-2])
    rng = np.random.default_rng(shape[0])
    x = Tensor(_signed_zeros(rng.normal(size=shape), rng), requires_grad=True)
    recorded = ad.encoder_block(x, params)
    before = _freeze(x.data, *(p.data for p in params))
    if mode == "no_grad":
        with no_grad():
            out = ad.encoder_block(x, params)
    else:
        for t in (x, *params):
            t.requires_grad = False
        out = ad.encoder_block(x, params)
    assert out._backward_fn is None and out._parents == () and not out.requires_grad
    assert _same_bytes(out.data, recorded.data)
    for now, then in zip((x.data, *(p.data for p in params)), before):
        assert _same_bytes(now, then)


def test_block_leaves_the_frozen_prefix_cache_entries_it_reads_unchanged():
    enc = TextEncoder(20, 8, 2, np.random.default_rng(3), max_len=16)
    enc.set_trainable("last")
    ids = [[2, 5, 7, 9], [2, 4, 4, 11], [2, 5, 7, 9]]
    weights = Tensor(np.random.default_rng(4).normal(size=(3, 4, 8)))
    with enc.frozen_prefix_cache():
        backward(sum_all(mul(enc.encode(ids), weights)))
        entries = dict(zip(enc._prefix_cache, _freeze(*enc._prefix_cache.values())))
        assert len(entries) == 2
        for _ in range(2):  # cache hits, recorded and not
            backward(sum_all(mul(enc.encode(ids), weights)))
            with no_grad():
                enc.encode(ids)
        assert enc._prefix_cache.keys() == entries.keys()
        for key, state in enc._prefix_cache.items():
            assert _same_bytes(state, entries[key])
