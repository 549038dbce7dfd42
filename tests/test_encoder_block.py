"""The fused encoder block against the op-by-op graph it replaced.

``reference_forward`` is that graph: the block built from recorded
``linear``, ``transpose``, ``matmul``, ``mul``, ``softmax_rows``, ``add`` and
``relu`` nodes (all but ``add`` and ``relu`` from the ``op_by_op`` oracle
module) and a layer norm op kept here. The fused op must give the same
output and the same gradients, bit for bit.
"""

import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setn import autodiff as ad
from setn.autodiff import Adam, Tensor, _accum, _op, _unbroadcast, backward, no_grad
from setn.errors import NonFiniteError
from setn.text import ENCODER_POLICIES, EncoderBlock, TextEncoder

from op_by_op import linear, matmul, mul, softmax_rows, sum_all, transpose


def layer_norm_rows(x, gain, bias):
    """Normalization over the last axis to zero mean / unit variance, then gain and bias."""
    d = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + ad._NORM_EPS)
    xhat = xc * inv

    def bw(g):
        _accum(bias, _unbroadcast(g, bias.data.shape))
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        gh = g * gain.data
        m1 = gh.sum(axis=-1, keepdims=True) / d
        m2 = (gh * xhat).sum(axis=-1, keepdims=True) / d
        _accum(x, inv * (gh - m1 - xhat * m2))

    return _op(xhat * gain.data + bias.data, (x, gain, bias), bw)


def reference_forward(block, x):
    """``EncoderBlock.forward`` as one recorded node per op."""
    q = linear(x, block.attn_q_w, block.attn_q_b)
    k = linear(x, block.attn_k_w, block.attn_k_b)
    v = linear(x, block.attn_v_w, block.attn_v_b)
    scores = mul(matmul(q, transpose(k)), Tensor(1.0 / math.sqrt(block.dim)))
    ctx = matmul(softmax_rows(scores), v)
    attended = linear(ctx, block.attn_o_w, block.attn_o_b)
    x = layer_norm_rows(ad.add(x, attended), block.norm1_gain, block.norm1_bias)
    hidden = ad.relu(linear(x, block.ff1_w, block.ff1_b))
    ff = linear(hidden, block.ff2_w, block.ff2_b)
    return layer_norm_rows(ad.add(x, ff), block.norm2_gain, block.norm2_bias)


def _random_block(dim, seed):
    """A block whose gains and biases are not the 1 and 0 they start at."""
    block = EncoderBlock(dim, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    params = [p for _, p in block.named_params()]
    with ad.writing(*params):
        for p in params:
            p.data += rng.normal(0.0, 0.3, p.data.shape)
    return block


def _run(forward, x, weights, params):
    """Output and the gradients of ``sum(forward(x) * weights)`` to ``params``."""
    out = forward(x)
    if out.requires_grad:
        backward(sum_all(mul(out, Tensor(weights))))
    grads = [None if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    return out.data, grads


def _assert_same(fused, reference):
    (out, grads), (ref_out, ref_grads) = fused, reference
    assert np.array_equal(out, ref_out)
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        if g is not None:
            assert np.array_equal(g, ref)


SHAPES = [(1, 1, 8), (1, 5, 8), (3, 1, 8), (4, 6, 8), (7, 9, 16), (2, 11, 64), (6, 16), (1, 8),
          (3, 5, 1), (4, 1)]


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_fused_block_equals_the_op_by_op_graph(shape, input_grad):
    seed = shape[-2] * 10 + shape[-1]
    block = _random_block(shape[-1], seed)
    rng = np.random.default_rng(seed + 2)
    x = Tensor(rng.normal(size=shape), requires_grad=input_grad)
    weights = rng.normal(size=shape)
    params = [x] + [p for _, p in block.named_params()]
    fused = _run(block.forward, x, weights, params)
    reference = _run(lambda t: reference_forward(block, t), x, weights, params)
    _assert_same(fused, reference)
    assert (fused[1][0] is not None) == input_grad


@pytest.mark.parametrize("policy", ENCODER_POLICIES)
@pytest.mark.parametrize("batch, length", [(1, 1), (1, 6), (3, 1), (4, 7)])
def test_encoder_under_every_policy_equals_the_op_by_op_graph(policy, batch, length, monkeypatch):
    enc = TextEncoder(20, 8, 2, np.random.default_rng(batch * 10 + length), max_len=16)
    enc.set_trainable(policy)
    rng = np.random.default_rng(length)
    ids = rng.integers(0, 20, size=(batch, length)).tolist()
    weights = rng.normal(size=(batch, length, 8))
    params = [p for _, p in enc.named_params()]
    fused = _run(enc.encode, ids, weights, params)
    monkeypatch.setattr(EncoderBlock, "forward", reference_forward)
    reference = _run(enc.encode, ids, weights, params)
    _assert_same(fused, reference)
    trained = [g is not None for g in fused[1]]
    assert any(trained) == (policy != "none")


def test_a_recorded_block_is_one_node():
    block = _random_block(8, 0)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8)), requires_grad=True)
    out = block.forward(x)
    params = [x] + [p for _, p in block.named_params()]
    assert len(out._parents) == 17
    assert all(a is b for a, b in zip(out._parents, params))
    with no_grad():
        assert block.forward(x)._parents == ()


def test_minus_infinite_scores_that_the_softmax_absorbs_still_raise():
    """Row 0 of the scaled scores is [0, -inf]: its max is finite and the
    softmax maps the -inf to a weight of 0, so the block output would be
    finite. Like the op-by-op graph, the block still refuses it."""
    block = EncoderBlock(4, np.random.default_rng(0))
    params = [p for _, p in block.named_params()]
    with ad.writing(*params):
        for p in params:
            p.data[...] = 0.0
        block.attn_q_w.data[0, 0] = 1e200   # q_0 = (1e200, 0, 0, 0), q_1 = 0
        block.attn_k_w.data[1, 0] = -1e200  # k_0 = 0, k_1 = (-1e200, 0, 0, 0)
    x = Tensor(np.eye(4)[None, :2])
    with np.errstate(over="ignore"):
        scores = (x.data @ block.attn_q_w.data) @ (x.data @ block.attn_k_w.data).swapaxes(-1, -2)
        for forward in (block.forward, lambda t: reference_forward(block, t)):
            with pytest.raises(NonFiniteError):
                forward(x)
    assert np.isneginf(scores[0, 0, 1]) and np.isfinite(scores.max(axis=-1)).all()


def _with_signed_zeros(a, rng):
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


def _run_frozen(forward, x, weights, params, zero_grads):
    """``_run`` on read-only arrays: the output, each gradient of ``x`` and
    ``params``, the incoming gradient of a recorded output with its bytes as
    handed over, and the arrays its backward closure keeps."""
    out = forward(x)
    incoming, kept = [], []
    if out.requires_grad:
        kept = [c.cell_contents for c in out._backward_fn.__closure__ or ()
                if isinstance(c.cell_contents, np.ndarray)]
        inner = out._backward_fn

        def spy(g):
            g.flags.writeable = False
            incoming.append((g, g.tobytes()))
            inner(g)

        out._backward_fn = spy
        backward(sum_all(mul(out, Tensor(weights))))
    grads = [None if p.grad is None else p.grad.tobytes() for p in (x, *params)]
    zero_grads()
    return out, grads, incoming, kept


@settings(max_examples=80, deadline=None, derandomize=True)
@given(batch=st.lists(st.integers(1, 3), max_size=2), length=st.integers(1, 6),
       dim=st.integers(1, 9), input_grad=st.booleans(),
       trained=st.lists(st.booleans(), min_size=16, max_size=16), recorded=st.booleans(),
       arena=st.booleans(), seed=st.integers(0, 2**16))
def test_fused_block_equals_the_op_by_op_graph_for_any_case(batch, length, dim, input_grad,
                                                            trained, recorded, arena, seed):
    """Any batch axes, length and width, any trainable subset, recorded or
    not: the fused block's output and gradients are the op-by-op graph's byte
    for byte, it writes none of the read-only arrays it is handed (input with
    -0.0 entries, parameters, possibly Adam arena views, and the incoming
    gradient), and the arrays a recorded block keeps share no memory."""
    shape = (*batch, length, dim)
    block = _random_block(dim, seed)
    params = [p for _, p in block.named_params()]
    for p, flag in zip(params, trained):
        p.requires_grad = flag
    rng = np.random.default_rng(seed + 2)
    x = Tensor(_with_signed_zeros(rng.normal(size=shape), rng), requires_grad=input_grad)
    weights = _with_signed_zeros(rng.normal(size=shape), rng)
    adam = Adam(params) if arena else None

    def zero_grads():
        x.grad = None
        if adam is None:
            for p in params:
                p.grad = None
        else:
            adam.zero_grad()

    handed = [x.data, *(p.data for p in params)]
    for a in handed:
        a.flags.writeable = False
    before = [a.tobytes() for a in handed]
    runs = []
    for forward in (block.forward, lambda t: reference_forward(block, t)):
        with nullcontext() if recorded else no_grad():
            runs.append(_run_frozen(forward, x, weights, params, zero_grads))
    (out, grads, incoming, kept), (ref_out, ref_grads, _, _) = runs
    assert out.data.tobytes() == ref_out.data.tobytes()
    assert grads == ref_grads
    assert [a.tobytes() for a in handed] == before
    assert all(g.tobytes() == then for g, then in incoming)
    will_record = recorded and (input_grad or any(trained))
    assert out.requires_grad == will_record and len(incoming) == will_record
    assert len(kept) == (13 if will_record else 0)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not np.shares_memory(a, b)
