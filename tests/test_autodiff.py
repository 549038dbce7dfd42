import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setn
from setn import autodiff as ad
from setn.autodiff import (Adam, Tensor, add, backward, cross_entropy,
                           dropout, encoder_block, is_recording, linear, max_rows,
                           mean_rows, no_grad, place_rows, relu, take_rows)
from setn.errors import ContractError, DataError, LabelError, ShapeError
from setn.text import EncoderBlock

import op_by_op
from gradcheck import grad_check_params
from op_by_op import leaky_relu, matmul, mul, softmax_rows, sum_all, transpose


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([float("inf")])


def test_tensor_shape_and_item():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ShapeError):
        t.item()


# ---------------------------------------------------------------------------
# linear


def test_linear_identity_weight():
    out = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linear_hand_sum():
    out = linear(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
    assert np.array_equal(out.data, [[6.0]])


def _naive_linear(x, w, b):
    n, d = x.shape
    _, k = w.shape
    out = np.zeros((n, k))
    for i in range(n):
        for j in range(k):
            acc = b[j]
            for m in range(d):
                acc += x[i, m] * w[m, j]
            out[i, j] = acc
    return out


def test_linear_matches_naive_triple_loop():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    assert np.max(np.abs(out.data - _naive_linear(x, w, b))) < 1e-12


def test_linear_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


# ---------------------------------------------------------------------------
# activations


def test_relu_negative():
    assert relu(Tensor([-3.0])).data[0] == 0.0


def test_leaky_relu_slope():
    assert leaky_relu(Tensor([-1.0])).data[0] == pytest.approx(-0.2)


def test_softmax_symmetry():
    out = softmax_rows(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_softmax_requires_rank_2():
    with pytest.raises(ShapeError):
        softmax_rows(Tensor([1.0, 2.0]))


def test_softmax_rows_sum_to_one_and_lie_in_unit_interval():
    # scale kept moderate: a dominant logit saturates float64 to exactly 1.0
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(scale=rng.uniform(0.1, 2.0), size=(4, 7))
        y = softmax_rows(Tensor(x)).data
        assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(y > 0) and np.all(y < 1)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_is_identity():
    x = Tensor([[1.0, 2.0]])
    assert dropout(x, 0.0, rng=np.random.default_rng(0)) is x


def test_dropout_eval_mode_is_identity():
    x = Tensor([[1.0, 2.0]])
    assert dropout(x, 0.2) is x


def test_dropout_preserves_mean_at_scale():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones(10000))
    out = dropout(x, 0.5, rng=rng)
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_rejects_bad_rate():
    for rate in (-0.1, 1.0, 1.5, float("nan"), True, "0.2", None):
        for rng in (np.random.default_rng(0), None):
            with pytest.raises(DataError, match=r"^dropout rate must be in \[0, 1\), got "):
                dropout(Tensor([1.0]), rate, rng=rng)


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones(1000), requires_grad=True)
    out = dropout(x, 0.3, rng=np.random.default_rng(9))
    kept = out.data > 0
    backward(sum_all(out))
    assert np.allclose(x.grad[kept], 1.0 / 0.7)
    assert np.all(x.grad[~kept] == 0.0)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    assert cross_entropy(Tensor([0.0, 0.0]), 0).item() == pytest.approx(math.log(2), abs=1e-12)
    assert cross_entropy(Tensor(np.zeros(17)), 4).item() == pytest.approx(math.log(17), abs=1e-12)


def test_cross_entropy_confident_correct():
    assert cross_entropy(Tensor([10.0, -10.0]), 0).item() < 1e-4


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelError) as exc:
        cross_entropy(Tensor([0.0, 0.0]), 2)
    assert "2" in str(exc.value)
    with pytest.raises(LabelError):
        cross_entropy(Tensor([0.0, 0.0]), -1)


def test_cross_entropy_non_negative():
    rng = np.random.default_rng(3)
    for _ in range(25):
        logits = rng.normal(scale=5, size=6)
        assert cross_entropy(Tensor(logits), int(rng.integers(0, 6))).item() >= 0.0


def test_cross_entropy_scores_one_row_only():
    with pytest.raises(ShapeError, match="one row"):
        cross_entropy(Tensor([[0.0, 0.0]]), 0)


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_matmul_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    err = grad_check_params(lambda: sum_all(matmul(x, w)), [x, w])
    assert err < 1e-6


def test_backward_skips_frozen_leaves():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    w = Tensor(np.eye(2), requires_grad=False)
    backward(sum_all(matmul(x, w)))
    assert x.grad is not None
    assert w.grad is None


def test_double_backward_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_all(x)
    backward(loss)
    with pytest.raises(ContractError):
        backward(loss)


def test_backward_requires_scalar():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(ContractError):
        backward(relu(x))


def test_backward_requires_recorded_loss():
    with pytest.raises(ContractError):
        backward(Tensor(1.0))


def test_composite_gradient_linear_activation_cross_entropy():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)

    def f():
        out = linear(relu(linear(x, w, b)), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        return add(cross_entropy(take_rows(out, 0), 0), cross_entropy(take_rows(out, 1), 2))

    err = grad_check_params(f, [x, w, b])
    assert err < 1e-4


def test_gradients_accumulate_when_tensor_reused():
    x = Tensor([2.0], requires_grad=True)
    backward(sum_all(add(x, x)))
    assert np.array_equal(x.grad, [2.0])


def test_take_and_stack_roundtrip_gradients():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    rows = [take_rows(x, [i]) for i in (0, 2, 2)]
    stacked = place_rows(rows, [[0], [1], [2]])
    backward(sum_all(stacked))
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 2.0
    assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("index_shape", [(5, 7), (3, 2, 4)])
def test_batched_take_rows_gradient_equals_a_whole_table_scatter_per_slice(index_shape,
                                                                           monkeypatch):
    """Each slice of a batch of index rows scatters into the table rows it
    touches only, and the table's gradient is byte for byte that of
    scattering each slice into a zero table of its own and adding the tables
    in slice order, -0.0 gradients included. Row 8 is taken only as -1 in
    one slice and as both -1 and 8 in another, which must add into one row."""
    rng = np.random.default_rng(29)
    table = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    idx = rng.integers(0, 7, size=index_shape)  # row 7 is never taken
    idx[0].flat[0] = -1
    idx[1].flat[:2] = -1, 8
    g = rng.normal(size=index_shape + (3,))
    g[rng.random(g.shape) < 0.4] = -0.0
    g[0] = -0.0
    expected = np.zeros_like(table.data)
    for rows, g_rows in zip(idx, g):
        part = np.zeros_like(table.data)
        np.add.at(part, rows, g_rows)
        expected += part
    scattered = []
    monkeypatch.setattr(ad, "_accum", lambda t, gx: scattered.append(gx.copy()))
    take_rows(table, idx)._backward_fn(g)
    assert len(scattered) == 1 and scattered[0].tobytes() == expected.tobytes()


def _read_only(array):
    array.setflags(write=False)
    return array


def _take_rows_gradient(table, idx, g, axis):
    """The table gradient ``take_rows``' backward hands to ``_accum``."""
    scattered = []
    with mock.patch.object(ad, "_accum", lambda t, gx: scattered.append(gx.copy())):
        take_rows(table, idx, axis=axis)._backward_fn(g)
    assert len(scattered) == 1
    return scattered[0]


_GRADIENTS = st.sampled_from([-0.0, 0.0, 1.0, -2.5]) | st.floats(-8, 8, width=64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n_rows=st.integers(1, 6), width=st.integers(1, 3),
       index_shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
       both_ends=st.booleans())
def test_take_rows_backward_equals_a_whole_table_scatter_per_slice_for_any_index(
        data, n_rows, width, index_shape, both_ends):
    """For a 1-3-D index array, possibly with -1 and V - 1 in one slice, the
    gradient equals byte for byte scattering each slice (the whole array if
    it is 1-D) into a zero table with ``np.add.at`` and adding the tables in
    slice order; read-only inputs and -0.0 gradients included."""
    idx = data.draw(hnp.arrays(np.int64, index_shape, elements=st.integers(-n_rows, n_rows - 1)))
    first = idx[0] if idx.ndim > 1 else idx
    if both_ends and first.size >= 2:
        first.flat[0], first.flat[-1] = -1, n_rows - 1
    g = data.draw(hnp.arrays(np.float64, index_shape + (width,), elements=_GRADIENTS))
    table = Tensor(data.draw(hnp.arrays(np.float64, (n_rows, width), elements=_GRADIENTS)),
                   requires_grad=True)
    _read_only(table.data)
    expected = np.zeros_like(table.data)
    for rows, g_rows in zip(idx, g) if idx.ndim > 1 else [(idx, g)]:
        part = np.zeros_like(table.data)
        np.add.at(part, rows, g_rows)
        expected += part
    got = _take_rows_gradient(table, _read_only(idx.copy()), _read_only(g.copy()), axis=0)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)),
       as_list=st.booleans())
def test_take_rows_backward_along_axis_minus_2_with_a_single_index(data, shape, as_list):
    """``pool``'s CLS read: one index along axis -2, as a scalar or a list of
    one, routes the gradient to that row of every slice and leaves zeros
    elsewhere, byte for byte."""
    batch, length, width = shape
    i = data.draw(st.integers(-length, length - 1))
    x = Tensor(np.arange(batch * length * width, dtype=np.float64).reshape(shape),
               requires_grad=True)
    _read_only(x.data)
    out_shape = (batch, 1, width) if as_list else (batch, width)
    g = data.draw(hnp.arrays(np.float64, out_shape, elements=_GRADIENTS))
    expected = np.zeros(shape)
    expected[:, i, :] += g[:, 0, :] if as_list else g
    got = _take_rows_gradient(x, [i] if as_list else i, _read_only(g.copy()), axis=-2)
    assert got.tobytes() == expected.tobytes()


def test_place_rows_interleaves_and_routes_gradients_back():
    a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    b = Tensor(-np.arange(4.0).reshape(2, 2), requires_grad=True)
    out = place_rows([a, b], [[0, 3, 4], [2, 1]])
    assert np.array_equal(out.data, [a.data[0], b.data[1], b.data[0], a.data[1], a.data[2]])
    upstream = np.arange(10.0).reshape(5, 2)
    backward(sum_all(mul(out, Tensor(upstream))))
    assert np.array_equal(a.grad, upstream[[0, 3, 4]])
    assert np.array_equal(b.grad, upstream[[2, 1]])
    for parts, rows in (([], []), ([a], [[0, 1]]), ([a, b], [[0, 1, 2]]),
                        ([a, b], [[0, 1, 2], [3, 3]]), ([a, b], [[0, 1, 2], [3, 5]])):
        with pytest.raises(ShapeError):
            place_rows(parts, rows)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_learning_rate_sized():
    theta = Tensor(np.zeros(3), requires_grad=True)
    theta.grad = np.full(3, 0.5)
    Adam([theta], lr=0.001).step()
    assert np.all(np.abs(theta.data + 0.001) < 1e-6)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    theta = Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam([theta])
    theta.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(theta.data, [1.0, -2.0])


def test_adam_converges_on_quadratic():
    theta = Tensor(0.0, requires_grad=True)
    opt = Adam([theta], lr=0.1)
    for _ in range(100):
        theta.grad = 2.0 * (theta.data - 3.0)
        opt.step()
    assert abs(theta.item() - 3.0) < 0.1


def test_adam_is_deterministic():
    results = []
    for _ in range(2):
        theta = Tensor([0.3, -0.7], requires_grad=True)
        opt = Adam([theta], lr=0.01)
        for step in range(10):
            theta.grad = np.array([0.1 * step, -0.2])
            opt.step()
        results.append(theta.data.copy())
    assert np.array_equal(results[0], results[1])


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_relu_away_from_kinks():
    x = Tensor([[0.5, -0.3], [1.2, -2.0]], requires_grad=True)
    assert grad_check_params(lambda: sum_all(relu(x)), [x]) < 1e-6


def test_grad_check_clears_the_gradient_of_a_leaf_left_out_of_params():
    x = Tensor([[0.5, -0.3]], requires_grad=True)
    w = Tensor([[1.2], [-2.0]], requires_grad=True)
    assert grad_check_params(lambda: sum_all(matmul(x, w)), [x]) < 1e-6
    assert x.grad is None and w.grad is None
    backward(sum_all(matmul(x, w)))  # adds onto nothing the check left
    assert np.array_equal(w.grad, x.data.T)


def test_grad_check_constant_function():
    x = Tensor([1.0, 2.0], requires_grad=True)
    assert grad_check_params(lambda: Tensor(4.0), [x]) == 0.0


def test_grad_check_rejects_a_vector_valued_function():
    with pytest.raises(ContractError) as exc:
        grad_check_params(lambda: Tensor(np.ones(2)), [])
    assert type(exc.value) is ContractError and "shape (2,)" in str(exc.value)


def test_grad_check_rejects_nondeterministic_function():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones(4), requires_grad=True)

    def noisy(t):
        return sum_all(dropout(t, 0.5, rng=rng))

    with pytest.raises(ContractError):
        grad_check_params(lambda: noisy(x), [x])


@pytest.mark.parametrize("fail_at", [None, 3])
def test_grad_check_leaves_parameters_and_recording_as_it_found_them(fail_at):
    x = Tensor([[0.5, -0.3], [1.2, -2.0]], requires_grad=True)
    w = Tensor([[0.7, 0.1], [-0.4, 0.9]], requires_grad=True)
    frozen = Tensor([1.5, -0.5])
    params = [x, w, frozen]
    data = [p.data.copy() for p in params]
    calls = []

    def f():
        calls.append(is_recording())
        if len(calls) == fail_at:
            raise RuntimeError("stop")
        return sum_all(matmul(x, w))

    if fail_at is None:
        assert grad_check_params(f, params) < 1e-6
    else:
        with pytest.raises(RuntimeError, match="stop"):
            grad_check_params(f, params)
    assert calls[:2] == [True, True] and not any(calls[2:])  # sweeps record nothing
    assert is_recording()
    assert [p.requires_grad for p in params] == [True, True, False]
    assert all(p.grad is None for p in params)  # as before the check
    for p, before in zip(params, data):
        assert np.array_equal(p.data, before)


# ---------------------------------------------------------------------------
# leading batch axes


def _probe(t):
    """A scalar with a different upstream gradient for every entry of ``t``."""
    weights = np.random.default_rng(0).normal(size=t.data.shape)
    return sum_all(mul(t, Tensor(weights)))


_rng = np.random.default_rng(21)
_W = Tensor(_rng.normal(size=(4, 3)), requires_grad=True)
_BIAS = Tensor(_rng.normal(size=3), requires_grad=True)
_GAIN = Tensor(_rng.normal(size=4), requires_grad=True)
_SHIFT = Tensor(_rng.normal(size=4), requires_grad=True)
_OTHER = Tensor(_rng.normal(size=(2, 4, 5)), requires_grad=True)
# A width-4 encoder block whose last layer norm has the gain and shift above.
# The key bias shifts each row of scores by a constant, which softmax ignores:
# its true gradient is zero and finite differences see only noise, so it is
# held constant here.
_block_rng = np.random.default_rng(22)
_BLOCK = [{"norm2_gain": _GAIN, "norm2_bias": _SHIFT}.get(name)
          or Tensor(_block_rng.normal(0.0, 0.5, shape), requires_grad=name != "attn_k_b")
          for name, shape in EncoderBlock.param_table(4)]
_BLOCK_TRAINED = [p for p in _BLOCK if p.requires_grad]

# name -> (op on one tensor, the parameters it reads besides its input)
BATCHED_OPS = {
    "matmul_shared": (lambda x: matmul(x, _W), [_W]),
    "matmul_batched": (lambda x: matmul(x, _OTHER), [_OTHER]),
    "linear": (lambda x: linear(x, _W, _BIAS), [_W, _BIAS]),
    "transpose": (transpose, []),
    "softmax_rows": (softmax_rows, []),
    "encoder_block": (lambda x: encoder_block(x, _BLOCK), _BLOCK_TRAINED),
    "mean_rows": (mean_rows, []),
    "max_rows": (max_rows, []),
    "take_rows_axis_-2": (lambda x: take_rows(x, [2, 0, 2], axis=-2), []),
}


@pytest.mark.parametrize("name", sorted(BATCHED_OPS))
def test_rank3_ops_match_finite_differences(name):
    op, params = BATCHED_OPS[name]
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4)), requires_grad=True)
    assert grad_check_params(lambda: _probe(op(x)), [x, *params]) < 1e-6


@pytest.mark.parametrize("name", sorted(BATCHED_OPS))
def test_rank3_ops_equal_their_rank2_slices(name):
    op, _ = BATCHED_OPS[name]
    x = np.random.default_rng(6).normal(size=(2, 3, 4))
    batched = op(Tensor(x)).data
    if name == "matmul_batched":
        slices = [matmul(Tensor(x[i]), Tensor(_OTHER.data[i])).data for i in range(2)]
    else:
        slices = [op(Tensor(x[i])).data for i in range(2)]
    assert np.array_equal(batched, np.stack(slices))


_TABLE = Tensor(_rng.normal(size=(6, 4)), requires_grad=True)
_ROWS = Tensor(_rng.normal(size=(7, 4)), requires_grad=True)
# one index row per slice, with repeats inside a row and across rows
_INDEX = np.random.default_rng(23).integers(0, 6, size=(5, 7))

# name -> (op on x [5, 7, 4] or on its slice x[s] [7, 4], its shared operands)
SHARED_OPERAND_OPS = {
    "matmul": (lambda x, s: matmul(x, _W), [_W]),
    "linear": (lambda x, s: linear(x, _W, _BIAS), [_W, _BIAS]),
    "add": (lambda x, s: add(x, _ROWS), [_ROWS]),
    "mul": (lambda x, s: mul(x, _GAIN), [_GAIN]),
    "encoder_block": (lambda x, s: encoder_block(x, _BLOCK), _BLOCK_TRAINED),
    "take_rows": (lambda x, s: add(x, take_rows(_TABLE, _INDEX[s])), [_TABLE]),
}


@pytest.mark.parametrize("name", sorted(SHARED_OPERAND_OPS))
def test_rank3_gradient_to_a_shared_operand_sums_its_slices_in_order(name):
    """A batch's gradient to an operand every slice shares is, bit for bit,
    the sum of the slices' own gradients taken in slice order, as a loop
    over the slices would accumulate it."""
    op, shared = SHARED_OPERAND_OPS[name]
    x = np.random.default_rng(7).normal(size=(5, 7, 4))
    upstream = np.random.default_rng(8).normal(size=op(Tensor(x), slice(None)).shape)

    def grads(s):
        backward(sum_all(mul(op(Tensor(x[s]), s), Tensor(upstream[s]))))
        out = [p.grad for p in shared]
        for p in shared:
            p.grad = None
        return out

    batched = grads(slice(None))
    looped = grads(0)
    for i in range(1, len(x)):
        looped = [total + g for total, g in zip(looped, grads(i))]
    for g, expected in zip(batched, looped):
        assert np.array_equal(g, expected)


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (2, 3, 4), (2, 2, 1, 4)])
def test_linear_equals_the_two_op_graph_bit_for_bit(shape, input_grad):
    rng = np.random.default_rng(len(shape) * 10 + shape[-2])
    data = [rng.normal(size=s) for s in (shape, (4, 3), (3,), shape[:-1] + (3,))]
    for a in data:
        a[rng.random(a.shape) < 0.2] = -0.0
    x, w, b = (Tensor(a, requires_grad=flag) for a, flag in zip(data, (input_grad, True, True)))
    runs = []
    for op in (linear, op_by_op.linear):
        out = op(x, w, b)
        backward(sum_all(mul(out, Tensor(data[3]))))
        runs.append([out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes()
                                            for t in (x, w, b)])
        x.grad = w.grad = b.grad = None
    assert runs[0] == runs[1]
    assert (runs[0][1] is not None) == input_grad


def test_matmul_rejects_mismatched_batch_axes():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))


def test_no_grad_records_nothing_and_restores_after_exception():
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    with no_grad():
        assert not is_recording()
        out = relu(x)
    assert not out.requires_grad and out._backward_fn is None
    assert is_recording()
    with pytest.raises(DataError):
        with no_grad():
            raise DataError("boom")
    assert is_recording()
    assert relu(x).requires_grad



def test_no_grad_resumes_recording_only_when_the_last_context_exits():
    # two contexts whose exits interleave, as when two threads embed at once
    first, second = no_grad(), no_grad()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert not is_recording()
    second.__exit__(None, None, None)
    assert is_recording()
    with no_grad():
        with no_grad():
            pass
        assert not is_recording()
    assert is_recording()


# ---------------------------------------------------------------------------
# heap settings made at import


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's setn."""
    src = str(Path(setn.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap settings apply to glibc only")
def test_import_keeps_freed_heap_memory_in_the_process():
    # With glibc's defaults each freed 256 KiB array goes back to the kernel
    # and the next one faults its 64 pages in again: about 13-19k faults here.
    faults = int(_run_python(
        "import resource\n"
        "import numpy as np\n"
        "import setn\n"
        "np.ones(32768)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(200):\n"
        "    a, b = np.ones(32768), np.ones(32768)\n"
        "    del a, b\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"))
    assert faults < 1000


@pytest.mark.parametrize("cdll", [
    "def CDLL(*args, **kwargs):\n    raise OSError('no C library')",
    "def CDLL(*args, **kwargs):\n    return object()",
], ids=["no-libc", "no-mallopt"])
def test_import_without_mallopt_still_trains(cdll):
    out = _run_python(
        "import ctypes\n"
        "import numpy as np\n"  # before ctypes is broken
        f"{cdll}\n"
        "ctypes.CDLL = CDLL\n"
        "import setn\n"
        "ds = setn.generate_synthetic(setn.GeneratorSpec(n=30, sectors=3, industries=5,\n"
        "    vocab_size=40, tokens_per_doc=6, theme_count=1, seed=0))\n"
        "cfg = setn.TrainConfig(epochs=1, hidden_dim=8, encoder_depth=1, max_tokens=8)\n"
        "split = setn.split_dataset([r.stock_id for r in ds.records], cfg.proportions, cfg.seed)\n"
        "model = setn.build_model(cfg, setn.Vocab.build(r.text for r in ds.records), 3, 5)\n"
        "history = setn.train(model, ds.graph, ds.records, split, cfg)\n"
        "print(len(history))\n")
    assert out.strip() == "1"


# ---------------------------------------------------------------------------
# parameter writes: read-only arrays, the writer and the versions


def test_a_parameter_changes_only_through_the_writer_which_bumps_its_version():
    p = Tensor(np.arange(3.0), requires_grad=True)
    view = p.data.reshape(-1)
    for write in (lambda: p.data.__setitem__(0, 5.0), lambda: view.__setitem__(0, 5.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert p.version == 0 and p.requires_grad
    with ad.writing(p, p):
        p.data[0] = 5.0
    assert p.version == 2 and p.data.tolist() == [5.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="read-only"):
        view[1] = 7.0  # a view taken before the block stays read-only
    with pytest.raises(LabelError, match="stop"):
        with ad.writing(p):
            p.data[1] = 7.0
            raise LabelError("stop")
    assert p.version == 3 and not p.data.flags.writeable and p.data[1] == 7.0


def test_adam_keeps_its_parameters_read_only_and_bumps_their_versions_on_each_step():
    params = [Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(2), requires_grad=True)]
    adam = Adam(params, lr=0.1)
    assert adam.data.flags.writeable and not any(p.data.flags.writeable for p in params)
    assert [p.version for p in params] == [0, 0]
    for step in (1, 2):
        for p in params:
            p.grad = np.ones_like(p.data)
        adam.step()
        assert [p.version for p in params] == [step, step]
    with ad.writing(params[0]):  # an arena view: the write lands in the arena
        params[0].data[...] = 4.0
    assert adam.data[:3].tolist() == [4.0] * 3 and params[0].version == 3
    assert not params[0].data.flags.writeable
