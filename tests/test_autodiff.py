import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import setn

from setn.autodiff import (Adam, Tensor, add, backward, cross_entropy,
                           dropout, grad_check_params, is_recording,
                           layer_norm_rows, leaky_relu, linear, matmul, max_rows,
                           mean_rows, mul, no_grad, place_rows, relu, softmax_rows,
                           stack_rows, sum_all, take_rows, transpose)
from setn.errors import ContractError, DataError, LabelError, ShapeError


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
    assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x


def test_dropout_eval_mode_is_identity():
    x = Tensor([[1.0, 2.0]])
    assert dropout(x, 0.2, training=False) is x


def test_dropout_preserves_mean_at_scale():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones(10000))
    out = dropout(x, 0.5, training=True, rng=rng)
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_rejects_bad_rate():
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(DataError):
            dropout(Tensor([1.0]), rate, training=True, rng=np.random.default_rng(0))


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones(1000), requires_grad=True)
    out = dropout(x, 0.3, training=True, rng=np.random.default_rng(9))
    kept = out.data > 0
    backward(sum_all(out))
    assert np.allclose(x.grad[kept], 1.0 / 0.7)
    assert np.all(x.grad[~kept] == 0.0)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    assert cross_entropy(Tensor([[0.0, 0.0]]), [0]).item() == pytest.approx(math.log(2), abs=1e-12)
    assert cross_entropy(Tensor(np.zeros((1, 17))), [4]).item() == pytest.approx(math.log(17), abs=1e-12)


def test_cross_entropy_confident_correct():
    assert cross_entropy(Tensor([[10.0, -10.0]]), [0]).item() < 1e-4


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelError) as exc:
        cross_entropy(Tensor([[0.0, 0.0]]), [2])
    assert "2" in str(exc.value)


def test_cross_entropy_non_negative():
    rng = np.random.default_rng(3)
    for _ in range(25):
        logits = rng.normal(scale=5, size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        assert cross_entropy(Tensor(logits), targets).item() >= 0.0


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
        return cross_entropy(linear(relu(linear(x, w, b)), Tensor(np.eye(3)), Tensor(np.zeros(3))), [0, 2])

    err = grad_check_params(f, [x, w, b])
    assert err < 1e-4


def test_gradients_accumulate_when_tensor_reused():
    x = Tensor([2.0], requires_grad=True)
    backward(sum_all(add(x, x)))
    assert np.array_equal(x.grad, [2.0])


def test_take_and_stack_roundtrip_gradients():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    rows = [take_rows(x, [i]) for i in (0, 2, 2)]
    stacked = stack_rows([mean_rows(r) for r in rows])
    backward(sum_all(stacked))
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 2.0
    assert np.array_equal(x.grad, expected)


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


def test_grad_check_constant_function():
    x = Tensor([1.0, 2.0], requires_grad=True)
    assert grad_check_params(lambda: Tensor(4.0), [x]) == 0.0


def test_grad_check_rejects_nondeterministic_function():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones(4), requires_grad=True)

    def noisy(t):
        return sum_all(dropout(t, 0.5, training=True, rng=rng))

    with pytest.raises(ContractError):
        grad_check_params(lambda: noisy(x), [x])


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

# name -> (op on one tensor, the parameters it reads besides its input)
BATCHED_OPS = {
    "matmul_shared": (lambda x: matmul(x, _W), [_W]),
    "matmul_batched": (lambda x: matmul(x, _OTHER), [_OTHER]),
    "linear": (lambda x: linear(x, _W, _BIAS), [_W, _BIAS]),
    "transpose": (transpose, []),
    "softmax_rows": (softmax_rows, []),
    "layer_norm_rows": (lambda x: layer_norm_rows(x, _GAIN, _SHIFT), [_GAIN, _SHIFT]),
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
    "layer_norm_rows": (lambda x, s: layer_norm_rows(x, _GAIN, _SHIFT), [_GAIN, _SHIFT]),
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
