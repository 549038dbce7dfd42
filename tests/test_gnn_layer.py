"""The fused GNN layers against the op-by-op graphs they replaced.

``op_by_op.gcn_layer`` and ``op_by_op.gat_layer`` build each layer from one
recorded node per op. ``graph.gcn_layer`` and ``graph.gat_layer`` are one
recorded op each, and must give the same output and the same gradients, bit
for bit, without writing to anything they are handed.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import op_by_op
from op_by_op import mul, sum_all
from setn import autodiff as ad
from setn.autodiff import Adam, Tensor, backward, no_grad
from setn.errors import NonFiniteError, ShapeError
from setn.graph import GnnParams, Subgraph, gat_attention, gat_layer, gcn_layer, init_gnn_params

FUSED = {"gcn": gcn_layer, "gat": gat_layer}
REFERENCE = {"gcn": op_by_op.gcn_layer, "gat": op_by_op.gat_layer}


def _with_signed_zeros(a, rng):
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


def _case(kind, n, dim, density, seed):
    """A subgraph of ``n`` members with random edges, features [n, dim] and
    layer parameters moved off their initial values, all with -0.0 entries."""
    rng = np.random.default_rng(seed)
    edges = tuple((s, d) for s in range(n) for d in range(n) if s != d and rng.random() < density)
    sub = Subgraph(target=0, members=tuple(range(n)), edges=edges)
    params = init_gnn_params(dim, rng, with_attention=kind == "gat")
    for _, p in params.named_params():
        p.data = _with_signed_zeros(p.data + rng.normal(0.0, 0.3, p.data.shape), rng)
    h = _with_signed_zeros(rng.normal(size=(n, dim)), rng)
    weights = _with_signed_zeros(rng.normal(size=(n, dim)), rng)
    return sub, params, h, weights


def _run(layer, h, sub, params, weights, residual, reset_grads):
    """The layer's output, each gradient's bytes (of ``h`` first, then of the
    parameters), the incoming gradients of a recorded output with their bytes
    as handed over, and the arrays its backward closure keeps. With
    ``residual`` the loss reads row 0 of ``h`` and of the output, as the
    model's graph stage does."""
    reset_grads()
    out = layer(h, sub, params)
    incoming, kept = [], []
    if out.requires_grad:
        kept = [c.cell_contents for c in out._backward_fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        inner = out._backward_fn

        def spy(g):
            g.flags.writeable = False
            incoming.append((g, g.tobytes()))
            inner(g)

        out._backward_fn = spy
        read = out
        if residual:
            read = ad.add(ad.take_rows(h, [0]), ad.take_rows(out, [0]))
        backward(sum_all(mul(read, Tensor(weights[:len(read.data)]))))
    tensors = [h, *(p for _, p in params.named_params())]
    grads = [None if t.grad is None else t.grad.tobytes() for t in tensors]
    return out, grads, incoming, kept


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(FUSED)), n=st.integers(1, 12), dim=st.integers(1, 6),
       density=st.sampled_from([0.0, 0.3, 0.7, 1.0]), input_grad=st.booleans(),
       trained=st.lists(st.booleans(), min_size=3, max_size=3), recorded=st.booleans(),
       arena=st.booleans(), prior=st.booleans(), residual=st.booleans(),
       seed=st.integers(0, 2**16))
def test_fused_layer_equals_the_op_by_op_graph_for_any_case(kind, n, dim, density, input_grad,
                                                            trained, recorded, arena, prior,
                                                            residual, seed):
    """Any subgraph size, edge set and width, any trainable subset, recorded
    or not: the fused layer's output and gradients are the op-by-op graph's
    byte for byte, it writes none of the read-only arrays it is handed
    (features and parameters with -0.0 entries, possibly Adam arena views,
    and the incoming gradient), and the arrays a recorded layer keeps share
    no memory. With ``prior`` every gradient starts from a value of its own,
    so two reads of one operand added in the other order round differently.
    ``gat_attention`` returns the op-by-op coefficients, as a constant."""
    sub, params, h_data, weights = _case(kind, n, dim, density, seed)
    h = Tensor(h_data, requires_grad=input_grad)
    named = [p for _, p in params.named_params()]
    for p, flag in zip(named, trained):
        p.requires_grad = flag
    adam = Adam([h, *named]) if arena else None
    rng = np.random.default_rng(seed + 1)
    priors = [_with_signed_zeros(rng.normal(size=t.data.shape), rng) if prior else None
              for t in (h, *named)]

    def reset_grads():
        if adam is not None:
            adam.zero_grad()
        for t, start in zip((h, *named), priors):
            if adam is None:
                t.grad = None if start is None else start.copy()
            elif start is not None:
                t.grad[...] = start

    handed = [h.data, *(p.data for p in named)]
    for a in handed:
        a.flags.writeable = False
    before = [a.tobytes() for a in handed]
    runs = []
    for layer in (FUSED[kind], REFERENCE[kind]):
        with nullcontext() if recorded else no_grad():
            runs.append(_run(layer, h, sub, params, weights, residual, reset_grads))
    (out, grads, incoming, kept), (ref_out, ref_grads, _, _) = runs
    if kind == "gat":
        alpha = gat_attention(h, sub, params)
        assert alpha.data.tobytes() == op_by_op.gat_attention(h, sub, params).data.tobytes()
        assert not alpha.requires_grad
    assert out.data.tobytes() == ref_out.data.tobytes()
    assert grads == ref_grads
    assert [a.tobytes() for a in handed] == before
    assert all(g.tobytes() == then for g, then in incoming)
    will_record = recorded and (input_grad or any(trained[:len(named)]))
    assert out.requires_grad == will_record and len(incoming) == will_record
    assert bool(kept) == will_record
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not np.shares_memory(a, b)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(FUSED)), batch=st.integers(1, 4), n=st.integers(1, 8),
       dim=st.integers(1, 5), density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       recorded=st.booleans(), seed=st.integers(0, 2**16))
def test_a_stack_of_subgraphs_gives_every_slice_its_own_layer(kind, batch, n, dim, density,
                                                              recorded, seed):
    """B subgraphs of n members with features stacked as [B, n, d]: each
    output slice and each slice of the features' gradient is that subgraph's
    own layer, byte for byte. A parameter's gradient is the slices' own
    added up, within rounding."""
    cases = [_case(kind, n, dim, density, seed + i) for i in range(batch)]
    subs = [sub for sub, _, _, _ in cases]
    params = cases[0][1]
    named = [p for _, p in params.named_params()]

    def run(h_data, sub, weights):
        for p in named:
            p.grad = None
        h = Tensor(h_data, requires_grad=True)
        with nullcontext() if recorded else no_grad():
            out = FUSED[kind](h, sub, params)
        if recorded:
            backward(sum_all(mul(out, Tensor(weights))))
        return out.data, h.grad, [p.grad for p in named]

    singles = [run(h, sub, weights) for sub, _, h, weights in cases]
    out, h_grad, grads = run(np.stack([c[2] for c in cases]), subs,
                             np.stack([c[3] for c in cases]))
    assert [o.tobytes() for o in out] == [o.tobytes() for o, _, _ in singles]
    if not recorded:
        assert h_grad is None and grads == [None] * len(named)
        return
    assert [g.tobytes() for g in h_grad] == [g.tobytes() for _, g, _ in singles]
    for i, grad in enumerate(grads):
        parts = [g[i] for _, _, g in singles]
        scale = max(np.max(np.abs(part)) for part in parts)
        assert np.max(np.abs(grad - sum(parts))) <= 1e-12 * scale


def test_a_stack_of_subgraphs_needs_one_member_count_and_matching_features():
    sub2 = Subgraph(target=0, members=(0, 1), edges=((1, 0),))
    sub3 = Subgraph(target=0, members=(0, 1, 2), edges=())
    params = init_gnn_params(2, np.random.default_rng(0))
    for layer in FUSED.values():
        with pytest.raises(ShapeError, match="one member count"):
            layer(Tensor(np.ones((2, 3, 2))), [sub2, sub3], params)
        with pytest.raises(ShapeError):
            layer(Tensor(np.ones((3, 2, 2))), [sub2, sub2], params)
        with pytest.raises(ShapeError):
            layer(Tensor(np.ones((2, 2, 2))), sub2, params)
        with pytest.raises(ShapeError):
            layer(Tensor(np.ones((0, 2))), [], params)


@pytest.mark.parametrize("kind", sorted(FUSED))
def test_a_recorded_layer_is_one_node_and_an_unrecorded_one_keeps_nothing(kind):
    sub, params, h_data, _ = _case(kind, 4, 3, 0.5, 0)
    h = Tensor(h_data, requires_grad=True)
    out = FUSED[kind](h, sub, params)
    expected = (h, params.weight, params.bias, *([params.attention] if kind == "gat" else []))
    assert len(out._parents) == len(expected)
    assert all(a is b for a, b in zip(out._parents, expected))
    assert all(p._backward_fn is None for p in out._parents)
    with no_grad():
        out = FUSED[kind](h, sub, params)
    assert out._parents == () and out._backward_fn is None and not out.requires_grad


def test_a_minus_infinite_gat_score_that_the_softmax_absorbs_still_raises():
    """Member 1's neighbor score share overflows to -inf. Every score it
    enters is -inf, which the leaky ReLU keeps and the softmax turns into a
    weight of 0, so the layer's output would be finite. Like the op-by-op
    graph, the layer still refuses it."""
    sub = Subgraph(target=0, members=(0, 1), edges=((1, 0),))
    params = GnnParams(Tensor([[1.0]]), Tensor([0.0]), Tensor([1.0, 1e10]))
    h = Tensor([[1.0], [-1e300]])
    with np.errstate(over="ignore"):
        assert np.isneginf(h.data[1, 0] * params.attention.data[1])
        for layer in (gat_layer, op_by_op.gat_layer):
            with pytest.raises(NonFiniteError):
                layer(h, sub, params)
