"""The flat-arena Adam against the per-tensor update it replaced.

``PerTensorAdam`` is that update: one moment pair per parameter, a missing
gradient counted as zero, and ``zero_grad`` dropping every ``.grad``. The
arena must leave the parameters bit for bit where it leaves them.
"""

import math
import re

import numpy as np
import pytest

from setn import autodiff as ad
from setn.autodiff import Adam, Tensor, _accum, backward
from setn.data import GeneratorSpec, generate_synthetic
from setn.errors import ContractError, DataError
from setn.graph import sample_subgraph
from setn.model import compute_loss
from setn.text import Vocab
from setn.training import TrainConfig, build_model, load_model, save_model, split_dataset, train


class PerTensorAdam:
    """Bias-corrected Adam, one tensor at a time."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - Adam.BETA1 ** self.step_count
        bc2 = 1.0 - Adam.BETA2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= Adam.BETA1
            m += (1.0 - Adam.BETA1) * g
            v *= Adam.BETA2
            v += (1.0 - Adam.BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + Adam.EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def _reference_universe(n=40):
    """A small universe and two equal models with the reference recipe's sizes."""
    ds = generate_synthetic(GeneratorSpec(n=n, seed=7))
    vocab = Vocab.build(r.text for r in ds.records)
    config = TrainConfig(seed=7, epochs=1)
    models = [build_model(config, vocab, ds.taxonomy.n_sectors, ds.taxonomy.n_industries)
              for _ in range(2)]
    return ds, config, models


def test_arena_steps_equal_the_per_tensor_update_over_50_steps():
    ds, config, (arena_model, oracle_model) = _reference_universe()
    arena = Adam(arena_model.trainable_params(), lr=0.01)
    oracle = PerTensorAdam(oracle_model.trainable_params(), lr=0.01)
    assert len(arena.params) == 22  # the reference recipe trains 22 tensors
    rng = np.random.default_rng(0)
    for step in range(50):
        target = step % len(ds.records)
        sub = sample_subgraph(ds.graph, target)
        recs = [ds.records[m] for m in sub.members]
        for model, optimizer in ((arena_model, arena), (oracle_model, oracle)):
            result = model.forward(sub, recs, rng=np.random.default_rng(step))
            if step % 3 == 0:
                # only the sector head: the industry head gets no gradient
                loss = ad.cross_entropy(result.logits_sector, recs[0].sector)
            else:
                loss = compute_loss(result, recs[0].sector, recs[0].industry)
            backward(loss)
        if step % 4 == 1:
            # a caller assigns a gradient, replacing the arena's view
            assigned = rng.normal(size=arena_model.gnn.bias.data.shape)
            arena_model.gnn.bias.grad = assigned.copy()
            oracle_model.gnn.bias.grad = assigned.copy()
        if step % 3 == 0:
            assert oracle_model.head_industry.weight.grad is None
            assert not arena_model.head_industry.weight.grad.any()
        arena.step()
        oracle.step()
        arena.zero_grad()
        oracle.zero_grad()
        for (name, p), (_, q) in zip(arena_model.named_params(), oracle_model.named_params()):
            assert np.array_equal(p.data, q.data), (step, name)


def test_in_place_step_equals_the_expression_form_bit_for_bit_over_three_steps():
    """The step runs in two scratch vectors; its parameters and moments must
    be those of the plain expressions, for gradients with -0.0 entries and
    magnitudes from 1e-300 to 1e150."""
    rng = np.random.default_rng(3)
    params = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((40, 30), (30,), (7,))]
    adam = Adam(params, lr=0.01)
    data, m, v = adam.data.copy(), np.zeros(adam.data.size), np.zeros(adam.data.size)
    for step in range(1, 4):
        g = rng.normal(size=data.size) * 10.0 ** rng.integers(-300, 150, size=data.size)
        g[rng.random(data.size) < 0.1] = -0.0
        adam.grad[...] = g
        adam.step()
        bc1, bc2 = 1.0 - Adam.BETA1 ** step, 1.0 - Adam.BETA2 ** step
        m *= Adam.BETA1
        m += (1.0 - Adam.BETA1) * g
        v *= Adam.BETA2
        v += (1.0 - Adam.BETA2) * (g * g)
        data -= 0.01 * (m / bc1) / (np.sqrt(v / bc2) + Adam.EPS)
        assert adam.data.tobytes() == data.tobytes(), step
        assert adam._m.tobytes() == m.tobytes() and adam._v.tobytes() == v.tobytes(), step


def test_trainable_parameters_share_one_arena_and_frozen_ones_stay_out():
    _, _, (model, _) = _reference_universe()
    trainable = model.trainable_params()
    frozen = [p for _, p in model.named_params() if not p.requires_grad]
    before = [p.data.copy() for p in trainable]
    optimizer = Adam(trainable)
    assert all(p.data.base is optimizer.data for p in trainable)
    assert all(p.grad.base is optimizer.grad for p in trainable)
    assert optimizer.data.size == sum(p.data.size for p in trainable)
    assert not any(np.shares_memory(p.data, optimizer.data) for p in frozen)
    for p, data in zip(trainable, before):
        assert np.array_equal(p.data, data) and not p.grad.any()


def test_adam_rejects_a_parameter_listed_twice():
    theta = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError, match="once"):
        Adam([theta, theta])


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 10**400, 0, -1.0, True, "0.1",
                                None])
def test_adam_refuses_a_learning_rate_that_is_not_a_finite_number_above_zero(lr):
    # nan once wrote NaN into every parameter, -1.0 ascended and True stepped as 1.0
    theta = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DataError, match=rf"^Adam's lr must be a finite number above 0, "
                                        rf"got {re.escape(repr(lr))}$"):
        Adam([theta], lr=lr)
    assert theta.data.tolist() == [1.0, 2.0]


def test_first_accumulation_into_an_arena_view_matches_a_fresh_gradient_bit_for_bit():
    g = np.array([-0.0, 0.0, -1.5, 2.0])
    fresh = Tensor(np.ones(4), requires_grad=True)
    viewed = Tensor(np.ones(4), requires_grad=True)
    Adam([viewed])
    _accum(fresh, g)
    _accum(viewed, g)
    assert fresh.grad.tobytes() == viewed.grad.tobytes()  # -0.0 becomes 0.0 in both


def test_checkpoint_after_training_round_trips_bit_for_bit(tmp_path):
    ds, config, (model, _) = _reference_universe()
    split = split_dataset([r.stock_id for r in ds.records], config.proportions, config.seed)
    train(model, ds.graph, ds.records, split, config)
    trainable = model.trainable_params()
    base = trainable[0].data.base
    assert base is not None and all(p.data.base is base for p in trainable)
    assert all(p.grad is None for p in trainable)
    path, again = tmp_path / "model.setn", tmp_path / "again.setn"
    save_model(model, path, config)
    loaded, _ = load_model(path)
    for (name, p), (_, q) in zip(model.named_params(), loaded.named_params()):
        assert p.data.tobytes() == q.data.tobytes(), name
    save_model(loaded, again, config)
    assert path.read_bytes() == again.read_bytes()
