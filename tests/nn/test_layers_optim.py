"""Module plumbing, Linear/BatchNorm layers, and optimizers."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import BatchNorm1d, Linear, Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


def test_linear_shapes_and_bias():
    layer = Linear(4, 3, rng=0)
    out = layer(Tensor(np.ones((5, 4))))
    assert out.shape == (5, 3)
    assert layer.bias is not None
    no_bias = Linear(4, 3, bias=False, rng=0)
    assert no_bias.bias is None


def test_named_parameters_nested():
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.fc1 = Linear(2, 2, rng=0)
            self.blocks = [Linear(2, 2, rng=1), Linear(2, 2, rng=2)]

    names = dict(Net().named_parameters())
    assert "fc1.weight" in names
    assert "blocks.0.weight" in names
    assert "blocks.1.bias" in names
    assert len(Net().parameters()) == 6


def test_state_dict_roundtrip():
    a = Linear(3, 3, rng=0)
    b = Linear(3, 3, rng=99)
    b.load_state_dict(a.state_dict())
    assert np.array_equal(a.weight.data, b.weight.data)


def test_load_state_dict_rejects_unknown_and_mismatch():
    layer = Linear(3, 3, rng=0)
    with pytest.raises(KeyError):
        layer.load_state_dict({"nope": np.zeros((3, 3))})
    with pytest.raises(ValueError):
        layer.load_state_dict({"weight": np.zeros((2, 2))})


def test_train_eval_mode_propagates():
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.inner = Linear(2, 2, rng=0)

    net = Net()
    net.eval()
    assert not net.training and not net.inner.training
    net.train()
    assert net.training and net.inner.training


def test_batchnorm_normalizes_training_batch(rng):
    bn = BatchNorm1d(4)
    x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(200, 4)))
    out = bn(x)
    assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-2)


def test_batchnorm_eval_uses_running_stats(rng):
    bn = BatchNorm1d(2)
    for _ in range(50):
        bn(Tensor(rng.normal(loc=2.0, size=(64, 2))))
    bn.training = False
    out = bn(Tensor(np.full((4, 2), 2.0)))
    assert np.allclose(out.data, 0.0, atol=0.3)


def _quadratic_problem():
    # minimize ||w - 3||^2
    w = Tensor(np.zeros(4), requires_grad=True)
    target = Tensor(np.full(4, 3.0))

    def loss():
        diff = w + (-target)
        return (diff * diff).sum()

    return w, loss


def test_adam_converges():
    w, loss = _quadratic_problem()
    opt = Adam([w], lr=0.2)
    for _ in range(200):
        opt.zero_grad()
        loss().backward()
        opt.step()
    assert np.allclose(w.data, 3.0, atol=1e-2)


def test_weight_decay_shrinks_weights():
    w = Tensor(np.full(3, 10.0), requires_grad=True)
    opt = Adam([w], lr=0.1, weight_decay=0.5)
    opt.zero_grad()
    (w * Tensor(np.zeros(3))).sum().backward()  # zero task gradient
    opt.step()
    assert np.all(np.abs(w.data) < 10.0)


def test_optimizer_rejects_empty_params():
    with pytest.raises(ValueError):
        Adam([Tensor(np.zeros(2))])  # not trainable


def test_optimizer_skips_params_without_grad():
    w = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([w])
    opt.step()  # no gradient accumulated: must not crash or update
    assert np.array_equal(w.data, [1.0, 1.0])
