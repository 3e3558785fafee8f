"""Forward-value tests for the nn functional ops."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def test_relu_clamps_negatives():
    out = F.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_leaky_relu_slope():
    out = F.leaky_relu(Tensor([-10.0, 10.0]), slope=0.1)
    assert np.allclose(out.data, [-1.0, 10.0])


def test_elu_negative_branch():
    out = F.elu(Tensor([-1e9, 0.0, 3.0]))
    assert out.data[0] == pytest.approx(-1.0)
    assert out.data[2] == 3.0


def test_log_softmax_rows_normalize():
    out = F.log_softmax(Tensor(np.random.default_rng(0).normal(size=(4, 5))))
    sums = np.exp(out.data).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_log_softmax_handles_large_values():
    out = F.log_softmax(Tensor([[1e4, 1e4 + 1.0]]))
    assert np.all(np.isfinite(out.data))


def test_nll_loss_is_cross_entropy():
    logits = Tensor(np.log(np.array([[0.25, 0.75], [0.5, 0.5]])))
    loss = F.nll_loss(F.log_softmax(logits), np.array([1, 0]),
                      np.array([True, True]))
    expected = -(np.log(0.75) + np.log(0.5)) / 2
    assert float(loss.data) == pytest.approx(expected)


def test_nll_loss_empty_mask_raises():
    with pytest.raises(ValueError):
        F.nll_loss(Tensor(np.zeros((2, 2))), np.zeros(2, dtype=int),
                   np.zeros(2, dtype=bool))


def test_dropout_eval_is_identity(rng):
    x = Tensor(rng.normal(size=(5, 5)))
    out = F.dropout(x, 0.5, training=False, rng=rng)
    assert out is x


def test_dropout_preserves_expectation(rng):
    x = Tensor(np.ones((2000, 10)))
    out = F.dropout(x, 0.3, training=True, rng=rng)
    assert out.data.mean() == pytest.approx(1.0, abs=0.05)


def test_dropout_p_one_gives_zeros_and_zero_gradient(rng):
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    out = F.dropout(x, 1.0, training=True, rng=rng)
    np.testing.assert_array_equal(out.data, np.zeros((2, 3)))
    out.sum().backward()
    np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))


def test_sparse_dropout_p_one_gives_zeros_and_zero_gradient(rng):
    x = F.sparse_input(np.ones((2, 3)))
    dropped = F.dropout(x, 1.0, training=True, rng=rng)
    np.testing.assert_array_equal(dropped.toarray(), np.zeros((2, 3)))
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    F.matmul(dropped, w).sum().backward()
    np.testing.assert_array_equal(w.grad, np.zeros((3, 2)))


@pytest.mark.parametrize("p", [-0.1, 1.5])
@pytest.mark.parametrize("sparse", [False, True])
def test_dropout_rejects_p_outside_unit_interval(p, sparse):
    x = F.sparse_input(np.ones((2, 3))) if sparse else Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="dropout probability"):
        F.dropout(x, p, training=True)


def test_spmm_matches_scipy(rng):
    adj = sp.random(8, 8, density=0.3, random_state=1, format="csr")
    x = rng.normal(size=(8, 3))
    out = F.spmm(adj, Tensor(x))
    np.testing.assert_allclose(out.data, adj @ x, atol=1e-12)


def test_segment_softmax_sums_to_one_per_segment():
    seg = np.array([0, 0, 0, 2, 2])
    out = F.segment_softmax(Tensor(np.array([1.0, 2.0, 3.0, 0.5, 0.5])), seg, 3)
    sums = np.zeros(3)
    np.add.at(sums, seg, out.data)
    assert sums[0] == pytest.approx(1.0)
    assert sums[2] == pytest.approx(1.0)
    assert sums[1] == 0.0  # empty segment


def test_segment_max_takes_elementwise_max():
    seg = np.array([0, 0, 1])
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [7.0, -1.0]]))
    out = F.segment_max(x, seg, 2)
    np.testing.assert_allclose(out.data, [[3.0, 5.0], [7.0, -1.0]])


def test_segment_max_empty_segment_is_zero():
    out = F.segment_max(Tensor(np.ones((1, 2))), np.array([1]), 3)
    np.testing.assert_allclose(out.data[0], 0.0)
    np.testing.assert_allclose(out.data[2], 0.0)


def test_segment_mean_averages():
    seg = np.array([0, 0, 1])
    x = Tensor(np.array([[2.0], [4.0], [6.0]]))
    out = F.segment_mean(x, seg, 2)
    np.testing.assert_allclose(out.data, [[3.0], [6.0]])


def test_scatter_add_accumulates():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    out = F.scatter_add_rows(x, np.array([1, 1, 0]), 2)
    np.testing.assert_allclose(out.data, [[3.0], [3.0]])
