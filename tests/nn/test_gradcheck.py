"""Numeric gradient checking for every differentiable op.

Central-difference gradients on float64 agree with autograd to ~1e-6; this
is the correctness backbone for the training substrate (and hence for every
accuracy number in the reproduction).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check(op, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd and numeric gradients of ``sum(op(x))``."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    out.sum().backward()
    expected = numeric_grad(lambda v: float(op(Tensor(v)).data.sum()), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


def test_relu_gradient(rng):
    check(F.relu, rng.normal(size=(4, 3)) + 0.1)


def test_leaky_relu_gradient(rng):
    check(lambda t: F.leaky_relu(t, 0.2), rng.normal(size=(4, 3)) + 0.05)


def test_elu_gradient(rng):
    check(F.elu, rng.normal(size=(4, 3)))


def test_log_softmax_gradient(rng):
    check(F.log_softmax, rng.normal(size=(5, 4)))


def test_nll_loss_gradient(rng):
    labels = rng.integers(0, 3, size=6)
    mask = np.array([True, True, False, True, False, True])

    def op(t):
        return F.nll_loss(F.log_softmax(t), labels, mask)

    check(op, rng.normal(size=(6, 3)))


def test_spmm_gradient(rng):
    adj = sp.random(6, 6, density=0.4, random_state=0, format="csr")
    check(lambda t: F.spmm(adj, t), rng.normal(size=(6, 4)))


def test_spmm_gradient_with_cached_transpose(rng):
    adj = sp.random(6, 5, density=0.4, random_state=0, format="csr")
    adj_t = adj.T.tocsr()
    check(lambda t: F.spmm(adj, t, adj_t=adj_t), rng.normal(size=(5, 4)))


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_weight_gradient_through_sparse_input(rng, backend):
    """The first layer: ``dropout(X) @ W`` with X the sparse input."""
    dense = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.4)
    x = F.sparse_input(dense)

    def op(w):
        # A fixed seed redraws the same dropout mask on every evaluation.
        dropped = F.dropout(x, 0.3, training=True, rng=4)
        return F.matmul(dropped, w, backend=backend)

    check(op, rng.normal(size=(5, 3)))


def test_gather_rows_gradient(rng):
    idx = np.array([0, 2, 2, 1])
    check(lambda t: F.gather_rows(t, idx), rng.normal(size=(3, 4)))


def test_scatter_add_gradient(rng):
    idx = np.array([0, 1, 1, 3])
    check(
        lambda t: F.scatter_add_rows(t, idx, 4), rng.normal(size=(4, 3))
    )


def test_segment_softmax_gradient(rng):
    seg = np.array([0, 0, 1, 1, 1, 2])
    check(lambda t: F.segment_softmax(t, seg, 3), rng.normal(size=6))


def test_segment_softmax_2d_gradient(rng):
    seg = np.array([0, 0, 1, 1])
    check(lambda t: F.segment_softmax(t, seg, 2), rng.normal(size=(4, 2)))


def test_segment_max_gradient(rng):
    seg = np.array([0, 0, 1, 1, 1])
    # Perturb away from exact ties so the argmax is stable under eps.
    x = rng.normal(size=(5, 3)) * 3.0
    check(lambda t: F.segment_max(t, seg, 2), x)


def test_segment_mean_gradient(rng):
    seg = np.array([0, 1, 1, 2, 2, 2])
    check(lambda t: F.segment_mean(t, seg, 3), rng.normal(size=(6, 2)))


def test_edge_spmm_gradient_wrt_weights(rng):
    rows = np.array([0, 1, 2, 2])
    cols = np.array([1, 2, 0, 1])
    x = rng.normal(size=(3, 4))

    def op(t):
        return F.edge_spmm(t, rows, cols, Tensor(x), 3)

    check(op, rng.normal(size=4))


def test_edge_spmm_gradient_wrt_features(rng):
    rows = np.array([0, 1, 2, 2])
    cols = np.array([1, 2, 0, 1])
    w = rng.normal(size=4)

    def op(t):
        return F.edge_spmm(Tensor(w), rows, cols, t, 3)

    check(op, rng.normal(size=(3, 4)))


def test_edge_spmm_matches_dense_reference(rng):
    rows = np.array([0, 0, 1, 2])
    cols = np.array([1, 2, 0, 1])
    w = rng.normal(size=4)
    x = rng.normal(size=(3, 5))
    a = np.zeros((3, 3))
    a[rows, cols] = w
    out = F.edge_spmm(Tensor(w), rows, cols, Tensor(x), 3)
    np.testing.assert_allclose(out.data, a @ x, atol=1e-12)


def test_quantize_ste_gradient_is_identity(rng):
    from repro.compression.quantize import quantize_ste

    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    quantize_ste(x, bits=8).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((3, 3)))
