"""The sparse model input: parity with dense input, sparse dropout, backends."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.models import MODEL_ARCHS, build_model
from repro.nn.models.base import GraphOps
from repro.nn.tensor import Tensor


@pytest.fixture()
def features(rng):
    """A 30 x 12 feature matrix, ~15 % non-zero, every row populated."""
    dense = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.15)
    dense[np.arange(30), rng.integers(0, 12, size=30)] = 1.0
    return dense


def test_sparse_input_holds_only_the_non_zeros(features):
    x = F.sparse_input(features)
    assert sp.isspmatrix_csr(x) and x.dtype == np.float64
    assert x.nnz == np.count_nonzero(features)
    np.testing.assert_array_equal(x.toarray(), features)


@pytest.mark.parametrize("arch", MODEL_ARCHS)
def test_eval_logits_match_dense_input(arch, tiny_graph):
    kwargs = {"num_layers": 3} if arch == "resgcn" else {}
    model = build_model(arch, tiny_graph, rng=0, **kwargs)
    model.eval()
    ops = GraphOps(tiny_graph.adj)
    sparse = model(F.sparse_input(tiny_graph.features), ops)
    dense = model(Tensor(tiny_graph.features.toarray()), ops)
    np.testing.assert_allclose(sparse.data, dense.data, rtol=1e-10, atol=1e-12)


def test_predict_converts_a_dense_array_to_the_sparse_input(tiny_graph):
    model = build_model("gat", tiny_graph, rng=0)
    ops = GraphOps(tiny_graph.adj)
    np.testing.assert_array_equal(
        model.predict(tiny_graph.features.toarray(), ops),
        model.predict(F.sparse_input(tiny_graph.features), ops),
    )


def test_sparse_dropout_draws_once_per_stored_entry(features):
    x = F.sparse_input(features)
    gen = np.random.default_rng(5)
    twin = np.random.default_rng(5)
    F.dropout(x, 0.4, training=True, rng=gen)
    twin.random(x.nnz)
    assert gen.random() == twin.random()


def test_sparse_dropout_keeps_zeros_and_scales_kept_entries(features):
    x = F.sparse_input(features)
    p = 0.4
    u = np.random.default_rng(5).random(x.nnz)
    out = F.dropout(x, p, training=True, rng=np.random.default_rng(5))
    dropped = out.toarray()
    assert np.all(dropped[features == 0] == 0)
    kept = np.zeros(x.nnz, dtype=bool)
    kept[u >= p] = True
    expected = x.copy()
    expected.data = np.where(kept, x.data / (1 - p), 0.0)
    np.testing.assert_allclose(dropped, expected.toarray(), rtol=1e-15)
    # dropped entries leave the structure instead of staying as zeros
    assert out.nnz == int(kept.sum())


def test_sparse_dropout_matches_dense_dropout_on_the_same_draws():
    dense = np.arange(1.0, 13.0).reshape(3, 4)  # no zeros: one draw per cell
    sparse_out = F.dropout(
        F.sparse_input(dense), 0.5, training=True, rng=np.random.default_rng(9)
    )
    dense_out = F.dropout(
        Tensor(dense), 0.5, training=True, rng=np.random.default_rng(9)
    )
    np.testing.assert_array_equal(sparse_out.toarray(), dense_out.data)


def test_sparse_dropout_eval_is_identity(features):
    x = F.sparse_input(features)
    assert F.dropout(x, 0.5, training=False) is x


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_first_layer_gradient_reaches_the_weight(features, rng, backend):
    x = F.sparse_input(features)
    w = Tensor(rng.normal(size=(12, 4)), requires_grad=True)
    grad_out = rng.normal(size=(30, 4))
    out = F.matmul(x, w, backend=backend)
    out.backward(grad_out)
    np.testing.assert_allclose(out.data, features @ w.data, rtol=1e-12)
    np.testing.assert_allclose(w.grad, features.T @ grad_out, rtol=1e-12)


def test_first_layer_backend_parity(tiny_graph):
    """``--kernel-backend`` swaps the first layer's arithmetic too."""
    results = {}
    for backend in ("reference", "vectorized"):
        model = build_model("gcn", tiny_graph, rng=0)
        ops = GraphOps(tiny_graph.adj, kernel_backend=backend)
        x = F.sparse_input(tiny_graph.features)
        logits = model(x, ops)  # training mode: sparse dropout included
        loss = F.cross_entropy(logits, tiny_graph.labels, tiny_graph.train_mask)
        loss.backward()
        results[backend] = (logits.data, model.layers[0].weight.grad)
    ref, vec = results["reference"], results["vectorized"]
    np.testing.assert_allclose(ref[0], vec[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ref[1], vec[1], rtol=1e-10, atol=1e-12)


def test_sparse_input_of_graph_features_never_aliases_them(tiny_graph):
    # Degree-Quant rewrites the input's data in place every epoch; that
    # must not reach the graph's own feature arrays.
    x = F.sparse_input(tiny_graph.features)
    assert x is not tiny_graph.features
    for name in ("data", "indices", "indptr"):
        assert not np.shares_memory(
            getattr(x, name), getattr(tiny_graph.features, name)
        ), name
    np.testing.assert_array_equal(x.toarray(), tiny_graph.features.toarray())
    np.testing.assert_array_equal(x.indices, tiny_graph.features.indices)
