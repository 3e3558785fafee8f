"""Unit tests for the Graph container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.graphs import Graph


def _make(n=5):
    adj = sp.csr_matrix(
        (np.ones(4), ([0, 1, 1, 2], [1, 0, 2, 1])), shape=(n, n)
    )
    return Graph(
        adj=adj,
        features=np.eye(n, 3),
        labels=np.arange(n) % 2,
        train_mask=np.array([True] * 2 + [False] * (n - 2)),
        val_mask=np.zeros(n, dtype=bool),
        test_mask=np.zeros(n, dtype=bool),
        name="t",
    )


def test_basic_counts():
    g = _make()
    assert g.num_nodes == 5
    assert g.num_edges == 2  # 4 stored nnz / 2
    assert g.num_features == 3
    assert g.num_classes == 2


def test_degrees_are_row_counts():
    assert np.array_equal(_make().degrees(), [1, 2, 1, 0, 0])


def test_density_and_sparsity_sum_to_one():
    g = _make()
    assert g.density() + g.sparsity() == pytest.approx(1.0)
    assert g.density() == pytest.approx(4 / 25)


def test_with_adj_replaces_only_adjacency():
    g = _make()
    g2 = g.with_adj(sp.eye(5, format="csr"))
    assert g2.adj.nnz == 5
    assert g.adj.nnz == 4
    assert g2.features is g.features  # shared, not copied


def test_validate_symmetric():
    g = _make()
    assert g.validate_symmetric()
    asym = g.with_adj(sp.csr_matrix((np.ones(1), ([0], [1])), shape=(5, 5)))
    assert not asym.validate_symmetric()


def test_shape_errors():
    g = _make()
    with pytest.raises(ShapeError):
        Graph(
            adj=g.adj[:, :4],  # non-square
            features=g.features,
            labels=g.labels,
            train_mask=g.train_mask,
            val_mask=g.val_mask,
            test_mask=g.test_mask,
        )
    with pytest.raises(ShapeError):
        Graph(
            adj=g.adj,
            features=g.features[:3],
            labels=g.labels,
            train_mask=g.train_mask,
            val_mask=g.val_mask,
            test_mask=g.test_mask,
        )
    with pytest.raises(ShapeError):
        Graph(
            adj=g.adj,
            features=g.features,
            labels=g.labels[:2],
            train_mask=g.train_mask,
            val_mask=g.val_mask,
            test_mask=g.test_mask,
        )


def test_storage_mb_positive():
    assert _make().storage_mb() > 0


def _is_canonical_csr(features) -> bool:
    return (
        isinstance(features, sp.csr_matrix)
        and features.dtype == np.float64
        and features.has_canonical_format
        and bool(features.data.all())
    )


def test_dense_features_become_canonical_csr():
    g = _make()
    assert _is_canonical_csr(g.features)
    np.testing.assert_array_equal(g.features.toarray(), np.eye(5, 3))


def test_non_canonical_csr_features_are_canonicalised_on_a_copy():
    # duplicates, an explicit zero and int dtype: none may survive, and
    # the caller's matrix stays as it was
    data, indices, indptr = [1, 2, 0, 3], [2, 2, 0, 1], [0, 3, 3, 4, 4, 4]
    raw = sp.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)), shape=(5, 3)
    )
    before = (raw.data.copy(), raw.indices.copy(), raw.indptr.copy())
    g = Graph(
        adj=_make().adj, features=raw, labels=np.zeros(5),
        train_mask=np.zeros(5), val_mask=np.zeros(5), test_mask=np.zeros(5),
    )
    assert _is_canonical_csr(g.features)
    assert g.features is not raw
    np.testing.assert_array_equal(g.features.toarray(), raw.toarray())
    assert g.features.nnz == 2
    for kept, now in zip(before, (raw.data, raw.indices, raw.indptr)):
        np.testing.assert_array_equal(kept, now)


def test_canonical_csr_features_are_kept_as_the_same_object():
    features = sp.csr_matrix(np.eye(5, 3))
    g = Graph(
        adj=_make().adj, features=features, labels=np.zeros(5),
        train_mask=np.zeros(5), val_mask=np.zeros(5), test_mask=np.zeros(5),
    )
    assert g.features is features
