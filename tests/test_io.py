"""Serialization round-trips for graphs, layouts, and weights."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.io import (
    load_graph,
    load_layout,
    load_model_weights,
    save_graph,
    save_layout,
    save_model_weights,
)
from repro.nn.models import build_model


def test_graph_roundtrip(tmp_path, tiny_graph):
    path = tmp_path / "graph.npz"
    save_graph(tiny_graph, path)
    loaded = load_graph(path)
    assert (loaded.adj != tiny_graph.adj).nnz == 0
    np.testing.assert_array_equal(
        loaded.features.toarray(), tiny_graph.features.toarray()
    )
    np.testing.assert_array_equal(loaded.labels, tiny_graph.labels)
    np.testing.assert_array_equal(loaded.train_mask, tiny_graph.train_mask)
    assert loaded.name == tiny_graph.name


def test_graph_meta_scalars_survive(tmp_path, tiny_graph):
    tiny_graph.meta["generated_nnz"] = 123
    tiny_graph.meta["scale"] = 0.5
    tiny_graph.meta["unpicklable"] = object()  # silently dropped
    path = tmp_path / "g.npz"
    save_graph(tiny_graph, path)
    loaded = load_graph(path)
    assert loaded.meta["generated_nnz"] == 123
    assert loaded.meta["scale"] == 0.5
    assert "unpicklable" not in loaded.meta


def test_layout_roundtrip(tmp_path, partitioned):
    graph, layout = partitioned
    path = tmp_path / "layout.npz"
    save_layout(layout, path)
    loaded = load_layout(path)
    np.testing.assert_array_equal(loaded.perm, layout.perm)
    np.testing.assert_array_equal(loaded.node_class, layout.node_class)
    assert loaded.num_classes == layout.num_classes
    assert len(loaded.spans) == len(layout.spans)
    assert loaded.spans[0] == layout.spans[0]
    # The loaded layout is functional, not just structural:
    assert loaded.dense_fraction(graph.adj) == pytest.approx(
        layout.dense_fraction(graph.adj)
    )


def test_model_weights_roundtrip(tmp_path, tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    path = tmp_path / "weights.npz"
    save_model_weights(model.state_dict(), path)
    loaded = load_model_weights(path)
    fresh = build_model("gcn", tiny_graph, rng=99)
    fresh.load_state_dict(loaded)
    for (n1, p1), (n2, p2) in zip(
        model.named_parameters(), fresh.named_parameters()
    ):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


def test_graph_file_stores_features_as_csr_members(tmp_path, tiny_graph):
    path = tmp_path / "graph.npz"
    save_graph(tiny_graph, path)
    with np.load(path) as data:
        assert "features" not in data.files
        assert data["features_data"].size == tiny_graph.features.nnz
        assert tuple(data["features_shape"]) == tiny_graph.features.shape
    loaded = load_graph(path)
    assert sp.isspmatrix_csr(loaded.features)
    assert loaded.features.dtype == np.float64
    assert loaded.features.has_canonical_format
    np.testing.assert_array_equal(loaded.features.data, tiny_graph.features.data)
    np.testing.assert_array_equal(
        loaded.features.indices, tiny_graph.features.indices
    )
    np.testing.assert_array_equal(
        loaded.features.indptr, tiny_graph.features.indptr
    )


def test_graph_file_with_dense_features_still_loads(tmp_path, tiny_graph):
    # the layout written while features were dense: one `features` member
    path = tmp_path / "dense.npz"
    save_graph(tiny_graph, path)
    with np.load(path) as data:
        members = {
            k: data[k] for k in data.files if not k.startswith("features_")
        }
    np.savez_compressed(path, features=tiny_graph.features.toarray(), **members)
    loaded = load_graph(path)
    assert sp.isspmatrix_csr(loaded.features)
    assert loaded.features.has_canonical_format
    np.testing.assert_array_equal(
        loaded.features.toarray(), tiny_graph.features.toarray()
    )
    assert (loaded.adj != tiny_graph.adj).nnz == 0
