"""The five Tab. IV models: shapes, gradients, trainable-adjacency mode."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.models import (
    GAT,
    GCN,
    GIN,
    GraphSAGE,
    MODEL_ARCHS,
    ResGCN,
    build_model,
    hidden_dim_for,
    sample_neighbors,
)
from repro.nn.models.base import GraphOps
from repro.nn.tensor import Tensor


@pytest.fixture()
def ops(tiny_graph):
    return GraphOps(tiny_graph.adj)


@pytest.fixture()
def x(tiny_graph):
    return Tensor(tiny_graph.features.toarray())


@pytest.mark.parametrize("arch", MODEL_ARCHS)
def test_forward_shapes(arch, tiny_graph, ops, x):
    kwargs = {"num_layers": 3} if arch == "resgcn" else {}
    model = build_model(arch, tiny_graph, rng=0, **kwargs)
    logits = model(x, ops)
    assert logits.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)


@pytest.mark.parametrize("arch", MODEL_ARCHS)
def test_backward_reaches_all_parameters(arch, tiny_graph, ops, x):
    kwargs = {"num_layers": 2} if arch == "resgcn" else {}
    model = build_model(arch, tiny_graph, rng=0, **kwargs)
    model.eval()  # disable dropout so every path is active
    logits = model(x, ops)
    loss = F.cross_entropy(logits, tiny_graph.labels, tiny_graph.train_mask)
    loss.backward()
    for name, p in model.named_parameters():
        assert p.grad is not None, f"no gradient for {name}"


def test_gcn_matches_equation_one(tiny_graph):
    # With dropout off, a 2-layer GCN is softmax(Â relu(Â X W0 + b0) W1 + b1).
    model = GCN(tiny_graph.num_features, 8, tiny_graph.num_classes, rng=0)
    model.eval()
    ops = GraphOps(tiny_graph.adj)
    logits = model(Tensor(tiny_graph.features.toarray()), ops)

    from repro.graphs import symmetric_normalize

    a_hat = symmetric_normalize(tiny_graph.adj).toarray()
    h = a_hat @ (
        tiny_graph.features.toarray() @ model.layers[0].weight.data
        + model.layers[0].bias.data
    )
    h = np.maximum(h, 0.0)
    expected = a_hat @ (h @ model.layers[1].weight.data + model.layers[1].bias.data)
    np.testing.assert_allclose(logits.data, expected, atol=1e-9)


def test_hidden_dim_convention():
    assert hidden_dim_for("cora") == 16
    assert hidden_dim_for("reddit") == 64


def test_build_model_rejects_unknown(tiny_graph):
    with pytest.raises(ValueError):
        build_model("transformer", tiny_graph)


def test_gat_attention_rows_normalize(tiny_graph, x):
    model = GAT(tiny_graph.num_features, 4, tiny_graph.num_classes, heads=2, rng=0)
    model.eval()
    logits = model(x, GraphOps(tiny_graph.adj))
    assert np.all(np.isfinite(logits.data))


def test_sage_sampling_caps_degree(tiny_graph, rng):
    sampled = sample_neighbors(tiny_graph.adj, max_neighbors=3, rng=rng)
    assert sampled.shape == tiny_graph.adj.shape
    per_row = np.diff(sampled.indptr)
    assert per_row.max() <= 3
    # Sampled edges are a subset of real edges.
    diff = sampled.multiply(tiny_graph.adj) - sampled
    assert abs(diff).sum() == 0


def test_sage_eval_uses_full_graph(tiny_graph, x):
    model = GraphSAGE(tiny_graph.num_features, 8, tiny_graph.num_classes, rng=0)
    model.eval()
    a = model(x, GraphOps(tiny_graph.adj)).data
    b = model(x, GraphOps(tiny_graph.adj)).data
    np.testing.assert_allclose(a, b)  # deterministic without sampling


def test_resgcn_depth(tiny_graph):
    model = ResGCN(tiny_graph.num_features, 16, tiny_graph.num_classes,
                   num_layers=5, rng=0)
    assert model.num_layers == 5


def test_trainable_ops_matches_constant_at_unit_weights(tiny_graph, x):
    # GraphOps with all-ones edge weights must reproduce the constant path.
    model = GCN(tiny_graph.num_features, 8, tiny_graph.num_classes, rng=0)
    model.eval()
    const_ops = GraphOps(tiny_graph.adj)
    weights = Tensor(np.ones(tiny_graph.adj.nnz), requires_grad=True)
    train_ops = GraphOps(tiny_graph.adj, edge_weights=weights)
    a = model(x, const_ops).data
    b = model(x, train_ops).data
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_trainable_ops_routes_gradients_to_edges(tiny_graph, x):
    model = GCN(tiny_graph.num_features, 8, tiny_graph.num_classes, rng=0)
    model.eval()
    weights = Tensor(np.ones(tiny_graph.adj.nnz), requires_grad=True)
    ops = GraphOps(tiny_graph.adj, edge_weights=weights)
    loss = F.cross_entropy(
        model(x, ops), tiny_graph.labels, tiny_graph.train_mask
    )
    loss.backward()
    assert weights.grad is not None
    assert np.any(weights.grad != 0.0)


def test_graphops_rejects_wrong_weight_count(tiny_graph):
    with pytest.raises(ValueError):
        GraphOps(tiny_graph.adj, edge_weights=Tensor(np.ones(3), requires_grad=True))


def test_agg_variants_match_references(tiny_graph, rng):
    ops = GraphOps(tiny_graph.adj)
    x = Tensor(rng.normal(size=(tiny_graph.num_nodes, 6)))
    # Sum aggregation == A @ x
    np.testing.assert_allclose(
        ops.agg_sum(x).data, tiny_graph.adj @ x.data, atol=1e-9
    )
    # Mean aggregation rows average neighbour features.
    from repro.graphs import row_normalize

    np.testing.assert_allclose(
        ops.agg_mean(x).data,
        row_normalize(tiny_graph.adj, self_loops=False) @ x.data,
        atol=1e-9,
    )
