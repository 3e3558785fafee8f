"""Step 2 (ADMM sparsify + polarize) unit tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.algorithm import GCoDConfig, admm_sparsify_polarize, polarization_loss
from repro.algorithm import admm
from repro.algorithm.admm import _project_topk, _undirected_pairs
from repro.nn.models import build_model
from repro.nn.models.base import GraphOps
from repro.nn.training import train_model


def test_project_topk_keeps_largest():
    out = _project_topk(np.array([3.0, -5.0, 1.0, 4.0]), 2)
    assert np.array_equal(out, [0.0, -5.0, 0.0, 4.0])


def test_project_topk_edges():
    values = np.array([1.0, 2.0])
    assert np.array_equal(_project_topk(values, 0), [0.0, 0.0])
    assert np.array_equal(_project_topk(values, 5), values)


def test_undirected_pairs_symmetric_entries_share_id(tiny_graph):
    rows, cols, pair_id = _undirected_pairs(sp.csr_matrix(tiny_graph.adj))
    lookup = {}
    for r, c, p in zip(rows, cols, pair_id):
        key = (min(r, c), max(r, c))
        assert lookup.setdefault(key, p) == p
    assert pair_id.max() + 1 == tiny_graph.num_edges


def test_polarization_loss_prefers_diagonal():
    n = 50
    near = sp.csr_matrix((np.ones(2), ([1, 2], [2, 1])), shape=(n, n))
    far = sp.csr_matrix((np.ones(2), ([0, n - 1], [n - 1, 0])), shape=(n, n))
    assert polarization_loss(near) < polarization_loss(far)


def test_polarization_loss_empty():
    assert polarization_loss(sp.csr_matrix((4, 4))) == 0.0


@pytest.fixture(scope="module")
def tuned(request):
    tiny = request.getfixturevalue("tiny_graph")
    model = build_model("gcn", tiny, rng=0)
    train_model(model, tiny, epochs=15)
    config = GCoDConfig(
        prune_ratio=0.2, admm_iterations=2, admm_inner_steps=4, seed=0,
        pola_weight=2.0,
    )
    return tiny, admm_sparsify_polarize(tiny, model, config), model


def test_admm_prunes_to_target(tuned):
    graph, result, _ = tuned
    # protect_connectivity can keep slightly more than the target
    assert 0.75 <= result.kept_edge_fraction <= 0.95


def test_admm_output_symmetric_binary(tuned):
    graph, result, _ = tuned
    pruned = result.pruned_adj
    assert abs(pruned - pruned.T).nnz == 0
    assert set(np.unique(pruned.data)) <= {1.0}


def test_admm_no_isolated_nodes(tuned):
    graph, result, _ = tuned
    degrees = np.asarray(result.pruned_adj.sum(axis=1)).ravel()
    assert degrees.min() >= 1


def test_admm_no_new_edges(tuned):
    graph, result, _ = tuned
    # pruned support must be a subset of the original support
    extra = result.pruned_adj - result.pruned_adj.multiply(graph.adj)
    assert abs(extra).nnz == 0


def test_admm_restores_model_grad_flags(tuned):
    _, _, model = tuned
    assert all(p.requires_grad for p in model.parameters())


def test_admm_history_recorded(tuned):
    _, result, _ = tuned
    assert len(result.history) == 2
    assert all("task_loss" in h for h in result.history)


def test_admm_zero_inner_steps_projection_only(tiny_graph):
    # admm_inner_steps=0 used to crash with a NameError at the history
    # append; it is a legal projection-only configuration.
    model = build_model("gcn", tiny_graph, rng=0)
    config = GCoDConfig(
        prune_ratio=0.2, admm_iterations=2, admm_inner_steps=0, seed=0
    )
    result = admm_sparsify_polarize(tiny_graph, model, config)
    assert len(result.history) == 2
    for entry in result.history:
        assert np.isnan(entry["task_loss"]) and np.isnan(entry["pola"])
        assert np.isfinite(entry["residual"])
    assert result.pruned_adj.nnz > 0


class _PerStepOps:
    """ADMM's operators as they were built before one set served a run:
    a fresh ``GraphOps`` for every step's weights, with no cached edge
    order (each ``edge_spmm`` converts its COO triplets again)."""

    class _Unordered(GraphOps):
        _edge_order = None

    def __init__(self, adj, kernel_backend=None):
        self._adj, self._backend = adj, kernel_backend
        self._ops = None

    @property
    def edge_weights(self):
        return self._ops.edge_weights

    @edge_weights.setter
    def edge_weights(self, value):
        self._ops = self._Unordered(
            self._adj, edge_weights=value, kernel_backend=self._backend)

    def __getattr__(self, name):
        return getattr(self._ops, name)


@pytest.mark.parametrize("arch", ["gcn", "gat"])
def test_admm_with_one_graphops_equals_a_per_step_rebuild(
        tiny_graph, monkeypatch, arch):
    config = GCoDConfig(
        prune_ratio=0.3, admm_iterations=2, admm_inner_steps=3, seed=0,
        pola_weight=2.0,
    )
    reused = admm_sparsify_polarize(
        tiny_graph, build_model(arch, tiny_graph, rng=0), config)
    monkeypatch.setattr(admm, "GraphOps", _PerStepOps)
    rebuilt = admm_sparsify_polarize(
        tiny_graph, build_model(arch, tiny_graph, rng=0), config)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(reused.pruned_adj, attr),
                              getattr(rebuilt.pruned_adj, attr))
    assert reused.history == rebuilt.history
    assert reused.kept_edge_fraction == rebuilt.kept_edge_fraction
    assert reused.polarization_after == rebuilt.polarization_after


def test_config_rejects_negative_admm_counts():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        GCoDConfig(admm_inner_steps=-1)
    with pytest.raises(ConfigError):
        GCoDConfig(admm_iterations=-2)
