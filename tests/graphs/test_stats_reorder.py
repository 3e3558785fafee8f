"""Graph statistics and reordering utilities."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import PartitionError
from repro.graphs import compute_stats, permute_graph, rcm_permutation
from repro.graphs.reorder import check_permutation
from repro.graphs.stats import gini


def test_gini_of_uniform_is_zero():
    assert gini(np.full(100, 7.0)) == pytest.approx(0.0, abs=1e-9)


def test_gini_of_concentrated_is_high():
    values = np.zeros(100)
    values[0] = 100.0
    assert gini(values) > 0.9


def test_gini_empty_and_zero():
    assert gini(np.array([])) == 0.0
    assert gini(np.zeros(10)) == 0.0


def test_compute_stats_fields(tiny_graph):
    stats = compute_stats(tiny_graph)
    assert stats.nodes == tiny_graph.num_nodes
    assert stats.edges == tiny_graph.num_edges
    assert 0.0 < stats.sparsity < 1.0
    assert stats.max_degree >= stats.avg_degree
    assert len(stats.as_row()) == 9


def test_check_permutation_rejects_bad():
    with pytest.raises(PartitionError):
        check_permutation(np.array([0, 0, 1]), 3)
    with pytest.raises(PartitionError):
        check_permutation(np.array([0, 1]), 3)


def test_permute_graph_preserves_structure(tiny_graph, rng):
    perm = rng.permutation(tiny_graph.num_nodes)
    permuted = permute_graph(tiny_graph, perm)
    # Degree multiset, labels multiset, and edge count are invariant.
    assert sorted(permuted.degrees()) == sorted(tiny_graph.degrees())
    assert permuted.num_edges == tiny_graph.num_edges
    assert np.array_equal(permuted.labels, tiny_graph.labels[perm])
    assert np.array_equal(
        permuted.features.toarray(), tiny_graph.features.toarray()[perm]
    )
    assert sp.isspmatrix_csr(permuted.features)
    assert permuted.features.dtype == np.float64
    assert permuted.features.has_canonical_format


def test_permute_graph_adjacency_consistent(tiny_graph, rng):
    perm = rng.permutation(tiny_graph.num_nodes)
    permuted = permute_graph(tiny_graph, perm)
    dense = tiny_graph.adj.toarray()
    np.testing.assert_array_equal(
        permuted.adj.toarray(), dense[np.ix_(perm, perm)]
    )


def test_permute_records_composition(tiny_graph, rng):
    perm1 = rng.permutation(tiny_graph.num_nodes)
    perm2 = rng.permutation(tiny_graph.num_nodes)
    once = permute_graph(tiny_graph, perm1)
    twice = permute_graph(once, perm2)
    recorded = twice.meta["permutation"]
    np.testing.assert_array_equal(
        twice.adj.toarray(),
        tiny_graph.adj.toarray()[np.ix_(recorded, recorded)],
    )


def test_rcm_reduces_bandwidth(small_graph):
    perm = rcm_permutation(small_graph)
    reordered = permute_graph(small_graph, perm)

    def bandwidth(adj):
        coo = adj.tocoo()
        return int(np.abs(coo.row - coo.col).max()) if coo.nnz else 0

    assert bandwidth(reordered.adj) <= bandwidth(small_graph.adj)
