"""Generator tests: power-law degrees, communities, masks, determinism."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import powerlaw_community_graph
from repro.graphs.generators import sample_powerlaw_degrees
from repro.graphs.stats import gini


def test_degree_sequence_mean_near_target(rng):
    degrees = sample_powerlaw_degrees(2000, avg_degree=10.0, rng=rng)
    assert 7.0 < degrees.mean() < 13.0


def test_degree_sequence_heavy_tail(rng):
    degrees = sample_powerlaw_degrees(2000, avg_degree=6.0, rng=rng)
    # A power law has hubs far above the mean and Gini well above uniform.
    assert degrees.max() > 5 * degrees.mean()
    assert gini(degrees) > 0.3


def test_degree_sequence_respects_min(rng):
    degrees = sample_powerlaw_degrees(500, avg_degree=3.0, min_degree=1, rng=rng)
    assert degrees.min() >= 1


def test_empty_degree_sequence():
    assert sample_powerlaw_degrees(0, 5.0).shape == (0,)


def test_graph_is_symmetric_binary(tiny_graph):
    assert tiny_graph.validate_symmetric()
    assert set(np.unique(tiny_graph.adj.data)) == {1.0}


def test_graph_has_no_self_loops(tiny_graph):
    assert tiny_graph.adj.diagonal().sum() == 0


def test_graph_has_no_isolated_nodes(tiny_graph):
    assert tiny_graph.degrees().min() >= 1


def test_labels_match_class_count(tiny_graph):
    assert tiny_graph.num_classes == 4
    assert tiny_graph.labels.min() >= 0


def test_masks_are_disjoint(tiny_graph):
    g = tiny_graph
    assert not np.any(g.train_mask & g.val_mask)
    assert not np.any(g.train_mask & g.test_mask)
    assert not np.any(g.val_mask & g.test_mask)
    assert g.train_mask.sum() > 0
    assert g.test_mask.sum() > 0


def test_intra_community_edges_dominate():
    g = powerlaw_community_graph(
        300, 8.0, 32, 3, intra_prob=0.9, rng=0
    )
    coo = g.adj.tocoo()
    same = (g.labels[coo.row] == g.labels[coo.col]).mean()
    assert same > 0.6  # strong homophily, the property METIS exploits


def test_features_correlate_with_community():
    g = powerlaw_community_graph(200, 6.0, 60, 4, rng=0)
    # Average feature vectors per community should differ pairwise.
    centroids = np.stack(
        [g.features.toarray()[g.labels == c].mean(axis=0) for c in range(4)]
    )
    dots = centroids @ centroids.T
    off_diag = dots[~np.eye(4, dtype=bool)]
    assert np.all(np.diag(dots) > off_diag.max())


def test_generated_features_are_canonical_csr():
    g = powerlaw_community_graph(200, 6.0, 60, 4, rng=0)
    assert sp.isspmatrix_csr(g.features) and g.features.dtype == np.float64
    assert g.features.has_canonical_format
    assert g.features.data.all()  # every stored entry is a non-zero
    # bag-of-words: every active word has value 1, every node has some
    np.testing.assert_array_equal(g.features.data, 1.0)
    assert (np.diff(g.features.indptr) > 0).all()


def test_generation_is_deterministic():
    a = powerlaw_community_graph(150, 5.0, 20, 3, rng=42)
    b = powerlaw_community_graph(150, 5.0, 20, 3, rng=42)
    assert (a.adj != b.adj).nnz == 0
    assert np.array_equal(a.features.toarray(), b.features.toarray())


def test_different_seeds_differ():
    a = powerlaw_community_graph(150, 5.0, 20, 3, rng=1)
    b = powerlaw_community_graph(150, 5.0, 20, 3, rng=2)
    assert (a.adj != b.adj).nnz > 0
