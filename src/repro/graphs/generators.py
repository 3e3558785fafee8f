"""Synthetic graph generators with power-law degrees and community structure.

Real-world GCN graphs combine two properties that GCoD exploits:

* node degrees follow a power law (Sec. I), which makes per-node workloads
  wildly imbalanced and motivates degree-class binning;
* edges cluster inside communities, which is what lets METIS partitioning
  plus polarization concentrate non-zeros into diagonal blocks.

``powerlaw_community_graph`` produces graphs with both, via a degree-
corrected stochastic block model (Chung–Lu sampling with community mixing),
plus bag-of-words-style features whose active dimensions correlate with the
node's community so that GCN training is a meaningful task, not noise
fitting.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng


def sample_powerlaw_degrees(
    n: int,
    avg_degree: float,
    exponent: float = 2.1,
    min_degree: int = 1,
    rng: SeedLike = None,
) -> np.ndarray:
    """Sample a degree sequence from a truncated discrete power law.

    The sequence is rescaled so its mean matches ``avg_degree`` while keeping
    the heavy tail (a few hub nodes with degree >> mean).
    """
    rng = ensure_rng(rng)
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    # Inverse-CDF sampling of P(d) ~ d^-exponent on [min_degree, n).
    u = rng.random(n)
    dmin = float(min_degree)
    dmax = float(max(n - 1, min_degree + 1))
    a = 1.0 - exponent
    raw = (u * (dmax**a - dmin**a) + dmin**a) ** (1.0 / a)
    scale = avg_degree / max(raw.mean(), 1e-12)
    degrees = np.maximum(np.round(raw * scale), min_degree).astype(np.int64)
    return np.minimum(degrees, n - 1)


def _sample_edges(
    rng: np.random.Generator,
    communities: np.ndarray,
    degrees: np.ndarray,
    intra_prob: float,
    target_edges: int,
) -> np.ndarray:
    """Draw (u, v) endpoint pairs; intra-community with prob ``intra_prob``."""
    n = communities.shape[0]
    n_comm = int(communities.max()) + 1
    members = [np.nonzero(communities == c)[0] for c in range(n_comm)]
    weights = degrees.astype(np.float64)
    global_p = weights / weights.sum()
    member_p = []
    for nodes in members:
        w = weights[nodes]
        member_p.append(w / w.sum() if w.sum() > 0 else None)

    # Oversample: duplicates and self-loops are dropped afterwards.
    n_draw = int(target_edges * 1.6) + 16
    u = rng.choice(n, size=n_draw, p=global_p)
    v = np.empty(n_draw, dtype=np.int64)
    intra = rng.random(n_draw) < intra_prob
    # Inter-community endpoints: degree-weighted over the whole graph.
    v[~intra] = rng.choice(n, size=int((~intra).sum()), p=global_p)
    # Intra-community endpoints: degree-weighted within u's community.
    for c in range(n_comm):
        sel = intra & (communities[u] == c)
        count = int(sel.sum())
        if count and member_p[c] is not None:
            v[sel] = rng.choice(members[c], size=count, p=member_p[c])
        elif count:
            v[sel] = u[sel]
    return np.stack([u, v], axis=1)


def powerlaw_community_graph(
    num_nodes: int,
    avg_degree: float,
    num_features: int,
    num_classes: int,
    intra_prob: float = 0.8,
    exponent: float = 2.1,
    feature_density: float = 0.02,
    train_per_class: int = 20,
    val_fraction: float = 0.15,
    test_fraction: float = 0.3,
    name: str = "synthetic",
    rng: SeedLike = None,
) -> Graph:
    """Generate a labelled, attributed power-law community graph.

    Parameters mirror the knobs the paper's datasets differ in: scale
    (``num_nodes`` / ``avg_degree``), feature width (``num_features``), class
    count, and clustering strength (``intra_prob``).
    """
    rng = ensure_rng(rng)
    communities = rng.integers(0, num_classes, size=num_nodes)
    degrees = sample_powerlaw_degrees(
        num_nodes, avg_degree, exponent=exponent, rng=rng
    )
    target_edges = max(int(degrees.sum() // 2), num_nodes)
    pairs = _sample_edges(rng, communities, degrees, intra_prob, target_edges)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # Symmetrize and deduplicate.
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    uniq = np.unique(lo * num_nodes + hi)
    lo, hi = uniq // num_nodes, uniq % num_nodes
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    adj = sp.csr_matrix(
        (np.ones(rows.shape[0]), (rows, cols)), shape=(num_nodes, num_nodes)
    )
    # Guarantee no isolated nodes: connect each to a random same-community
    # node (or any node) so normalization and METIS stay well-posed.
    isolated = np.nonzero(np.asarray(adj.sum(axis=1)).ravel() == 0)[0]
    if isolated.size:
        partners = rng.integers(0, num_nodes, size=isolated.size)
        partners = np.where(partners == isolated, (partners + 1) % num_nodes, partners)
        fix = sp.csr_matrix(
            (
                np.ones(2 * isolated.size),
                (
                    np.concatenate([isolated, partners]),
                    np.concatenate([partners, isolated]),
                ),
            ),
            shape=(num_nodes, num_nodes),
        )
        adj = adj + fix
    adj.data = np.ones_like(adj.data)

    features = _community_features(
        rng, communities, num_classes, num_features, feature_density
    )
    train_mask, val_mask, test_mask = _planetoid_split(
        rng, communities, num_classes, train_per_class, val_fraction, test_fraction
    )
    return Graph(
        adj=adj,
        features=features,
        labels=communities,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        name=name,
    )


def _community_features(
    rng: np.random.Generator,
    communities: np.ndarray,
    num_classes: int,
    num_features: int,
    density: float,
) -> sp.csr_matrix:
    """Sparse bag-of-words features whose support depends on the community.

    Built as CSR directly: a dense ``N x F`` array would be ~97% zeros.
    """
    n = communities.shape[0]
    active_per_node = max(1, int(round(num_features * density)))
    # Each community prefers a contiguous band of the vocabulary plus a
    # shared background, mimicking topic-skewed citation abstracts.
    band = max(1, num_features // max(num_classes, 1))
    entries = []  # row * num_features + column of every active word
    for c in range(num_classes):
        nodes = np.nonzero(communities == c)[0]
        if not nodes.size:
            continue
        lo = c * band
        band_ids = (lo + rng.integers(0, band, size=(nodes.size, active_per_node))) % (
            num_features
        )
        noise_ids = rng.integers(
            0, num_features, size=(nodes.size, max(1, active_per_node // 3))
        )
        ids = np.concatenate([band_ids, noise_ids], axis=1)
        entries.append(nodes[:, None] * num_features + ids)
    # A word drawn twice is still one active entry of value 1.
    flat = np.unique(
        np.concatenate([np.zeros(0, np.int64)] + [e.ravel() for e in entries])
    )
    return sp.csr_matrix(
        (np.ones(flat.size), (flat // num_features, flat % num_features)),
        shape=(n, num_features),
    )


def _planetoid_split(
    rng: np.random.Generator,
    labels: np.ndarray,
    num_classes: int,
    train_per_class: int,
    val_fraction: float,
    test_fraction: float,
) -> tuple:
    """Planetoid-style split: fixed train nodes per class, then val/test."""
    n = labels.shape[0]
    train_mask = np.zeros(n, dtype=bool)
    for c in range(num_classes):
        nodes = np.nonzero(labels == c)[0]
        take = min(train_per_class, max(1, nodes.size // 2))
        if nodes.size:
            train_mask[rng.choice(nodes, size=take, replace=False)] = True
    remaining = np.nonzero(~train_mask)[0]
    rng.shuffle(remaining)
    n_val = int(n * val_fraction)
    n_test = int(n * test_fraction)
    val_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    val_mask[remaining[:n_val]] = True
    test_mask[remaining[n_val : n_val + n_test]] = True
    return train_mask, val_mask, test_mask
