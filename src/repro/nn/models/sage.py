"""GraphSAGE (Hamilton et al.): mean aggregation + neighbour sampling.

Tab. IV: two layers, same hidden dims as GCN, neighbourhood sample sizes of
25 and 10 per layer. Sampling builds a *sampled* ``GraphOps`` per call during
training; evaluation runs full-batch on the whole neighbourhood.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.models.base import GNNModel, GraphOps
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, ensure_rng


def sample_neighbors(
    adj: sp.spmatrix, max_neighbors: int, rng: SeedLike = None
) -> sp.csr_matrix:
    """Uniformly subsample each node's neighbour list to ``max_neighbors``.

    This is the "Sampling Unit" workload of the accelerator (Sec. V-B): pick
    random non-zeros from each adjacency column/row.
    """
    gen = ensure_rng(rng)
    csr = sp.csr_matrix(adj)
    degrees = np.diff(csr.indptr)
    oversized = np.nonzero(degrees > max_neighbors)[0]
    if oversized.size == 0:  # nothing to subsample: keep the structure as is
        return sp.csr_matrix(
            (
                np.ones(csr.indices.shape[0]),
                csr.indices.astype(np.int64),
                csr.indptr.copy(),
            ),
            shape=csr.shape,
        )
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    for i in oversized:
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        neigh = gen.choice(
            csr.indices[lo:hi], size=max_neighbors, replace=False
        )
        rows.append(np.full(neigh.size, i, dtype=np.int64))
        cols.append(neigh.astype(np.int64))
    # Rows at or under the budget keep their full neighbour lists.
    keep = np.repeat(degrees <= max_neighbors, degrees)
    row = np.concatenate(
        [np.repeat(np.arange(csr.shape[0]), degrees)[keep]] + rows
    )
    col = np.concatenate([csr.indices[keep].astype(np.int64)] + cols)
    return sp.csr_matrix(
        (np.ones(row.shape[0]), (row, col)), shape=csr.shape
    )


class SAGELayer(GNNModel):
    """``h' = W_self h + W_neigh mean(h_neigh)`` (mean aggregator variant)."""

    def __init__(self, in_dim: int, out_dim: int, rng=None):
        super().__init__()
        gen = ensure_rng(rng)
        self.self_fc = Linear(in_dim, out_dim, rng=gen)
        self.neigh_fc = Linear(in_dim, out_dim, bias=False, rng=gen)

    def forward(self, x, ops: GraphOps) -> Tensor:
        # mean(h_neigh) W_neigh == mean((h W_neigh)_neigh): combining first
        # keeps a sparse input out of the aggregation.
        return self.self_fc(x, ops.kernel) + ops.agg_mean(
            self.neigh_fc(x, ops.kernel)
        )


class GraphSAGE(GNNModel):
    """Two-layer GraphSAGE with per-layer neighbour sampling during training."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        sample_sizes: Sequence[int] = (25, 10),
        dropout: float = 0.5,
        rng: SeedLike = None,
    ):
        super().__init__()
        gen = ensure_rng(rng)
        self.layer1 = SAGELayer(in_dim, hidden_dim, rng=gen)
        self.layer2 = SAGELayer(hidden_dim, out_dim, rng=gen)
        self.sample_sizes = tuple(sample_sizes)
        self.dropout = dropout
        self._rng = gen

    def _layer_ops(self, ops: GraphOps, layer_idx: int) -> GraphOps:
        """Sampled ops during training; the provided full ops otherwise."""
        if not self.training or ops.trainable:
            return ops
        adj = sp.csr_matrix(
            (ops.base_data, (ops.rows, ops.cols)),
            shape=(ops.num_nodes, ops.num_nodes),
        )
        sampled = sample_neighbors(adj, self.sample_sizes[layer_idx], rng=self._rng)
        return GraphOps(sampled, kernel_backend=ops.kernel)

    def forward(self, x, ops: GraphOps) -> Tensor:
        """Return class logits for every node."""
        h = F.dropout(x, self.dropout, self.training, rng=self._rng)
        h = F.relu(self.layer1(h, self._layer_ops(ops, 0)))
        h = F.dropout(h, self.dropout, self.training, rng=self._rng)
        return self.layer2(h, self._layer_ops(ops, 1))
