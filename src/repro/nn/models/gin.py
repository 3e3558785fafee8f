"""Graph Isomorphism Network (Xu et al.) with Add aggregation (Tab. IV)."""

from __future__ import annotations

from typing import List

from repro.nn import functional as F
from repro.nn.layers import BatchNorm1d, Linear, Module
from repro.nn.models.base import GNNModel, GraphOps
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, ensure_rng


class _GINMLP(Module):
    """One GIN layer: the sum aggregation and the 2-layer MLP after it.

    ``fc1`` distributes over the aggregation,
    ``((A + (1 + eps) I) h) W1 = A (h W1) + (1 + eps) h W1``, so the weight
    product runs first and a sparse input is never aggregated itself.
    """

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int, rng=None):
        super().__init__()
        gen = ensure_rng(rng)
        self.fc1 = Linear(in_dim, hidden_dim, rng=gen)
        self.bn = BatchNorm1d(hidden_dim)
        self.fc2 = Linear(hidden_dim, out_dim, rng=gen)

    def __call__(self, x, ops: GraphOps, eps: Tensor) -> Tensor:
        xw = F.matmul(x, self.fc1.weight, backend=ops.kernel)
        hidden = ops.agg_sum(xw) + xw * (eps + Tensor(1.0)) + self.fc1.bias
        return self.fc2(F.relu(self.bn(hidden)))


class GIN(GNNModel):
    """``h' = MLP((1 + eps) h + Σ_{j∈N(i)} h_j)``; 3 layers per Tab. IV."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        num_layers: int = 3,
        dropout: float = 0.5,
        eps: float = 0.0,
        rng: SeedLike = None,
    ):
        super().__init__()
        gen = ensure_rng(rng)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.mlps: List[_GINMLP] = [
            _GINMLP(dims[i], hidden_dim, dims[i + 1], rng=gen)
            for i in range(num_layers)
        ]
        self.eps = Tensor(eps * 1.0 + 0.0, requires_grad=True)
        self.dropout = dropout
        self._rng = gen

    def forward(self, x, ops: GraphOps) -> Tensor:
        """Return class logits for every node."""
        h = x
        for i, mlp in enumerate(self.mlps):
            h = F.dropout(h, self.dropout, self.training, rng=self._rng)
            h = mlp(h, ops, self.eps)
            if i < len(self.mlps) - 1:
                h = F.relu(h)
        return h
