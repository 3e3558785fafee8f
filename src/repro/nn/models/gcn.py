"""The 2-layer GCN of Kipf & Welling (Eq. 1): the paper's primary model."""

from __future__ import annotations

from typing import List

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.models.base import GNNModel, GraphOps
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, ensure_rng


class GCN(GNNModel):
    """``Z = softmax(Â ReLU(Â X W0) W1)`` generalized to ``num_layers``.

    Tab. IV: 2 layers; hidden 16 for the citation graphs, 64 for
    NELL/Reddit; mean (symmetric-normalized) aggregation.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        num_layers: int = 2,
        dropout: float = 0.5,
        rng: SeedLike = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("GCN needs at least one layer")
        gen = ensure_rng(rng)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.layers: List[Linear] = [
            Linear(dims[i], dims[i + 1], rng=gen) for i in range(num_layers)
        ]
        self.dropout = dropout
        self._rng = gen

    def forward(self, x, ops: GraphOps) -> Tensor:
        """Return class logits for every node."""
        h = x
        for i, layer in enumerate(self.layers):
            h = F.dropout(h, self.dropout, self.training, rng=self._rng)
            # Combination (X W) then aggregation (Â ·) — the two phases the
            # accelerator pipelines (Sec. V-B, Fig. 7).
            h = ops.agg_sym(layer(h, ops.kernel))
            if i < len(self.layers) - 1:
                h = F.relu(h)
        return h
