"""Deep residual GCN (Li et al., DeeperGCN): 28 layers, 128 hidden (Tab. IV)."""

from __future__ import annotations

from typing import List

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.models.base import GNNModel, GraphOps
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, ensure_rng


class ResGCN(GNNModel):
    """Residual GCN with Max aggregation.

    Each block computes ``h + ReLU(Agg_max(h W))``; an input projection
    lifts features to ``hidden_dim`` and an output head maps to classes.
    28 layers in the paper's configuration; tests use fewer for speed.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        num_layers: int = 28,
        dropout: float = 0.2,
        rng: SeedLike = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("ResGCN needs at least one residual block")
        gen = ensure_rng(rng)
        self.input_proj = Linear(in_dim, hidden_dim, rng=gen)
        self.blocks: List[Linear] = [
            Linear(hidden_dim, hidden_dim, rng=gen) for _ in range(num_layers)
        ]
        self.head = Linear(hidden_dim, out_dim, rng=gen)
        self.dropout = dropout
        self._rng = gen

    @property
    def num_layers(self) -> int:
        """Number of residual blocks."""
        return len(self.blocks)

    def forward(self, x, ops: GraphOps) -> Tensor:
        """Return class logits for every node."""
        h = self.input_proj(x, ops.kernel)
        for block in self.blocks:
            update = F.relu(ops.agg_max(block(h)))
            update = F.dropout(update, self.dropout, self.training, rng=self._rng)
            h = h + update
        return self.head(h)
