"""Graph Attention Network (Velickovic et al.): 8 hidden units, 8 heads (Tab. IV)."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Module
from repro.nn.models.base import GNNModel, GraphOps
from repro.nn.tensor import Tensor, concat, reshape, split
from repro.utils.rng import SeedLike, ensure_rng


class GATLayer(Module):
    """One multi-head attention layer.

    Per head: ``e_ij = LeakyReLU(a_l · W h_i + a_r · W h_j)`` for each edge
    ``(i <- j)``; attention is softmaxed over each node's in-edges via
    ``segment_softmax``; outputs are concatenated (hidden layers) or averaged
    (output layer).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        heads: int,
        concat_heads: bool,
        rng=None,
    ):
        super().__init__()
        gen = ensure_rng(rng)
        self.heads = heads
        self.out_dim = out_dim
        self.concat_heads = concat_heads
        self.weights: List[Tensor] = [
            Tensor(init.glorot((in_dim, out_dim), rng=gen), requires_grad=True)
            for _ in range(heads)
        ]
        self.att_left: List[Tensor] = [
            Tensor(init.glorot((out_dim, 1), rng=gen).ravel(), requires_grad=True)
            for _ in range(heads)
        ]
        self.att_right: List[Tensor] = [
            Tensor(init.glorot((out_dim, 1), rng=gen).ravel(), requires_grad=True)
            for _ in range(heads)
        ]

    def __call__(self, x, ops: GraphOps) -> Tensor:
        # One product for all heads: a sparse input is multiplied (and
        # transposed for the backward pass) once, not once per head.
        stacked = F.matmul(x, concat(self.weights, axis=1), backend=ops.kernel)
        head_outputs = []
        for h, transformed in enumerate(split(stacked, self.heads, axis=1)):
            # Scalar score components per node, combined per edge.
            left = transformed @ reshape(self.att_left[h], (-1, 1))
            right = transformed @ reshape(self.att_right[h], (-1, 1))
            scores = F.leaky_relu(
                F.gather_rows(left, ops.rows) + F.gather_rows(right, ops.cols)
            )
            edge_scores = reshape(scores, (-1,))
            out = ops.attention_aggregate(transformed, edge_scores)
            head_outputs.append(out)
        if self.concat_heads:
            return concat(head_outputs, axis=1)
        total = head_outputs[0]
        for out in head_outputs[1:]:
            total = total + out
        return total * Tensor(1.0 / self.heads)


class GAT(GNNModel):
    """Two GAT layers: 8-head concat hidden layer, averaged output layer."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        heads: int = 8,
        dropout: float = 0.6,
        rng: SeedLike = None,
    ):
        super().__init__()
        gen = ensure_rng(rng)
        self.layer1 = GATLayer(in_dim, hidden_dim, heads, concat_heads=True, rng=gen)
        self.layer2 = GATLayer(
            hidden_dim * heads, out_dim, heads=1, concat_heads=False, rng=gen
        )
        self.dropout = dropout
        self._rng = gen

    def forward(self, x, ops: GraphOps) -> Tensor:
        """Return class logits for every node."""
        h = F.dropout(x, self.dropout, self.training, rng=self._rng)
        h = F.elu(self.layer1(h, ops))
        h = F.dropout(h, self.dropout, self.training, rng=self._rng)
        return self.layer2(h, ops)
