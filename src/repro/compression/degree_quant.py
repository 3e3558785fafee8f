"""Degree-Quant baseline [34]: degree-aware quantization-aware training.

Degree-Quant's observation: aggregation error concentrates at high-in-degree
nodes (their sums have the widest dynamic range), so during training those
nodes are stochastically *protected* — kept in full precision — with
probability proportional to their degree percentile, while everything else
trains under int-``bits`` quantization noise.

We reproduce the mechanism with a per-epoch protective row mask applied to
the feature quantizer, combined with the same weight projection as QAT.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compression.qat import _project_weights
from repro.compression.quantize import quantize_dequantize
from repro.graphs.graph import Graph
from repro.nn import functional as F
from repro.nn.models import build_model
from repro.nn.models.base import GNNModel
from repro.nn.training import TrainResult, train_model
from repro.utils.rng import ensure_rng


def protection_probabilities(degrees: np.ndarray, max_prob: float = 0.9) -> np.ndarray:
    """Per-node protection probability: degree percentile scaled to max_prob."""
    ranks = np.argsort(np.argsort(degrees))
    if degrees.size <= 1:
        return np.full(degrees.shape, max_prob / 2)
    return max_prob * ranks / (degrees.size - 1)


def train_degree_quant(
    graph: Graph,
    arch: str = "gcn",
    bits: int = 8,
    epochs: int = 200,
    max_protect_prob: float = 0.9,
    seed: int = 0,
) -> Tuple[TrainResult, GNNModel]:
    """Degree-Quant training: protected-row feature quantization + QAT weights."""
    rng = ensure_rng(seed)
    probs = protection_probabilities(graph.degrees(), max_protect_prob)
    model = build_model(arch, graph, rng=seed)
    # Training reads its input once, so the per-epoch rewrite goes into
    # the input's stored entries. Zeros quantize to zero, so the pattern
    # of the full-precision features covers every quantized value too.
    features = F.sparse_input(graph.features)
    original = features.data.copy()
    quantized = quantize_dequantize(original, bits)
    entry_rows = np.repeat(
        np.arange(features.shape[0]), np.diff(features.indptr)
    )

    def per_epoch(epoch, m, val_acc):
        # Re-draw the protection mask and re-quantize unprotected node
        # features for the next epoch; weights snap onto the int grid.
        protected = rng.random(probs.shape[0]) < probs
        features.data[:] = np.where(protected[entry_rows], original, quantized)
        _project_weights(m, bits)
        return False

    result = train_model(
        model, graph, epochs=epochs, epoch_callback=per_epoch,
        features=features,
    )
    _project_weights(model, bits)
    return result, model
