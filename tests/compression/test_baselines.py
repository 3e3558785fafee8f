"""Compression baselines (Tab. VII): each trains and behaves as specified."""

import numpy as np
import pytest

from repro.compression import (
    random_prune_edges,
    train_degree_quant,
    train_qat,
    train_random_pruned,
    train_sgcn,
)
from repro.compression.degree_quant import protection_probabilities
from repro.compression.quantize import quantize_dequantize


def test_random_prune_ratio(tiny_graph):
    pruned = random_prune_edges(tiny_graph.adj, 0.3, rng=0)
    ratio = 1 - pruned.nnz / tiny_graph.adj.nnz
    assert 0.15 < ratio < 0.45


def test_random_prune_symmetric(tiny_graph):
    pruned = random_prune_edges(tiny_graph.adj, 0.3, rng=0)
    assert abs(pruned - pruned.T).nnz == 0


def test_random_prune_zero_ratio_is_identity(tiny_graph):
    pruned = random_prune_edges(tiny_graph.adj, 0.0, rng=0)
    assert (pruned != tiny_graph.adj).nnz == 0


def test_rp_trains(tiny_graph):
    result, pruned = train_random_pruned(tiny_graph, epochs=15, seed=0)
    assert result.test_accuracy > 0.3
    assert pruned.adj.nnz < tiny_graph.adj.nnz


def test_qat_weights_are_quantized(tiny_graph):
    result, model = train_qat(tiny_graph, bits=8, epochs=10, seed=0)
    for name, p in model.named_parameters():
        if p.data.ndim >= 2:
            np.testing.assert_allclose(
                p.data, quantize_dequantize(p.data, 8), atol=1e-12,
                err_msg=f"{name} not on the int8 grid",
            )


def test_qat_reaches_reasonable_accuracy(tiny_graph):
    result, _ = train_qat(tiny_graph, bits=8, epochs=20, seed=0)
    assert result.test_accuracy > 0.4


def test_degree_quant_protection_monotone():
    degrees = np.array([1, 5, 10, 100])
    probs = protection_probabilities(degrees, max_prob=0.9)
    assert np.all(np.diff(probs) > 0)
    assert probs.max() <= 0.9


def test_degree_quant_trains_and_restores_features(tiny_graph):
    before = tiny_graph.features.copy()
    result, _ = train_degree_quant(tiny_graph, epochs=10, seed=0)
    np.testing.assert_array_equal(tiny_graph.features, before)
    assert result.test_accuracy > 0.3


def test_degree_quant_rewrite_reaches_the_training_input(tiny_graph, monkeypatch):
    """The per-epoch re-quantization must land in the input training reads."""
    from repro.compression import degree_quant

    seen = []
    real_train = degree_quant.train_model

    def spy(model, graph, epoch_callback, features, **kwargs):
        def callback(epoch, m, acc):
            stop = epoch_callback(epoch, m, acc)
            seen.append(features.toarray())
            return stop

        return real_train(
            model, graph, epoch_callback=callback, features=features, **kwargs
        )

    monkeypatch.setattr(degree_quant, "train_model", spy)
    # every row unprotected, every value quantized to zero
    monkeypatch.setattr(
        degree_quant, "quantize_dequantize", lambda v, bits: np.zeros_like(v)
    )
    train_degree_quant(tiny_graph, epochs=2, max_protect_prob=0.0, seed=0)
    assert len(seen) == 2 and not seen[0].any()


def test_sgcn_prunes_and_trains(tiny_graph):
    result, pruned = train_sgcn(
        tiny_graph, prune_ratio=0.2, pretrain_epochs=8, retrain_epochs=10,
        seed=0,
    )
    assert pruned.adj.nnz < tiny_graph.adj.nnz
    assert result.test_accuracy > 0.3
