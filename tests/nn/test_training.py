"""The training loop: learning actually happens, callbacks, best-state."""

import copy

import numpy as np
import pytest

from repro.nn import accuracy, build_model, train_model
from repro.nn import functional as F
from repro.nn.models.base import GraphOps


def test_gcn_learns_tiny_graph(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    result = train_model(model, tiny_graph, epochs=40)
    assert result.test_accuracy > 0.6  # communities are learnable
    assert result.train_losses[-1] < result.train_losses[0]


def test_train_tracks_best_epoch(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    result = train_model(model, tiny_graph, epochs=15)
    assert 0 <= result.best_epoch < 15
    assert len(result.val_accuracies) == result.epochs_run


def test_callback_stops_training(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)

    def stop_at_5(epoch, m, acc):
        return epoch >= 5

    result = train_model(model, tiny_graph, epochs=50, epoch_callback=stop_at_5)
    assert result.epochs_run == 6


def test_best_state_restored(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    result = train_model(model, tiny_graph, epochs=20, track_best=True)
    ops = GraphOps(tiny_graph.adj)
    restored_acc = accuracy(model, tiny_graph, ops, tiny_graph.val_mask)
    assert restored_acc == pytest.approx(
        result.val_accuracies[result.best_epoch], abs=1e-9
    )


def test_accuracy_empty_mask_is_zero(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    ops = GraphOps(tiny_graph.adj)
    assert accuracy(model, tiny_graph, ops,
                    np.zeros(tiny_graph.num_nodes, dtype=bool)) == 0.0


def test_training_is_deterministic(tiny_graph):
    r1 = train_model(build_model("gcn", tiny_graph, rng=3), tiny_graph, epochs=10)
    r2 = train_model(build_model("gcn", tiny_graph, rng=3), tiny_graph, epochs=10)
    assert r1.train_losses == r2.train_losses


def test_callback_rewrite_of_the_input_reaches_the_next_epoch(tiny_graph):
    """Training reads its input once; a callback that rewrites the input's
    stored entries (as Degree-Quant does) must still steer the next epoch."""
    graph = tiny_graph
    ops = GraphOps(graph.adj)
    features = F.sparse_input(graph.features)
    expected = {}

    def epoch_one_loss(m, x):
        # A twin carries the same weights and dropout stream into epoch 1.
        twin = copy.deepcopy(m)
        twin.train()
        logits = twin(x, ops)
        return float(F.cross_entropy(logits, graph.labels, graph.train_mask).data)

    def zero_after_first(epoch, m, acc):
        if epoch == 0:
            expected["unchanged"] = epoch_one_loss(m, features)
            features.data[:] = 0.0
            expected["zero"] = epoch_one_loss(m, features)
        return False

    result = train_model(
        build_model("gcn", graph, rng=0), graph, ops=ops, epochs=2,
        epoch_callback=zero_after_first, features=features,
    )
    assert expected["zero"] != expected["unchanged"]
    assert result.train_losses[1] == expected["zero"]
