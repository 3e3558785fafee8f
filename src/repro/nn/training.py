"""Training loop for semi-supervised node classification (Eq. 2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.nn import functional as F
from repro.nn.models.base import GNNModel, GraphOps
from repro.nn.optim import Adam, Optimizer
from repro.sparse.kernels import BackendLike


@dataclass
class TrainResult:
    """Outcome of a training run."""

    train_losses: List[float] = field(default_factory=list)
    val_accuracies: List[float] = field(default_factory=list)
    test_accuracy: float = 0.0
    best_epoch: int = 0
    epochs_run: int = 0
    best_state: Optional[dict] = None


def accuracy(
    model: GNNModel,
    graph: Graph,
    ops: GraphOps,
    mask: np.ndarray,
    features: Optional[sp.csr_matrix] = None,
) -> float:
    """Fraction of correctly classified nodes under ``mask``.

    ``features`` is the model input built once by the caller (see
    :func:`repro.nn.functional.sparse_input`); without it ``graph.features``
    is converted for this call.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return 0.0
    if features is None:
        features = F.sparse_input(graph.features)
    preds = model.predict(features, ops)
    return float((preds[mask] == graph.labels[mask]).mean())


def train_model(
    model: GNNModel,
    graph: Graph,
    ops: Optional[GraphOps] = None,
    epochs: int = 400,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    optimizer: Optional[Optimizer] = None,
    epoch_callback: Optional[Callable[[int, "GNNModel", float], bool]] = None,
    track_best: bool = True,
    kernel_backend: BackendLike = None,
    features: Optional[sp.csr_matrix] = None,
) -> TrainResult:
    """Train ``model`` on ``graph`` with the paper's settings (Sec. VI-A).

    ``epoch_callback(epoch, model, val_acc)`` may return ``True`` to stop
    early — this is the hook the early-bird ticket detector uses. When
    ``track_best`` is set the parameters with the best validation accuracy
    are restored before computing the test accuracy; either way the model
    comes back with every parameter's ``grad`` cleared. ``kernel_backend``
    selects the SpMM kernels used for aggregation and for the first layer's
    product (ignored when ``ops`` is supplied, which carries its own
    backend).

    The model input is ``graph.features`` converted once to the sparse
    input of :func:`repro.nn.functional.sparse_input`; rewriting
    ``graph.features`` during training does not reach it. A caller that
    changes the input between epochs (Degree-Quant) builds ``features``
    itself and rewrites its ``data`` in place from ``epoch_callback``;
    the stored-entry pattern must cover every non-zero it writes.
    """
    ops = ops or GraphOps(graph.adj, kernel_backend=kernel_backend)
    opt = optimizer or Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    result = TrainResult()
    best_val = -1.0
    x = F.sparse_input(graph.features) if features is None else features

    for epoch in range(epochs):
        model.train()
        opt.zero_grad()
        logits = model(x, ops)
        loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
        loss.backward()
        opt.step()
        result.train_losses.append(float(loss.data))

        val_acc = accuracy(model, graph, ops, graph.val_mask, features=x)
        result.val_accuracies.append(val_acc)
        if track_best and val_acc >= best_val:
            best_val = val_acc
            result.best_epoch = epoch
            result.best_state = model.state_dict()
        result.epochs_run = epoch + 1

        if epoch_callback is not None and epoch_callback(epoch, model, val_acc):
            break

    if track_best and result.best_state is not None:
        model.load_state_dict(result.best_state)
    # The last epoch's gradients belong to weights the model no longer
    # holds (or is done updating); a stored model must not carry them.
    model.zero_grad()
    result.test_accuracy = accuracy(
        model, graph, ops, graph.test_mask, features=x
    )
    return result
