"""Neural-network substrate: autograd, layers, optimizers, GCN models.

A self-contained replacement for the PyTorch stack the paper uses: a small
reverse-mode autograd engine (:mod:`repro.nn.tensor`), graph-specific ops
(:mod:`repro.nn.functional`), the five evaluated models
(:mod:`repro.nn.models`), and a training loop (:mod:`repro.nn.training`).
"""

from repro.nn.tensor import Tensor
from repro.nn.layers import Linear, Module
from repro.nn.optim import Adam
from repro.nn.training import TrainResult, accuracy, train_model
from repro.nn.models import (
    GCN,
    GIN,
    GAT,
    GraphSAGE,
    ResGCN,
    GNNModel,
    GraphOps,
    build_model,
    MODEL_ARCHS,
)

__all__ = [
    "Tensor",
    "Linear",
    "Module",
    "Adam",
    "TrainResult",
    "accuracy",
    "train_model",
    "GCN",
    "GIN",
    "GAT",
    "GraphSAGE",
    "ResGCN",
    "GNNModel",
    "GraphOps",
    "build_model",
    "MODEL_ARCHS",
]
