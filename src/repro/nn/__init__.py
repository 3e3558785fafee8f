"""Neural-network substrate: autograd, layers, optimizers, GCN models.

A self-contained replacement for the PyTorch stack the paper uses: a small
reverse-mode autograd engine (:mod:`repro.nn.tensor`), graph-specific ops
(:mod:`repro.nn.functional`), the five evaluated models
(:mod:`repro.nn.models`), and a training loop (:mod:`repro.nn.training`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".tensor": ("Tensor",),
    ".layers": ("Linear", "Module"),
    ".optim": ("Adam",),
    ".training": ("TrainResult", "accuracy", "train_model"),
    ".models": ("GCN", "GIN", "GAT", "GraphSAGE", "ResGCN", "GNNModel",
                "GraphOps", "build_model", "MODEL_ARCHS"),
})
