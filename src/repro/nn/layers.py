"""Parameterized layers and the ``Module`` base class."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor
from repro.sparse.kernels import BackendLike
from repro.utils.rng import SeedLike, ensure_rng


class Module:
    """Base class: parameter registration, train/eval mode, state dicts."""

    def __init__(self):
        self.training = True

    def parameters(self) -> List[Tensor]:
        """All trainable tensors reachable from this module, depth-first."""
        params: List[Tensor] = []
        seen = set()
        for _, tensor in self.named_parameters():
            if id(tensor) not in seen:
                seen.add(id(tensor))
                params.append(tensor)
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield (dotted name, tensor) pairs for every trainable parameter."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=name + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        """Enable training mode (dropout active) on self and children."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Enable eval mode (dropout inert) on self and children."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's value, keyed by dotted name."""
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict` (shapes must match)."""
        named = dict(self.named_parameters())
        for name, value in state.items():
            if name not in named:
                raise KeyError(f"unexpected parameter {name!r}")
            if named[name].data.shape != value.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            named[name].data = value.copy()


class Linear(Module):
    """Affine layer ``x @ W + b``; ``x`` may be the sparse model input."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True, rng: SeedLike = None):
        super().__init__()
        gen = ensure_rng(rng)
        self.weight = Tensor(glorot_matrix(in_dim, out_dim, gen), requires_grad=True)
        self.bias = (
            Tensor(init.zeros((out_dim,)), requires_grad=True) if bias else None
        )

    def __call__(self, x, backend: BackendLike = None) -> Tensor:
        out = F.matmul(x, self.weight, backend=backend)
        if self.bias is not None:
            out = out + self.bias
        return out


class BatchNorm1d(Module):
    """Feature-wise batch normalization with running statistics.

    GIN's sum aggregation on power-law graphs produces activations whose
    scale varies by orders of magnitude between hub and leaf nodes; the
    reference GIN interleaves batch norm after every MLP for exactly this
    reason, and training diverges without it.
    """

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor) -> Tensor:
        from repro.nn.tensor import power

        if self.training:
            mean = x.data.mean(axis=0)
            var = x.data.var(axis=0)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        # Normalization treats the batch statistics as constants (a standard
        # simplification that keeps gradients stable for full-batch GCNs).
        scale = 1.0 / np.sqrt(var + self.eps)
        normalized = (x + Tensor(-mean)) * Tensor(scale)
        return normalized * self.gamma + self.beta


def glorot_matrix(in_dim: int, out_dim: int, rng: SeedLike = None) -> np.ndarray:
    """Glorot-uniform weight matrix of shape (in_dim, out_dim)."""
    return init.glorot((in_dim, out_dim), rng=rng)
