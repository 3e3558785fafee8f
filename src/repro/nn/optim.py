"""Gradient-descent optimizers (the paper trains everything with Adam, lr 0.01)."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimizer: holds the parameter list and zero_grad plumbing."""

    def __init__(self, params: Sequence[Tensor]):
        self.params: List[Tensor] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update; implemented by subclasses."""
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba), the paper's optimizer (Sec. VI-A)."""

    def __init__(
        self,
        params,
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Take one Adam step using accumulated gradients."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
