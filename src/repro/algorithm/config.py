"""Hyper-parameters for the GCoD training pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError


@dataclass
class GCoDConfig:
    """All knobs of the three-step GCoD algorithm (Sec. IV-B).

    Defaults follow the paper where stated: 400-epoch budget, prune ratio
    ~10% (the SOTA ratio GCoD reaches without accuracy loss), patch
    threshold η in [10, 30], C classes and S subgraphs from the ablation
    ranges.
    """

    # Step 1: partitioning
    num_classes: int = 2
    num_groups: int = 2
    num_subgraphs: int = 8

    # Step 1: pretraining
    pretrain_epochs: int = 400
    early_bird: bool = True
    early_bird_threshold: float = 0.10
    early_bird_patience: int = 3
    early_bird_prune_ratio: float = 0.5

    # Step 2: sparsify + polarize (ADMM)
    prune_ratio: float = 0.10
    pola_weight: float = 1.0
    admm_rho: float = 1e-2
    admm_iterations: int = 4
    admm_inner_steps: int = 20
    admm_lr: float = 0.05
    protect_connectivity: bool = True

    # Step 3: structural sparsification
    patch_threshold: int = 10  # η
    patch_size: int = 0  # 0 = auto (derived from N and S)
    off_diagonal_only: bool = True

    # Retraining after steps 2 and 3
    retrain_epochs: int = 200

    # Misc
    lr: float = 0.01
    weight_decay: float = 5e-4
    seed: int = 0
    # SpMM kernel backend for every aggregation the pipeline performs
    # (None = the registry default, "vectorized").
    kernel_backend: Optional[str] = None

    def __post_init__(self):
        if self.kernel_backend is not None:
            # Resolve eagerly so a typo fails at configuration time with the
            # registry's clear unknown-backend message.
            from repro.sparse.kernels import backend_name

            backend_name(self.kernel_backend)
        if not 0.0 <= self.prune_ratio < 1.0:
            raise ConfigError("prune_ratio must be in [0, 1)")
        if self.num_classes < 1 or self.num_groups < 1:
            raise ConfigError("num_classes and num_groups must be >= 1")
        if self.num_subgraphs < self.num_classes:
            raise ConfigError("need at least one subgraph per class")
        if self.admm_iterations < 0 or self.admm_inner_steps < 0:
            raise ConfigError(
                "admm_iterations and admm_inner_steps must be non-negative"
            )
        if self.patch_threshold < 0:
            raise ConfigError("patch_threshold must be non-negative")

    def auto_patch_size(self, num_nodes: int) -> int:
        """Patch edge length: explicit if set, else ~1/4 of a subgraph side."""
        if self.patch_size > 0:
            return self.patch_size
        approx_subgraph = max(num_nodes // max(self.num_subgraphs, 1), 4)
        return max(4, approx_subgraph // 4)
