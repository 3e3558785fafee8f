"""The GCoD split-and-conquer training algorithm (Sec. IV).

Three steps, orchestrated by :func:`run_gcod` / :class:`GCoDTrainer`:

1. partition the graph and pretrain the GCN (with optional early-bird
   early stopping);
2. tune the graph — ADMM-driven sparsification plus polarization — and
   retrain;
3. structurally sparsify patches and retrain again.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("GCoDConfig",),
    ".admm": ("ADMMResult", "admm_sparsify_polarize", "polarization_loss"),
    ".structural": ("patch_nnz_counts", "structural_sparsify"),
    ".earlybird": ("EarlyBirdDetector",),
    ".pipeline": ("GCoDResult", "GCoDTrainer", "run_gcod"),
})
