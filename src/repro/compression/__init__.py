"""GCN compression baselines compared against GCoD in Tab. VII.

* :mod:`repro.compression.random_pruning` — RP [10]: remove edges at random;
* :mod:`repro.compression.sgcn` — SGCN [23]: ADMM graph sparsifier (GCoD's
  Step 2 without the polarization term);
* :mod:`repro.compression.qat` — QAT [8]: quantization-aware training with a
  straight-through estimator;
* :mod:`repro.compression.degree_quant` — Degree-Quant [34]: QAT with
  stochastic protection of high-degree nodes.

Plus :mod:`repro.compression.quantize`, the shared int-k fake-quantization
machinery also used by the GCoD (8-bit) accelerator variant.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".quantize": ("QuantSpec", "quantize_dequantize"),
    ".random_pruning": ("random_prune_edges", "train_random_pruned"),
    ".sgcn": ("sgcn_sparsify", "train_sgcn"),
    ".qat": ("train_qat",),
    ".degree_quant": ("train_degree_quant",),
})
