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

from repro.compression.quantize import QuantSpec, quantize_dequantize
from repro.compression.random_pruning import random_prune_edges, train_random_pruned
from repro.compression.sgcn import sgcn_sparsify, train_sgcn
from repro.compression.qat import train_qat
from repro.compression.degree_quant import train_degree_quant

__all__ = [
    "QuantSpec",
    "quantize_dequantize",
    "random_prune_edges",
    "train_random_pruned",
    "sgcn_sparsify",
    "train_sgcn",
    "train_qat",
    "train_degree_quant",
]
