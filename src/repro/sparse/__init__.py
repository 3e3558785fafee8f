"""Sparse matrix formats with explicit storage accounting.

The GCoD accelerator reasons about formats, not just values: the denser
branch consumes COO/dense inputs while the sparser branch consumes CSC
because of its smaller storage footprint (Sec. V-B). This package provides
COO / CSR / CSC containers whose byte costs are first-class, plus SpMM
kernels in both the row-wise and column-wise product orders used by the
efficiency- and resource-aware pipelines (Fig. 7).

Kernel implementations are pluggable: :mod:`repro.sparse.kernels` registers
a loop-exact ``reference`` backend (ground truth), a batched ``vectorized``
backend (the default), and a block-granular ``tiled`` backend that mirrors
the accelerator's chunk schedule and can report per-tile work profiles —
selected per call or process-wide.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import from_scipy, to_scipy
from repro.sparse.kernels import (
    KernelBackend,
    backend_choices,
    get_backend,
    set_default_backend,
)
from repro.sparse.ops import (
    spmm_row_product,
    spmm_column_product,
    spmm,
    spmm_batch,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "KernelBackend",
    "backend_choices",
    "from_scipy",
    "get_backend",
    "set_default_backend",
    "to_scipy",
    "spmm_row_product",
    "spmm_column_product",
    "spmm",
    "spmm_batch",
]
