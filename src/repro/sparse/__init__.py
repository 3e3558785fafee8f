"""SpMM kernels in the two product orders GCoD's pipelines use (Fig. 7).

Sparse operands are scipy ``csr_matrix`` / ``csc_matrix``: CSR runs the
row-wise product (combination), CSC the column-wise product (distributed
aggregation). The accelerator's format footprints (COO for the denser
branch, CSC for the sparser one, Sec. V-B) are closed-form in the shape
and ``nnz``; :func:`repro.hardware.workload.storage_bytes` computes them.

Kernel implementations are pluggable: :mod:`repro.sparse.kernels` registers
a loop-exact ``reference`` backend (ground truth), a batched ``vectorized``
backend (the default), and a block-granular ``tiled`` backend that mirrors
the accelerator's chunk schedule and can report per-tile work profiles —
selected per call (``get_backend(name).spmm(a, b)``) or process-wide.
"""

from repro.sparse.kernels import (
    KernelBackend,
    backend_choices,
    get_backend,
    set_default_backend,
)

__all__ = [
    "KernelBackend",
    "backend_choices",
    "get_backend",
    "set_default_backend",
]
