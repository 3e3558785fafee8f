"""The ground-truth kernel backend: explicit loops in the paper's orders.

These kernels iterate exactly the way the accelerator's pipelines do —
one output row to completion (row-wise product) or one adjacency column of
scattered partial sums (column-wise product). They are deliberately slow and
obvious; the ``vectorized`` backend must match them to 1e-12.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.kernels import KernelBackend, check_spmm_shapes


def spmm_row_product(a, b: np.ndarray) -> np.ndarray:
    """Row-wise-product SpMM: produce each output row to completion.

    For each non-zero ``A[i, k]``, accumulate ``A[i, k] * B[k, :]`` into
    output row ``i`` — the efficiency-aware pipeline's combination order,
    which lets aggregation start on a finished row of ``XW`` (Fig. 7c).
    """
    check_spmm_shapes(a.shape, b)
    indptr, indices, data = a.indptr, a.indices, a.data
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            out[i] = data[lo:hi] @ b[indices[lo:hi]]
    return out


def spmm_column_product(a, b: np.ndarray) -> np.ndarray:
    """Column-wise-product (distributed aggregation) SpMM.

    For each column ``k`` of ``A``, scatter ``A[:, k] ⊗ B[k, :]`` into the
    output; with column-major ``B`` arrival only one output column of
    accumulators is live at a time in the resource-aware pipeline (Fig. 7d).
    """
    check_spmm_shapes(a.shape, b)
    indptr, indices, data = a.indptr, a.indices, a.data
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for k in range(a.shape[1]):
        lo, hi = indptr[k], indptr[k + 1]
        if hi > lo:
            # np.add.at accumulates correctly when a column stores the same
            # row index more than once (plain fancy-index += would not).
            np.add.at(out, indices[lo:hi], np.outer(data[lo:hi], b[k]))
    return out


class ReferenceBackend(KernelBackend):
    """Loop kernels + ``np.ufunc.at`` scatter primitives (ground truth)."""

    name = "reference"

    def spmm_row_product(self, a, b: np.ndarray) -> np.ndarray:
        return spmm_row_product(a, b)

    def spmm_column_product(self, a, b: np.ndarray) -> np.ndarray:
        return spmm_column_product(a, b)

    def segment_sum(
        self, values: np.ndarray, segments: np.ndarray, num_segments: int
    ) -> np.ndarray:
        segments = self.check_segment_ids(segments, num_segments)
        out = np.zeros((num_segments,) + values.shape[1:], dtype=np.float64)
        np.add.at(out, segments, values)
        return out

    def coo_spmm(
        self,
        weights: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        x: np.ndarray,
        num_rows: int,
        order=None,
    ) -> np.ndarray:
        # The scatter needs no CSR order; ``order`` is accepted and unused.
        out = np.zeros((num_rows, x.shape[1]), dtype=np.float64)
        np.add.at(out, rows, weights[:, None] * x[cols])
        return out
