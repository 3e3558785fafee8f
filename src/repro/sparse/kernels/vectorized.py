"""The fast kernel backend: batched segment reductions, no Python loops.

Every kernel here is a segment reduction in disguise, and every segment
reduction is expressed as either a ``bincount`` (1-D) or a sparse
selection-matrix product (2-D), both of which run in compiled code:

* the product-order SpMM kernels wrap the CSR/CSC arrays in scipy
  containers (a zero-copy view, not a format conversion) and use its
  compiled sparse-times-dense routines;
* ``segment_sum`` over ``(E, F)`` values multiplies by an ``(N, E)``
  one-hot selection matrix built directly in CSC form — no sorting, no
  transposes, duplicate indices accumulate exactly like ``np.add.at``;
* ``coo_spmm`` (edge-weighted aggregation, the graph-tuning hot op)
  assembles the weighted adjacency once per call and runs one compiled
  SpMM instead of an ``np.add.at`` scatter per edge;
* ``spmm_batch`` chains a whole multi-graph workload into one
  block-diagonal product, so one kernel launch covers every graph.

On the evaluation workloads this is 1-2 orders of magnitude faster than
the ``reference`` loops while matching them to float64 round-off; the
parity suite in ``tests/sparse/test_kernels.py`` holds both to 1e-12.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.sparse.kernels import KernelBackend, check_spmm_shapes


def _as_scipy_csr(a) -> sp.csr_matrix:
    if isinstance(a, sp.csr_matrix):
        return a
    return sp.csr_matrix(
        (a.data, a.indices, a.indptr), shape=a.shape, copy=False
    )


def _as_scipy_csc(a) -> sp.csc_matrix:
    if isinstance(a, sp.csc_matrix):
        return a
    return sp.csc_matrix(
        (a.data, a.indices, a.indptr), shape=a.shape, copy=False
    )


class VectorizedBackend(KernelBackend):
    """Batched NumPy/SciPy kernels; bit-compatible with ``reference``."""

    name = "vectorized"

    def spmm_row_product(self, a, b: np.ndarray) -> np.ndarray:
        check_spmm_shapes(a.shape, b)
        return np.asarray(_as_scipy_csr(a) @ b)

    def spmm_column_product(self, a, b: np.ndarray) -> np.ndarray:
        check_spmm_shapes(a.shape, b)
        return np.asarray(_as_scipy_csc(a) @ b)

    def spmm_batch(
        self, mats: Sequence, denses: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Run every (sparse, dense) pair as one block-diagonal product.

        All operands must share a storage format and feature width; the
        block-diagonal trick then needs no transposes — indices are offset,
        arrays concatenated, and a single compiled SpMM produces every
        output, which is sliced back apart. Mixed inputs fall back to the
        per-pair path.
        """
        if len(mats) != len(denses):
            raise ShapeError("spmm_batch needs one dense operand per matrix")
        if not mats:
            return []
        denses = [np.asarray(d, dtype=np.float64) for d in denses]
        for a, b in zip(mats, denses):
            check_spmm_shapes(a.shape, b)
        fmts = {
            "csc" if getattr(a, "format", None) == "csc"
            or type(a).__name__ == "CSCMatrix" else "csr"
            for a in mats
        }
        widths = {b.shape[1] for b in denses}
        if (
            len(fmts) > 1
            or len(widths) > 1
            # Non-compressed operands (e.g. scipy COO) have no indptr to
            # chain; the per-pair path canonicalizes them instead.
            or not all(hasattr(a, "indptr") for a in mats)
        ):
            return super().spmm_batch(mats, denses)
        fmt = fmts.pop()
        # CSR compresses rows (outputs), CSC compresses columns (inputs).
        idx_axis = 1 if fmt == "csr" else 0
        idx_offsets = np.concatenate(
            [[0], np.cumsum([a.shape[idx_axis] for a in mats])]
        )
        nnz_offsets = np.concatenate(
            [[0], np.cumsum([a.indptr[-1] for a in mats])]
        )
        big_indptr = np.concatenate(
            [mats[0].indptr]
            + [a.indptr[1:] + off for a, off in zip(mats[1:], nnz_offsets[1:-1])]
        )
        big_indices = np.concatenate(
            [a.indices + off for a, off in zip(mats, idx_offsets[:-1])]
        )
        big_data = np.concatenate([a.data for a in mats])
        big_b = np.vstack(denses)
        total_rows = sum(a.shape[0] for a in mats)
        total_cols = sum(a.shape[1] for a in mats)
        cls = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
        big = cls(
            (big_data, big_indices, big_indptr), shape=(total_rows, total_cols)
        )
        # Dispatch through self.spmm so a subclass (``tiled``) runs the
        # whole batch through its own kernels.
        out = np.asarray(self.spmm(big, big_b))
        row_offsets = np.concatenate(
            [[0], np.cumsum([a.shape[0] for a in mats])]
        )
        return [
            out[lo:hi] for lo, hi in zip(row_offsets[:-1], row_offsets[1:])
        ]

    def segment_sum(
        self, values: np.ndarray, segments: np.ndarray, num_segments: int
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        segments = self.check_segment_ids(segments, num_segments)
        if values.ndim == 1:
            return np.bincount(
                segments, weights=values, minlength=num_segments
            )
        if values.ndim != 2:  # rare rank: keep the exact scatter semantics
            out = np.zeros((num_segments,) + values.shape[1:])
            np.add.at(out, segments, values)
            return out
        if values.shape[1] == 1:  # single column: bincount beats the matmul
            return np.bincount(
                segments, weights=values[:, 0], minlength=num_segments
            )[:, None]
        num_values = values.shape[0]
        select = sp.csc_matrix(
            (
                np.ones(num_values),
                segments,
                np.arange(num_values + 1, dtype=np.int64),
            ),
            shape=(num_segments, num_values),
        )
        return np.asarray(select @ values)

    def segment_max(
        self, values: np.ndarray, segments: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Per-segment max via one ``maximum.reduceat`` over grouped rows.

        Already-sorted segment ids (the common case: CSR-ordered edge lists)
        skip the argsort. Bit-identical to the ``np.maximum.at`` reference.
        """
        values = np.asarray(values)
        segments = self.check_segment_ids(segments, num_segments)
        out = np.full((num_segments,) + values.shape[1:], -np.inf)
        if segments.size == 0:
            return out
        if values.ndim != 2:
            np.maximum.at(out, segments, values)
            return out
        if np.any(segments[1:] < segments[:-1]):
            order = np.argsort(segments, kind="stable")
            segments = segments[order]
            values = values[order]
        starts = np.flatnonzero(
            np.concatenate(([True], segments[1:] != segments[:-1]))
        )
        out[segments[starts]] = np.maximum.reduceat(values, starts, axis=0)
        return out

    def coo_spmm(
        self,
        weights: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        x: np.ndarray,
        num_rows: int,
    ) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.size == 0:
            return np.zeros((num_rows, x.shape[1]), dtype=np.float64)
        adj = sp.coo_matrix(
            (weights, (rows, cols)), shape=(num_rows, x.shape[0])
        ).tocsr()
        return np.asarray(adj @ x)
