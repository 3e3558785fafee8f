"""Random scipy operands for the kernel tests.

scipy's ``tocsr``/``tocsc`` sum duplicate entries, so :func:`compressed`
builds CSR/CSC directly from sorted triplets instead: a duplicated
coordinate stays stored twice, and each kernel must accumulate it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def random_coo(rng, n, m, nnz, duplicates=False) -> sp.coo_matrix:
    """An ``n x m`` COO matrix of ``nnz`` normal entries at random spots."""
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, m, nnz)
    if duplicates and nnz >= 4:
        # Stack several entries on one coordinate to exercise accumulation.
        rows[: nnz // 3] = rows[0]
        cols[: nnz // 3] = cols[0]
    return sp.coo_matrix((rng.normal(size=nnz), (rows, cols)), shape=(n, m))


def compressed(coo: sp.coo_matrix, fmt: str):
    """``coo`` as a scipy CSR or CSC matrix, duplicates still stored."""
    major, minor = (coo.row, coo.col) if fmt == "csr" else (coo.col, coo.row)
    order = np.lexsort((minor, major))
    indptr = np.concatenate(([0], np.cumsum(
        np.bincount(major, minlength=coo.shape[fmt == "csc"]))))
    cls = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
    return cls((coo.data[order], minor[order], indptr), shape=coo.shape)
