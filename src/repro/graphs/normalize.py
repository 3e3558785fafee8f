"""Adjacency normalization used by GCN aggregation (Eq. 1)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def add_self_loops(adj: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I`` (the renormalization trick of Kipf & Welling)."""
    n = adj.shape[0]
    return sp.csr_matrix(adj + weight * sp.eye(n, format="csr"))


def symmetric_normalize(adj: sp.spmatrix, self_loops: bool = True) -> sp.csr_matrix:
    """Compute ``Â = D^{-1/2} (A [+ I]) D^{-1/2}`` as in Eq. (1).

    Rows/columns whose degree is zero are left zero (their inverse-sqrt
    degree is treated as 0), which keeps isolated nodes inert rather than
    producing NaNs.
    """
    a = add_self_loops(adj) if self_loops else sp.csr_matrix(adj)
    degrees = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_inv = sp.diags(inv_sqrt)
    return sp.csr_matrix(d_inv @ a @ d_inv)


def row_normalize(  # repro: lint-ok[orphan] oracle of agg_mean's tests
    adj: sp.spmatrix, self_loops: bool = True
) -> sp.csr_matrix:
    """Compute ``D^{-1} (A [+ I])`` — mean aggregation (GraphSAGE-style)."""
    a = add_self_loops(adj) if self_loops else sp.csr_matrix(adj)
    degrees = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / degrees
    inv[~np.isfinite(inv)] = 0.0
    return sp.csr_matrix(sp.diags(inv) @ a)
