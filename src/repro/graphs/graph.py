"""The ``Graph`` container shared by every subsystem in the package."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError


def _canonical_features(features) -> sp.csr_matrix:
    """``features`` as a canonical float64 CSR matrix.

    Canonical means sorted column indices, no duplicate and no explicit
    zero entries: exactly what ``sp.csr_matrix`` builds from the dense
    array, so the stored-entry count is the non-zero count. An input that
    already is one is returned as the same object, never copied.
    """
    if not sp.issparse(features):
        return sp.csr_matrix(np.asarray(features, dtype=np.float64))
    if (
        isinstance(features, sp.csr_matrix)
        and features.dtype == np.float64
        and features.has_canonical_format
        and features.data.all()
    ):
        return features
    out = sp.csr_matrix(features, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


@dataclass
class Graph:
    """An attributed graph for semi-supervised node classification.

    Attributes
    ----------
    adj:
        Binary (or weighted, after graph tuning) adjacency matrix in scipy
        CSR form, ``N x N``. Stored *without* self-loops; normalization adds
        them explicitly.
    features:
        Node feature matrix ``X``, ``N x F``, held as a canonical float64
        scipy CSR matrix (sorted indices, no duplicates, no explicit
        zeros) from construction onwards: bag-of-words features are a few
        percent non-zero, so the graph and everything that stores it keep
        only the non-zeros. A dense input is converted once; a canonical
        CSR input is kept as the same object, so graphs derived with
        :meth:`with_adj` share one feature matrix. A reader that does
        dense arithmetic densifies (``features.toarray()``) itself.
    labels:
        Integer class labels, length ``N``.
    train_mask / val_mask / test_mask:
        Boolean masks selecting the transductive splits.
    name:
        Dataset name, used for reporting.
    meta:
        Free-form metadata; dataset generators record the *paper-scale*
        statistics here so the hardware model can reason about full-size
        workloads even when the materialized graph is scaled down.
    """

    adj: sp.csr_matrix
    features: sp.csr_matrix
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    name: str = "graph"
    meta: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.adj = sp.csr_matrix(self.adj)
        self.features = _canonical_features(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.adj.shape[0]
        if self.adj.shape[0] != self.adj.shape[1]:
            raise ShapeError("adjacency matrix must be square")
        if self.features.shape[0] != n:
            raise ShapeError(
                f"features have {self.features.shape[0]} rows for {n} nodes"
            )
        if self.labels.shape[0] != n:
            raise ShapeError("labels length must equal number of nodes")
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            mask = np.asarray(getattr(self, mask_name), dtype=bool)
            if mask.shape[0] != n:
                raise ShapeError(f"{mask_name} length must equal number of nodes")
            setattr(self, mask_name, mask)

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``N``."""
        return int(self.adj.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges ``M`` (stored nnz / 2)."""
        return int(self.adj.nnz // 2)

    @property
    def num_features(self) -> int:
        """Feature dimension ``F``."""
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        """Number of label classes."""
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def degrees(self) -> np.ndarray:
        """In-degree of every node (row sums of the binary adjacency)."""
        binary = self.adj.copy()
        binary.data = np.ones_like(binary.data)
        return np.asarray(binary.sum(axis=1)).ravel().astype(np.int64)

    def density(self) -> float:
        """Fraction of non-zero entries in the adjacency matrix."""
        n = self.num_nodes
        return self.adj.nnz / float(n * n) if n else 0.0

    def sparsity(self) -> float:
        """1 - density; the paper quotes e.g. 99.989% for Pubmed."""
        return 1.0 - self.density()

    def with_adj(self, adj: sp.spmatrix) -> "Graph":
        """Return a copy of this graph with a replaced adjacency matrix.

        The copy shares this graph's ``features`` object (and ``meta``).
        """
        return replace(self, adj=sp.csr_matrix(adj))

    def validate_symmetric(self, tol: float = 1e-9) -> bool:
        """True if the adjacency is numerically symmetric."""
        diff = self.adj - self.adj.T
        return bool(abs(diff).max() <= tol) if diff.nnz else True

    def storage_mb(self) -> float:
        """Approximate dataset storage in MB (features + adjacency triples).

        Mirrors the "Storage" column of Tab. III: dense features dominate
        for the citation graphs while edges dominate for Reddit.
        """
        feat_bytes = self.features.shape[0] * self.features.shape[1] * 4
        edge_bytes = self.adj.nnz * 12
        return (feat_bytes + edge_bytes) / 1e6
