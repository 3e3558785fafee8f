"""Shared graph-operator abstraction for all five GCN variants.

Every model aggregates neighbour features through a :class:`GraphOps`
object. ``GraphOps`` has two personalities:

* **constant adjacency** — the normal case: aggregations run as SpMM against
  precomputed (normalized) sparse matrices;
* **trainable adjacency** — GCoD's graph-tuning step (Eq. 4): a per-edge
  weight tensor multiplies the fixed symmetric normalization, and
  aggregation runs through :func:`repro.nn.functional.edge_spmm` so that
  gradients flow into the edge weights.

Keeping the switch here means the *same model code* is used for pretraining,
graph tuning, and retraining — exactly the paper's "W is replaced with A in
Eq. (2)" trick.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, reshape
from repro.sparse.kernels import BackendLike, CSROrder, get_backend


class GraphOps:
    """Aggregation operators over one graph, constant or trainable.

    Parameters
    ----------
    adj:
        Binary/weighted adjacency (no self-loops), scipy sparse.
    edge_weights:
        Optional trainable tensor with one entry per *stored* non-zero of
        ``adj`` (ordered like ``adj.tocoo()``). When given, symmetric-
        normalized aggregation multiplies each edge's fixed normalization by
        its weight; self-loops keep weight 1.
    kernel_backend:
        SpMM kernel backend name or instance (see
        :mod:`repro.sparse.kernels`); ``None`` uses the registry default.
        Every aggregation this object performs routes through it.
    """

    def __init__(
        self,
        adj: sp.spmatrix,
        edge_weights: Optional[Tensor] = None,
        kernel_backend: BackendLike = None,
    ):
        coo = sp.coo_matrix(adj)
        self.kernel = get_backend(kernel_backend)
        self.num_nodes = coo.shape[0]
        self.rows = coo.row.astype(np.int64)
        self.cols = coo.col.astype(np.int64)
        self.base_data = coo.data.astype(np.float64)
        self.edge_weights = edge_weights

        # Fixed symmetric normalization computed on A + I (renormalization
        # trick); held constant during graph tuning, following SGCN [23].
        degrees = np.bincount(
            self.rows, weights=self.base_data, minlength=self.num_nodes
        ).astype(np.float64)
        degrees += 1.0  # self loop
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
        self.sym_edge_norm = (
            inv_sqrt[self.rows] * inv_sqrt[self.cols] * self.base_data
        )
        self.sym_loop_norm = inv_sqrt * inv_sqrt
        # Row-mean weights (GraphSAGE's mean aggregation over neighbours).
        counts = np.bincount(self.rows, minlength=self.num_nodes).astype(np.float64)
        self.mean_edge_norm = self.base_data / np.maximum(counts[self.rows], 1.0)

    @property
    def edge_weights(self) -> Optional[Tensor]:
        """The trainable per-edge weights, or ``None`` for constant ops.

        Assignable: graph tuning swaps in each step's weight tensor and
        keeps every structure derived from the edge list (norms, CSR
        orders, constant matrices), since none depends on the weights.
        """
        return self._edge_weights

    @edge_weights.setter
    def edge_weights(self, value: Optional[Tensor]) -> None:
        if value is not None and value.data.shape[0] != self.rows.shape[0]:
            raise ValueError(
                "edge_weights must have one entry per stored non-zero"
            )
        self._edge_weights = value

    @cached_property
    def _edge_order(self) -> Optional[CSROrder]:
        """The edge list's CSR order for every ``edge_spmm`` of this graph
        (``None`` if the edge list repeats an entry)."""
        n = self.num_nodes
        return CSROrder.from_edges(self.rows, self.cols, (n, n))

    def _edge_spmm(self, weights: Tensor, x: Tensor) -> Tensor:
        return F.edge_spmm(
            weights, self.rows, self.cols, x, self.num_nodes,
            backend=self.kernel, order=self._edge_order,
        )

    def _fixed(self, edge_norm: np.ndarray, loops=None):
        """A constant aggregation matrix and its transpose, both CSR."""
        n = self.num_nodes
        mat = sp.csr_matrix((edge_norm, (self.rows, self.cols)), shape=(n, n))
        if loops is not None:
            mat = mat + sp.diags(loops)
        return mat, mat.T.tocsr()

    # Built on first use, so trainable ops and SAGE's per-epoch sampled
    # ops pay only for the matrices they aggregate with; the transposes
    # serve every backward pass of this object.
    @cached_property
    def _sym(self):
        return self._fixed(self.sym_edge_norm, self.sym_loop_norm)

    @cached_property
    def _sum(self):
        return self._fixed(self.base_data)

    @cached_property
    def _mean(self):
        return self._fixed(self.mean_edge_norm)

    @property
    def trainable(self) -> bool:
        """True when aggregation routes gradients into edge weights."""
        return self.edge_weights is not None

    # ------------------------------------------------------------------
    # aggregations
    # ------------------------------------------------------------------
    def agg_sym(self, x: Tensor) -> Tensor:
        """Symmetric-normalized aggregation ``Â x`` (GCN / ResGCN)."""
        if self.edge_weights is None:
            mat, mat_t = self._sym
            return F.spmm(mat, x, backend=self.kernel, adj_t=mat_t)
        weights = self.edge_weights * Tensor(self.sym_edge_norm)
        neigh = self._edge_spmm(weights, x)
        return neigh + x * Tensor(self.sym_loop_norm[:, None])

    def agg_sum(self, x: Tensor) -> Tensor:
        """Unnormalized sum aggregation (GIN's Add, Tab. IV)."""
        if self.edge_weights is None:
            mat, mat_t = self._sum
            return F.spmm(mat, x, backend=self.kernel, adj_t=mat_t)
        weights = self.edge_weights * Tensor(self.base_data)
        return self._edge_spmm(weights, x)

    def agg_mean(self, x: Tensor) -> Tensor:
        """Neighbour-mean aggregation (GraphSAGE, Tab. IV)."""
        if self.edge_weights is None:
            mat, mat_t = self._mean
            return F.spmm(mat, x, backend=self.kernel, adj_t=mat_t)
        weights = self.edge_weights * Tensor(self.mean_edge_norm)
        return self._edge_spmm(weights, x)

    def agg_max(self, x: Tensor) -> Tensor:
        """Neighbour-max aggregation (ResGCN's Max, Tab. IV)."""
        gathered = F.gather_rows(x, self.cols, backend=self.kernel)
        if self.edge_weights is not None:
            gathered = gathered * reshape(self.edge_weights, (-1, 1))
        return F.segment_max(
            gathered, self.rows, self.num_nodes, backend=self.kernel
        )

    def attention_aggregate(self, x: Tensor, edge_scores: Tensor) -> Tensor:
        """GAT aggregation: per-edge softmaxed scores weight source features.

        ``edge_scores`` is 1-D over edges; self-loops are not added here —
        GAT layers append them to the edge list themselves if wanted.
        """
        alpha = F.segment_softmax(
            edge_scores, self.rows, self.num_nodes, backend=self.kernel
        )
        if self.edge_weights is not None:
            alpha = alpha * self.edge_weights
        return self._edge_spmm(alpha, x)


class GNNModel(Module):
    """Base class for the five models: ``forward(x, ops) -> logits``.

    ``x`` is the sparse model input (:func:`repro.nn.functional.sparse_input`)
    or a dense :class:`Tensor`; each model's first layer combines it with
    a weight (``F.matmul``) before anything else touches it.
    """

    def forward(self, x, ops: GraphOps) -> Tensor:
        raise NotImplementedError

    def __call__(self, x, ops: GraphOps) -> Tensor:
        return self.forward(x, ops)

    def predict(self, x, ops: GraphOps) -> np.ndarray:
        """Class predictions with dropout disabled.

        ``x`` is the model input (a :class:`Tensor` or the sparse input of
        :func:`repro.nn.functional.sparse_input`); a dense feature array
        is converted to the sparse input once.
        """
        if isinstance(x, np.ndarray):
            x = F.sparse_input(x)
        was_training = self.training
        self.eval()
        logits = self.forward(x, ops)
        if was_training:
            self.train()
        return np.argmax(logits.data, axis=1)
