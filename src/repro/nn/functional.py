"""Neural-network ops: activations, losses, sparse and segment operations.

The segment ops (``gather_rows`` / ``scatter_add_rows`` / ``segment_softmax``
/ ``segment_max``) are the building blocks for GAT attention, GraphSAGE /
GIN / ResGCN aggregations, and — crucially — for GCoD's graph tuning, where
``edge_spmm`` makes the adjacency's per-edge weights themselves trainable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor, _make
from repro.sparse.kernels import BackendLike, CSROrder, get_backend
from repro.utils.rng import SeedLike, ensure_rng


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = a.data > 0
    data = a.data * mask

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * mask)

    return _make(data, (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """Leaky ReLU (GAT's attention nonlinearity uses slope 0.2)."""
    mask = a.data > 0
    data = np.where(mask, a.data, slope * a.data)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * np.where(mask, 1.0, slope))

    return _make(data, (a,), backward)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit (used between GAT layers)."""
    mask = a.data > 0
    expm1 = alpha * np.expm1(np.minimum(a.data, 0.0))
    data = np.where(mask, a.data, expm1)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * np.where(mask, 1.0, expm1 + alpha))

    return _make(data, (a,), backward)


def dropout(a, p: float, training: bool, rng: SeedLike = None):
    """Inverted dropout; identity when ``training`` is False or ``p`` is 0.

    ``a`` is a :class:`Tensor` or the constant sparse model input (see
    :func:`sparse_input`). On the sparse input one uniform is drawn per
    stored entry, never per cell, and dropped entries leave the structure,
    so the first layer's ``X W`` only touches the kept ones. ``p = 1``
    drops everything (zeros, zero gradient).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1], got {p}")
    if not training or p == 0.0:
        return a
    gen = ensure_rng(rng)
    scale = 1.0 / (1.0 - p) if p < 1.0 else 0.0
    if sp.issparse(a):
        keep = gen.random(a.nnz) >= p
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        return sp.csr_matrix(
            (a.data[keep] * scale, a.indices[keep], kept_before[a.indptr]),
            shape=a.shape,
        )
    keep = (gen.random(a.data.shape) >= p) * scale
    data = a.data * keep

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * keep)

    return _make(data, (a,), backward)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax (numerically stabilized)."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    data = shifted - logsumexp
    softmax = np.exp(data)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad - softmax * grad.sum(axis=1, keepdims=True))

    return _make(data, (a,), backward)


def nll_loss(log_probs: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Masked negative log-likelihood: Eq. (2)'s cross-entropy over labeled nodes."""
    idx = np.nonzero(np.asarray(mask, dtype=bool))[0]
    if idx.size == 0:
        raise ValueError("nll_loss received an empty mask")
    labels = np.asarray(labels, dtype=np.int64)
    picked = log_probs.data[idx, labels[idx]]
    data = np.array(-picked.mean())

    def backward(grad):
        if log_probs.requires_grad:
            g = np.zeros_like(log_probs.data)
            g[idx, labels[idx]] = -float(grad) / idx.size
            log_probs.accumulate_grad(g)

    return _make(data, (log_probs,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Cross-entropy on raw logits (log-softmax + masked NLL).

    The labeled rows are taken out before the log-softmax, so unlabeled
    rows cost nothing and get exact zero gradients. Every op here works
    row by row, so the loss and the labeled rows' gradients equal those
    of the same loss taken over all rows, bit for bit.
    """
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        raise ValueError("cross_entropy received an empty mask")
    labels = np.asarray(labels, dtype=np.int64)[idx]
    return nll_loss(
        log_softmax(take_rows(logits, idx)), labels,
        np.ones(idx.size, dtype=bool),
    )


# ----------------------------------------------------------------------
# sparse / graph ops
# ----------------------------------------------------------------------
def sparse_input(features) -> sp.csr_matrix:
    """The model input as a constant CSR matrix, built with one scan.

    Node features are a few percent non-zero on every dataset here, so
    training, graph tuning and prediction build this once per call and
    run dropout (:func:`dropout`) and the first layer's ``X W``
    (:func:`matmul`) over its stored entries instead of a dense N x F array.
    A CSR input (``Graph.features``) is copied, arrays included, so a
    caller that rewrites the result's ``data`` (Degree-Quant) never
    reaches the graph; anything else is scanned once.
    """
    if sp.issparse(features):
        return sp.csr_matrix(features, dtype=np.float64, copy=True)
    return sp.csr_matrix(np.asarray(features, dtype=np.float64))


def matmul(x, weight: Tensor, backend: BackendLike = None) -> Tensor:
    """``x @ weight`` for a dense :class:`Tensor` or the sparse model input.

    The sparse product runs through :func:`spmm`, so ``backend`` does the
    arithmetic and ``weight`` receives ``x^T dL/dY``.
    """
    if sp.issparse(x):
        return spmm(x, weight, backend=backend)
    return x @ weight


def spmm(
    adj: sp.spmatrix,
    x: Tensor,
    backend: BackendLike = None,
    adj_t: Optional[sp.csr_matrix] = None,
) -> Tensor:
    """Aggregation ``Â X`` with a *constant* sparse matrix.

    Gradient: ``dL/dX = Â^T dL/dY``. This is the hot op of standard GCN
    training (Step 1 / retraining); graph tuning uses :func:`edge_spmm`.
    ``backend`` picks the kernel implementation (see
    :mod:`repro.sparse.kernels`). ``adj_t`` is ``Â^T`` in CSR form, for
    callers that apply one matrix many times (``GraphOps`` builds it once);
    without it the backward pass runs the column-wise product over
    ``Â``'s transposed view, which converts nothing.
    """
    kernel = get_backend(backend)
    a = adj if adj.format == "csr" else adj.tocsr()
    data = kernel.spmm_row_product(a, x.data)

    def backward(grad):
        if not x.requires_grad:
            return
        if adj_t is not None:
            x.accumulate_grad(kernel.spmm_row_product(adj_t, grad))
        else:
            x.accumulate_grad(kernel.spmm_column_product(a.T, grad))

    return _make(data, (x,), backward)


def gather_rows(
    x: Tensor, index: np.ndarray, backend: BackendLike = None
) -> Tensor:
    """Select rows ``x[index]`` (differentiable scatter-add on backward)."""
    kernel = get_backend(backend)
    index = np.asarray(index, dtype=np.int64)
    data = x.data[index]

    def backward(grad):
        if x.requires_grad:
            x.accumulate_grad(kernel.segment_sum(grad, index, x.data.shape[0]))

    return _make(data, (x,), backward)


def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select the distinct rows ``x[index]``; the backward writes each
    row's gradient back into zeros (no accumulation, so ``index`` must not
    repeat; :func:`gather_rows` sums repeats)."""
    data = x.data[index]

    def backward(grad):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[index] = grad
            x.accumulate_grad(full)

    return _make(data, (x,), backward)


def scatter_add_rows(
    x: Tensor, index: np.ndarray, num_rows: int, backend: BackendLike = None
) -> Tensor:
    """Accumulate row ``e`` of ``x`` into output row ``index[e]``."""
    kernel = get_backend(backend)
    index = np.asarray(index, dtype=np.int64)
    data = kernel.segment_sum(x.data, index, num_rows)

    def backward(grad):
        if x.requires_grad:
            x.accumulate_grad(grad[index])

    return _make(data, (x,), backward)


def edge_spmm(
    weights: Tensor,
    rows: np.ndarray,
    cols: np.ndarray,
    x: Tensor,
    num_rows: int,
    backend: BackendLike = None,
    order: Optional[CSROrder] = None,
) -> Tensor:
    """Aggregation with *trainable* edge weights: ``Y[r] += w_e * X[c]``.

    Both the edge-weight vector and the features receive gradients:
    ``dL/dw_e = dY[r_e] · X[c_e]`` and ``dL/dX[c] += w_e * dY[r_e]``.
    This single op is what makes Eq. (4)'s ``L_Graph(A)`` trainable and also
    implements GAT's attention-weighted aggregation. ``order`` is the
    :class:`~repro.sparse.kernels.CSROrder` of ``(rows, cols)``, which
    ``GraphOps`` builds once per graph; the forward product uses it and
    the backward product its transpose, so neither sorts the edges.
    """
    kernel = get_backend(backend)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    w = weights.data.reshape(-1)
    data = kernel.coo_spmm(w, rows, cols, x.data, num_rows, order=order)

    def backward(grad):
        if weights.requires_grad:
            gw = np.einsum("ef,ef->e", grad[rows], x.data[cols])
            weights.accumulate_grad(gw.reshape(weights.data.shape))
        if x.requires_grad:
            # The transposed aggregation: dX[c] += w_e * dY[r_e].
            x.accumulate_grad(kernel.coo_spmm(
                w, cols, rows, grad, x.data.shape[0],
                order=None if order is None else order.T,
            ))

    return _make(data, (weights, x), backward)


def segment_softmax(
    scores: Tensor,
    segments: np.ndarray,
    num_segments: int,
    backend: BackendLike = None,
) -> Tensor:
    """Softmax within segments (GAT: normalize attention over each node's in-edges).

    ``scores`` may be 1-D ``(E,)`` or 2-D ``(E, H)`` for multi-head attention.
    """
    kernel = get_backend(backend)
    segments = np.asarray(segments, dtype=np.int64)
    s = scores.data
    squeeze = s.ndim == 1
    if squeeze:
        s = s[:, None]
    seg_max = kernel.segment_max(s, segments, num_segments)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = np.exp(s - seg_max[segments])
    seg_sum = kernel.segment_sum(shifted, segments, num_segments)
    out = shifted / np.maximum(seg_sum[segments], 1e-30)
    data = out[:, 0] if squeeze else out

    def backward(grad):
        if not scores.requires_grad:
            return
        g = grad if not squeeze else grad[:, None]
        # d softmax: p * (g - sum_seg(p * g))
        weighted = kernel.segment_sum(out * g, segments, num_segments)
        gs = out * (g - weighted[segments])
        scores.accumulate_grad(gs[:, 0] if squeeze else gs)

    return _make(data, (scores,), backward)


def segment_max(
    x: Tensor,
    segments: np.ndarray,
    num_segments: int,
    backend: BackendLike = None,
) -> Tensor:
    """Per-segment elementwise max (ResGCN's max aggregation, Tab. IV).

    Empty segments produce zeros. Gradient routes to the arg-max element of
    each (segment, feature) pair.
    """
    kernel = get_backend(backend)
    segments = np.asarray(segments, dtype=np.int64)
    feat = x.data.shape[1]
    data = kernel.segment_max(x.data, segments, num_segments)
    empty = ~np.isfinite(data)
    data = np.where(empty, 0.0, data)

    def backward(grad):
        if not x.requires_grad:
            return
        # argmax bookkeeping: rows achieving the max within their segment.
        winner = x.data == data[segments]
        g = np.where(winner, grad[segments], 0.0)
        # If several rows tie, split the gradient equally among them.
        counts = kernel.segment_sum(
            winner.astype(np.float64), segments, num_segments
        )
        denom = np.maximum(counts[segments], 1.0)
        x.accumulate_grad(g / denom)

    return _make(data, (x,), backward)


def segment_mean(
    x: Tensor,
    segments: np.ndarray,
    num_segments: int,
    backend: BackendLike = None,
) -> Tensor:
    """Per-segment mean (GraphSAGE's mean aggregation over sampled neighbors)."""
    segments = np.asarray(segments, dtype=np.int64)
    counts = np.bincount(segments, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    summed = scatter_add_rows(x, segments, num_segments, backend=backend)
    return _make(
        summed.data / counts[:, None],
        (summed,),
        lambda grad: summed.accumulate_grad(grad / counts[:, None])
        if summed.requires_grad
        else None,
    )
