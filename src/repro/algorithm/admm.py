"""Step 2: graph tuning — ADMM sparsification + polarization (Eq. 4).

With the GCN's weights frozen, the adjacency's edge weights become the
trainable parameters and the loss is::

    L_Graph(A) = L_GCN(A) + L_SP(A) + L_Pola(A)

* ``L_GCN(A)`` — the task cross-entropy, differentiated through
  :func:`repro.nn.functional.edge_spmm`;
* ``L_SP(A)`` — the L0 pruning constraint ``||A||_0 <= (1 - p) ||A_0||_0``,
  non-differentiable, handled with ADMM following SGCN [23]: an auxiliary
  variable ``z`` is projected onto the k-sparse set each outer iteration and
  a quadratic penalty ``rho/2 ||w - z + u||^2`` pulls ``w`` toward it;
* ``L_Pola(A)`` — ``1/M * Σ_e w_e |i_e - j_e|``: surviving mass is pulled
  toward the (block) diagonal of the *reordered* adjacency, polarizing the
  matrix into dense diagonal blocks + a light remainder.

Undirected edges are tuned as single variables (the two stored triangles
share one weight), so the result stays symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.algorithm.config import GCoDConfig
from repro.graphs.graph import Graph
from repro.nn import functional as F
from repro.nn.models.base import GNNModel, GraphOps
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


@dataclass
class ADMMResult:
    """Outcome of the sparsify-and-polarize step."""

    pruned_adj: sp.csr_matrix
    kept_edge_fraction: float
    history: list
    polarization_before: float
    polarization_after: float


def _undirected_pairs(adj: sp.csr_matrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map stored entries to undirected-pair variables.

    Returns ``(rows, cols, pair_id)`` over stored nnz, where symmetric
    entries (u, v) and (v, u) share a ``pair_id``.
    """
    coo = adj.tocoo()
    n = adj.shape[0]
    lo = np.minimum(coo.row, coo.col)
    hi = np.maximum(coo.row, coo.col)
    keys = lo * n + hi
    _, pair_id = np.unique(keys, return_inverse=True)
    return coo.row.astype(np.int64), coo.col.astype(np.int64), pair_id


def polarization_loss(adj: sp.spmatrix) -> float:
    """``L_Pola = 1/M * Σ |i - j|`` over non-zeros, normalized by N.

    Lower is better: mass sits near the diagonal. Computed on binary
    support so pruning cannot cheat the metric by shrinking values.
    """
    coo = sp.coo_matrix(adj)
    if coo.nnz == 0:
        return 0.0
    n = max(coo.shape[0], 1)
    return float(np.abs(coo.row - coo.col).mean()) / n


def _project_topk(values: np.ndarray, k: int) -> np.ndarray:
    """Euclidean projection onto the set of at-most-k-sparse vectors."""
    out = np.zeros_like(values)
    if k <= 0:
        return out
    if k >= values.size:
        return values.copy()
    keep = np.argpartition(np.abs(values), -k)[-k:]
    out[keep] = values[keep]
    return out


def admm_sparsify_polarize(
    graph: Graph,
    model: GNNModel,
    config: Optional[GCoDConfig] = None,
) -> ADMMResult:
    """Tune ``graph.adj`` under a frozen ``model`` (GCoD Step 2).

    The graph should already be reordered by Step 1 so the polarization
    distance is measured in the blocked order. Returns the pruned, binary,
    symmetric adjacency plus diagnostics.
    """
    config = config or GCoDConfig()
    adj = sp.csr_matrix(graph.adj)
    rows, cols, pair_id = _undirected_pairs(adj)
    num_pairs = int(pair_id.max()) + 1 if pair_id.size else 0
    keep_pairs = int(round(num_pairs * (1.0 - config.prune_ratio)))

    # Per-pair polarization distance (both triangles share it).
    dist = np.zeros(num_pairs)
    dist[pair_id] = np.abs(rows - cols) / max(graph.num_nodes, 1)

    w_pairs = Tensor(np.ones(num_pairs), requires_grad=True)
    z = np.ones(num_pairs)
    u = np.zeros(num_pairs)
    opt = Adam([w_pairs], lr=config.admm_lr)
    x = F.sparse_input(graph.features)
    model.eval()  # freeze batch-norm stats / dropout; weights get no grads
    for p in model.parameters():
        p.requires_grad = False

    pola_before = polarization_loss(adj)
    history = []
    # admm_inner_steps == 0 is a legal (projection-only) configuration: the
    # inner loop never runs, so the losses it would define stay None and the
    # history records NaN for them instead of crashing.
    task_loss = pola = None
    for _ in range(config.admm_iterations):
        for _ in range(config.admm_inner_steps):
            opt.zero_grad()
            ops = GraphOps(
                adj,
                edge_weights=_expand(
                    w_pairs, pair_id, backend=config.kernel_backend
                ),
                kernel_backend=config.kernel_backend,
            )
            logits = model(x, ops)
            task_loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
            pola = (w_pairs * Tensor(dist)).sum() * Tensor(
                config.pola_weight / max(num_pairs, 1)
            )
            penalty = ((w_pairs + Tensor(-(z - u))) * (w_pairs + Tensor(-(z - u)))).sum() * Tensor(config.admm_rho / 2.0)
            loss = task_loss + pola + penalty
            loss.backward()
            opt.step()
            np.clip(w_pairs.data, 0.0, 1.0, out=w_pairs.data)
        z = _project_topk(w_pairs.data + u, keep_pairs)
        u = u + w_pairs.data - z
        history.append(
            {
                "task_loss": (
                    float(task_loss.data) if task_loss is not None
                    else float("nan")
                ),
                "pola": float(pola.data) if pola is not None else float("nan"),
                "residual": float(np.abs(w_pairs.data - z).mean()),
            }
        )

    # Final support: z's top-k, optionally protecting each node's best edge.
    scores = w_pairs.data + u
    keep = np.zeros(num_pairs, dtype=bool)
    if keep_pairs > 0:
        keep[np.argpartition(np.abs(scores), -keep_pairs)[-keep_pairs:]] = True
    if config.protect_connectivity and num_pairs:
        keep |= _best_edge_per_node(rows, cols, pair_id, scores, graph.num_nodes)

    entry_keep = keep[pair_id]
    pruned = sp.csr_matrix(
        (
            np.ones(int(entry_keep.sum())),
            (rows[entry_keep], cols[entry_keep]),
        ),
        shape=adj.shape,
    )
    for p in model.parameters():
        p.requires_grad = True
    return ADMMResult(
        pruned_adj=pruned,
        kept_edge_fraction=float(keep.sum()) / max(num_pairs, 1),
        history=history,
        polarization_before=pola_before,
        polarization_after=polarization_loss(pruned),
    )


def _expand(w_pairs: Tensor, pair_id: np.ndarray, backend=None) -> Tensor:
    """Expand per-pair weights to per-stored-entry weights (differentiable).

    ``gather_rows`` indexes along axis 0, which for a 1-D tensor is exactly
    the per-entry expansion; its backward scatter-adds gradients from both
    stored triangles back onto the shared pair variable.
    """
    return F.gather_rows(w_pairs, pair_id, backend=backend)


def _best_edge_per_node(
    rows: np.ndarray,
    cols: np.ndarray,
    pair_id: np.ndarray,
    scores: np.ndarray,
    num_nodes: int,
) -> np.ndarray:
    """Mark the highest-scoring incident pair of every node as kept.

    Prevents the pruning from isolating nodes, which would silently zero
    their aggregation (and can crash METIS-style post-processing).
    """
    best_score = np.full(num_nodes, -np.inf)
    s = scores[pair_id]
    np.maximum.at(best_score, rows, s)
    np.maximum.at(best_score, cols, s)
    # An entry achieving its endpoint's best score pins its pair (ties keep
    # a few extra pairs, which only errs on the safe side).
    winning = (s >= best_score[rows]) | (s >= best_score[cols])
    keep = np.zeros(int(pair_id.max()) + 1, dtype=bool)
    keep[pair_id[winning]] = True
    return keep
