"""Block layout: the (group, class, subgraph) ordering and its geometry.

``partition_graph`` runs GCoD Step 1 end-to-end and returns the reordered
graph together with a :class:`BlockLayout`. The layout is the contract
between the algorithm and the accelerator: it knows which adjacency entries
belong to dense diagonal subgraph blocks (denser-branch workload) and which
are off-diagonal remainder (sparser-branch workload), and it carries the
per-class boundaries the chunk allocator needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import PartitionError
from repro.graphs.graph import Graph
from repro.graphs.reorder import permute_graph
from repro.partition.degree_classes import degree_classes
from repro.partition.grouping import distribute_round_robin
from repro.partition.metis import metis_partition
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class SubgraphSpan:
    """One subgraph's contiguous node range in the reordered graph."""

    subgraph_id: int
    class_id: int
    group_id: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of nodes in the subgraph."""
        return self.stop - self.start


@dataclass
class BlockLayout:
    """Geometry of a partitioned, reordered adjacency matrix.

    All node indices refer to the *new* (reordered) node order. ``perm``
    maps new position -> original node id.
    """

    perm: np.ndarray
    node_class: np.ndarray
    node_group: np.ndarray
    node_subgraph: np.ndarray
    spans: List[SubgraphSpan]
    num_classes: int
    num_groups: int

    @property
    def num_nodes(self) -> int:
        """Number of nodes covered by the layout."""
        return int(self.perm.shape[0])

    @property
    def num_subgraphs(self) -> int:
        """Total number of subgraphs across all classes."""
        return len(self.spans)

    def class_bounds(self) -> List[int]:
        """Node positions where the class id changes (Fig. 4's green lines)."""
        change = np.nonzero(np.diff(self.node_class) != 0)[0] + 1
        return [int(b) for b in change]

    def group_bounds(self) -> List[int]:
        """Node positions where the group id changes (Fig. 4's red lines)."""
        change = np.nonzero(np.diff(self.node_group) != 0)[0] + 1
        return [int(b) for b in change]

    # ------------------------------------------------------------------
    # dense / sparse split — the accelerator's two workloads
    # ------------------------------------------------------------------
    def diagonal_entries(self, adj: sp.spmatrix) -> Tuple[np.ndarray, ...]:
        """(row ids, column ids, diagonal mask) of ``adj``'s stored entries.

        An entry is denser-branch work iff its row and column lie in one
        subgraph. Entries follow ``adj``'s stored order: ``indptr`` order
        for CSR, ``coo.row`` order for COO, COO-conversion order otherwise.
        """
        fmt = getattr(adj, "format", None)
        if fmt == "csr":
            rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
            cols = adj.indices
        else:
            coo = adj if fmt == "coo" else sp.coo_matrix(adj)
            rows, cols = coo.row, coo.col
        return rows, cols, self.node_subgraph[rows] == self.node_subgraph[cols]

    def diagonal_mask(self, adj: sp.spmatrix) -> np.ndarray:
        """Boolean per stored nnz: True if (row, col) lie in one subgraph.

        These entries form the dense diagonal blocks the denser branch
        processes; the complement goes to the sparser branch. The mask
        follows ``adj``'s stored entry order (see :meth:`diagonal_entries`).
        """
        return self.diagonal_entries(adj)[2]

    def split(self, adj: sp.spmatrix) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
        """Split ``adj`` into (dense diagonal blocks, sparse remainder)."""
        csr = adj.tocsr() if sp.issparse(adj) else sp.csr_matrix(adj)
        mask = self.diagonal_entries(csr)[2]
        n = csr.shape[0]
        return _masked_csr(csr, mask, n), _masked_csr(csr, ~mask, n)

    def dense_fraction(self, adj: sp.spmatrix) -> float:
        """Fraction of nnz captured by the diagonal subgraph blocks.

        The paper's polarization drives this up (e.g. only ~30% of non-zeros
        remain in the sparser workload for Cora, Sec. I).
        """
        mask = self.diagonal_entries(adj)[2]
        return float(mask.mean()) if mask.size else 0.0

    def class_block_workloads(self, adj: sp.spmatrix) -> np.ndarray:
        """Per-class nnz inside diagonal blocks (chunk workload sizes)."""
        return self.class_totals(self.subgraph_workloads(adj))

    def subgraph_workloads(self, adj: sp.spmatrix) -> np.ndarray:
        """Per-subgraph nnz inside its diagonal block."""
        rows, _, mask = self.diagonal_entries(adj)
        return np.bincount(self.node_subgraph[rows[mask]],
                           minlength=self.num_subgraphs)

    def balance_within_classes(self, adj: sp.spmatrix) -> float:
        """Mean over classes of (mean subgraph nnz / max subgraph nnz).

        1.0 means perfectly balanced subgraphs inside every class — the
        property that lets each chunk run without runtime autotuning.
        """
        return self.class_balance(self.subgraph_workloads(adj))

    def class_totals(self, per_subgraph: np.ndarray) -> np.ndarray:
        """Per-class sums of per-subgraph counts, by each span's class."""
        out = np.zeros(self.num_classes, dtype=np.int64)
        for s in self.spans:
            out[s.class_id] += per_subgraph[s.subgraph_id]
        return out

    def class_balance(self, per_subgraph: np.ndarray) -> float:
        """:meth:`balance_within_classes` of per-subgraph nnz counts."""
        ratios = []
        for c in range(self.num_classes):
            loads = per_subgraph[
                [s.subgraph_id for s in self.spans if s.class_id == c]]
            if loads.size and loads.max() > 0:
                ratios.append(loads.mean() / loads.max())
        return float(np.mean(ratios)) if ratios else 1.0

    def describe(self) -> str:
        """Human-readable summary of the layout."""
        lines = [
            f"BlockLayout: {self.num_nodes} nodes, {self.num_classes} classes, "
            f"{self.num_groups} groups, {self.num_subgraphs} subgraphs"
        ]
        for c in range(self.num_classes):
            spans = [s for s in self.spans if s.class_id == c]
            sizes = [s.size for s in spans]
            if sizes:
                lines.append(
                    f"  class {c}: {len(spans)} subgraphs, "
                    f"sizes {min(sizes)}..{max(sizes)}"
                )
        return "\n".join(lines)


def _masked_csr(csr: sp.csr_matrix, mask: np.ndarray, n: int) -> sp.csr_matrix:
    """The canonical ``(n, n)`` CSR of ``csr``'s entries where ``mask`` holds."""
    kept_before = np.concatenate(([0], np.cumsum(mask)))
    part = sp.csr_matrix((csr.data[mask], csr.indices[mask],
                          kept_before[csr.indptr]), shape=(n, n))
    part.sum_duplicates()  # a no-op check when csr is already canonical
    return part


def _subgraphs_per_class(
    class_workloads: np.ndarray, total_subgraphs: int, num_groups: int,
    class_sizes: np.ndarray,
) -> np.ndarray:
    """Apportion ``total_subgraphs`` across classes proportional to workload.

    Each non-empty class receives at least one subgraph; counts are capped by
    class size (cannot split n nodes into more than n parts).
    """
    weights = class_workloads.astype(np.float64)
    weights = weights / max(weights.sum(), 1e-12)
    raw = np.maximum(np.round(weights * total_subgraphs), 1).astype(np.int64)
    raw[class_sizes == 0] = 0
    return np.minimum(raw, np.maximum(class_sizes, 1))


def partition_graph(
    graph: Graph,
    num_classes: int = 2,
    num_groups: int = 2,
    num_subgraphs: int = 8,
    thresholds=None,
    rng: SeedLike = None,
) -> Tuple[Graph, BlockLayout]:
    """GCoD Step 1: degree classes -> METIS subgraphs -> groups -> reorder.

    Returns the reordered graph and its :class:`BlockLayout`. Hyper-
    parameters match Sec. VI-C's ablation: ``num_classes`` C ∈ {1..4},
    ``num_subgraphs`` S ∈ {8..20}.
    """
    if num_classes < 1 or num_groups < 1 or num_subgraphs < num_classes:
        raise PartitionError(
            "need num_classes >= 1, num_groups >= 1, num_subgraphs >= num_classes"
        )
    gen = ensure_rng(rng)
    degrees = graph.degrees()
    node_class = degree_classes(degrees, num_classes, thresholds=thresholds)

    class_sizes = np.bincount(node_class, minlength=num_classes)
    class_work = np.zeros(num_classes, dtype=np.int64)
    np.add.at(class_work, node_class, degrees + 1)
    counts = _subgraphs_per_class(
        class_work, num_subgraphs, num_groups, class_sizes
    )

    # Partition every class with METIS on its induced subgraph.
    node_subgraph = np.full(graph.num_nodes, -1, dtype=np.int64)
    subgraph_meta: List[Tuple[int, float]] = []  # (class_id, workload)
    next_id = 0
    for c in range(num_classes):
        members = np.nonzero(node_class == c)[0]
        if members.size == 0:
            continue
        k = int(min(counts[c], members.size))
        induced = graph.adj[members][:, members]
        local_parts = metis_partition(
            induced, k, node_weight=degrees[members] + 1.0, rng=gen
        )
        for p in range(int(local_parts.max()) + 1):
            sel = members[local_parts == p]
            node_subgraph[sel] = next_id
            subgraph_meta.append((c, float((degrees[sel] + 1).sum())))
            next_id += 1
    if np.any(node_subgraph < 0):
        raise PartitionError("some nodes were not assigned a subgraph")

    # Distribute each class's subgraphs over groups (LPT round-robin).
    subgraph_group = np.zeros(next_id, dtype=np.int64)
    for c in range(num_classes):
        ids = [i for i, (cls, _) in enumerate(subgraph_meta) if cls == c]
        if not ids:
            continue
        loads = [subgraph_meta[i][1] for i in ids]
        assignment = distribute_round_robin(loads, num_groups)
        for i, g in zip(ids, assignment):
            subgraph_group[i] = g

    # Final node order: group, then class, then subgraph, then original id.
    subgraph_class = np.array([c for c, _ in subgraph_meta], dtype=np.int64)
    node_group = subgraph_group[node_subgraph]
    order = np.lexsort(
        (np.arange(graph.num_nodes), node_subgraph, node_class[np.arange(graph.num_nodes)], node_group)
    )
    perm = order.astype(np.int64)

    new_graph = permute_graph(graph, perm)
    new_class = node_class[perm]
    new_group = node_group[perm]
    new_subgraph_old_ids = node_subgraph[perm]

    # Renumber subgraphs by order of appearance and record spans.
    spans: List[SubgraphSpan] = []
    new_subgraph = np.zeros_like(new_subgraph_old_ids)
    seen = {}
    boundaries = np.nonzero(np.diff(new_subgraph_old_ids) != 0)[0] + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [graph.num_nodes]])
    for new_id, (start, stop) in enumerate(zip(starts, stops)):
        old_id = int(new_subgraph_old_ids[start])
        if old_id in seen:
            raise PartitionError("subgraph nodes are not contiguous after sort")
        seen[old_id] = new_id
        new_subgraph[start:stop] = new_id
        spans.append(
            SubgraphSpan(
                subgraph_id=new_id,
                class_id=int(subgraph_class[old_id]),
                group_id=int(subgraph_group[old_id]),
                start=int(start),
                stop=int(stop),
            )
        )

    layout = BlockLayout(
        perm=perm,
        node_class=new_class,
        node_group=new_group,
        node_subgraph=new_subgraph,
        spans=spans,
        num_classes=num_classes,
        num_groups=num_groups,
    )
    new_graph.meta["layout"] = layout
    return new_graph, layout
