"""Node reordering: apply permutations and baseline reordering schemes.

GCoD's Step-1 layout *is* a node permutation (group, class, subgraph order);
this module provides the permutation plumbing plus the classic
Reverse-Cuthill-McKee reordering as the "prior graph reordering work"
baseline mentioned in Sec. II.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import PartitionError
from repro.graphs.graph import Graph


def check_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    """Validate that ``perm`` is a permutation of ``range(n)``."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise PartitionError("not a valid permutation of the node set")
    return perm


def permute_graph(graph: Graph, perm: np.ndarray) -> Graph:
    """Relabel nodes so old node ``perm[i]`` becomes new node ``i``.

    ``perm`` lists old node ids in their new order (new -> old). Features,
    labels and masks are permuted consistently; ``meta`` records the
    composition so the original order can be recovered.
    """
    n = graph.num_nodes
    perm = check_permutation(perm, n)
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)
    coo = graph.adj.tocoo()
    adj = sp.csr_matrix(
        (coo.data, (inverse[coo.row], inverse[coo.col])), shape=(n, n)
    )
    out = Graph(
        adj=adj,
        features=graph.features[perm],
        labels=graph.labels[perm],
        train_mask=graph.train_mask[perm],
        val_mask=graph.val_mask[perm],
        test_mask=graph.test_mask[perm],
        name=graph.name,
        meta=dict(graph.meta),
    )
    prior = graph.meta.get("permutation")
    out.meta["permutation"] = perm if prior is None else np.asarray(prior)[perm]
    return out


def rcm_permutation(graph: Graph) -> np.ndarray:
    """Reverse-Cuthill-McKee ordering (bandwidth-minimizing baseline)."""
    # csgraph loads scipy.linalg and numpy.f2py: import it only here
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    return np.asarray(
        reverse_cuthill_mckee(graph.adj.tocsr(), symmetric_mode=True),
        dtype=np.int64,
    )


def degree_sort_permutation(graph: Graph, descending: bool = True) -> np.ndarray:
    """Order nodes by degree (hub-first by default).

    The classic lightweight reordering for power-law graphs: clusters the
    hub-hub edges into one dense corner. Cheap, but produces no balanced
    blocks — the property GCoD's class/subgraph layout adds on top.
    """
    degrees = graph.degrees()
    order = np.argsort(-degrees if descending else degrees, kind="stable")
    return order.astype(np.int64)


def bfs_community_permutation(graph: Graph, rng=None) -> np.ndarray:
    """Community-locality ordering via BFS from degree-ranked seeds.

    A stand-in for Rabbit-order-style [1] locality reordering: repeatedly
    BFS from the highest-degree unvisited node, emitting nodes in visit
    order so that connected neighbourhoods become contiguous index ranges.
    """
    import collections

    n = graph.num_nodes
    adj = graph.adj.tocsr()
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    seeds = np.argsort(-graph.degrees(), kind="stable")
    queue = collections.deque()
    for seed in seeds:
        if visited[seed]:
            continue
        queue.append(seed)
        visited[seed] = True
        while queue:
            u = queue.popleft()
            order[pos] = u
            pos += 1
            lo, hi = adj.indptr[u], adj.indptr[u + 1]
            for v in adj.indices[lo:hi]:
                if not visited[v]:
                    visited[v] = True
                    queue.append(v)
    return order


#: The reordering baselines of Sec. II, keyed by name.
REORDERING_BASELINES = {
    "rcm": rcm_permutation,
    "degree-sort": degree_sort_permutation,
    "bfs-community": bfs_community_permutation,
}
