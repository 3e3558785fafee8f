"""The cached CSR order of an edge list is exact, not merely close.

``GraphOps`` builds each graph's :class:`~repro.sparse.kernels.CSROrder`
once and every ``edge_spmm`` reuses it. The compiled backends must then
produce the very bits the per-call ``coo_matrix(...).tocsr() @ x``
conversion produces, forward and both gradients, so these tests use
``np.array_equal`` rather than the parity suite's 1e-12.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn.models.base import GraphOps
from repro.nn.tensor import Tensor
from repro.sparse.kernels import CSROrder, get_backend

BACKENDS = ["vectorized", "tiled"]


def _edge_lists():
    """(rows, cols, shape) for each awkward geometry."""
    rng = np.random.default_rng(3)
    n = 9
    flat = rng.choice(n * n, size=30, replace=False)
    unsorted_rows, unsorted_cols = flat // n, flat % n
    order = np.lexsort((unsorted_cols, unsorted_rows))
    off_diagonal = unsorted_rows != unsorted_cols
    loops = np.arange(n)
    rect = rng.choice(5 * 8, size=14, replace=False)
    return {
        "row_sorted": (unsorted_rows[order], unsorted_cols[order], (n, n)),
        "unsorted": (unsorted_rows, unsorted_cols, (n, n)),
        "self_loops": (
            np.concatenate([unsorted_rows[off_diagonal], loops]),
            np.concatenate([unsorted_cols[off_diagonal], loops]),
            (n, n),
        ),
        "empty": (np.zeros(0, int), np.zeros(0, int), (n, n)),
        # Nodes 0, 4 and 8 have no edges at all.
        "isolated": (np.array([5, 1, 3, 2, 6, 7]),
                     np.array([3, 2, 6, 5, 1, 2]), (n, n)),
        "rectangular": (rect // 8, rect % 8, (5, 8)),
    }


EDGE_LISTS = _edge_lists()


def _per_call(weights, rows, cols, dense, shape):
    """Today's per-call conversion: COO triplets to CSR, then the product."""
    return sp.coo_matrix((weights, (rows, cols)), shape=shape).tocsr() @ dense


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_order_arrays_are_the_tocsr_arrays(name):
    rows, cols, shape = EDGE_LISTS[name]
    order = CSROrder.from_edges(rows, cols, shape)
    for built, r, c, s in ((order, rows, cols, shape),
                           (order.T, cols, rows, shape[::-1])):
        ref = sp.coo_matrix((np.ones(len(r)), (r, c)), shape=s).tocsr()
        assert np.array_equal(built.indptr, ref.indptr)
        assert np.array_equal(built.indices, ref.indices)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_edge_spmm_through_the_order_is_bit_identical(backend, name):
    rows, cols, shape = EDGE_LISTS[name]
    rng = np.random.default_rng(11)
    w_data = rng.normal(size=len(rows))
    x_data = rng.normal(size=(shape[1], 4))
    upstream = rng.normal(size=(shape[0], 4))

    def run(order):
        w = Tensor(w_data.copy(), requires_grad=True)
        x = Tensor(x_data.copy(), requires_grad=True)
        out = F.edge_spmm(w, rows, cols, x, shape[0], backend=backend,
                          order=order)
        (out * Tensor(upstream)).sum().backward()
        return out.data, w.grad, x.grad

    out, w_grad, x_grad = run(CSROrder.from_edges(rows, cols, shape))
    assert np.array_equal(out, _per_call(w_data, rows, cols, x_data, shape))
    assert np.array_equal(
        x_grad, _per_call(w_data, cols, rows, upstream, shape[::-1]))
    _, per_call_w_grad, _ = run(None)
    assert np.array_equal(w_grad, per_call_w_grad)


def test_duplicate_pairs_take_the_per_call_conversion():
    rows = np.array([0, 2, 0, 1])
    cols = np.array([1, 0, 1, 2])
    assert CSROrder.from_edges(rows, cols, (3, 3)) is None
    # A non-canonical CSR adjacency stores one entry twice.
    adj = sp.csr_matrix(
        (np.ones(4), np.array([1, 1, 2, 0]), np.array([0, 2, 3, 4])),
        shape=(3, 3),
    )
    ops = GraphOps(adj, edge_weights=Tensor(np.ones(4)))
    assert ops._edge_order is None
    x = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(
        ops.agg_sum(Tensor(x)).data,
        _per_call(ops.base_data, ops.rows, ops.cols, x, (3, 3)),
    )


def test_graphops_builds_its_order_once(tiny_graph):
    ops = GraphOps(tiny_graph.adj,
                   edge_weights=Tensor(np.ones(tiny_graph.adj.nnz)))
    x = Tensor(np.ones((tiny_graph.num_nodes, 2)))
    ops.agg_sym(x)
    order = ops._edge_order
    assert order is not None
    ops.edge_weights = Tensor(np.full(tiny_graph.adj.nnz, 0.5))
    ops.agg_sym(x)
    assert ops._edge_order is order


def test_graphops_refuses_weights_of_the_wrong_length(tiny_graph):
    ops = GraphOps(tiny_graph.adj)
    with pytest.raises(ValueError, match="one entry per stored non-zero"):
        ops.edge_weights = Tensor(np.ones(3))


def test_order_of_another_shape_is_refused():
    rows, cols, shape = EDGE_LISTS["rectangular"]
    order = CSROrder.from_edges(rows, cols, shape)
    kernel = get_backend("vectorized")
    with pytest.raises(ShapeError, match="does not fit"):
        kernel.coo_spmm(np.ones(len(rows)), cols, rows, np.ones((5, 2)), 8,
                        order=order)
