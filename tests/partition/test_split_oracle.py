"""The denser/sparser split measured on CSR arrays equals the COO route.

``adjacency_profile`` and the ``BlockLayout`` queries read the split off
the CSR arrays directly: one mask per stored entry, counts by
``np.bincount``, parts rebuilt from masked ``data``/``indices`` and a
cumulative-sum ``indptr``. The functions below are the COO route they
replaced — every query converts its input to COO, and ``split`` rebuilds
both parts through scipy's COO -> CSR conversion — kept as the oracle.
Every comparison is exact (``==`` / ``np.array_equal``), with no
tolerance: the arithmetic is the same, only the bookkeeping moved.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.hardware.workload import (  # noqa: E402
    AdjacencyProfile,
    adjacency_profile,
    storage_bytes,
)
from repro.partition.layout import BlockLayout, SubgraphSpan  # noqa: E402


# ----------------------------------------------------------------------
# the oracle: the COO route
# ----------------------------------------------------------------------
def oracle_diagonal_mask(layout, adj):
    coo = sp.coo_matrix(adj)
    return layout.node_subgraph[coo.row] == layout.node_subgraph[coo.col]


def oracle_split(layout, adj):
    coo = sp.coo_matrix(adj)
    mask = oracle_diagonal_mask(layout, coo)
    n = coo.shape[0]
    dense = sp.csr_matrix(
        (coo.data[mask], (coo.row[mask], coo.col[mask])), shape=(n, n)
    )
    sparse = sp.csr_matrix(
        (coo.data[~mask], (coo.row[~mask], coo.col[~mask])), shape=(n, n)
    )
    return dense, sparse


def oracle_dense_fraction(layout, adj):
    nnz = sp.coo_matrix(adj).nnz
    if nnz == 0:
        return 0.0
    return float(oracle_diagonal_mask(layout, adj).sum()) / nnz


def oracle_class_block_workloads(layout, adj):
    coo = sp.coo_matrix(adj)
    mask = oracle_diagonal_mask(layout, coo)
    out = np.zeros(layout.num_classes, dtype=np.int64)
    np.add.at(out, layout.node_class[coo.row[mask]], 1)
    return out


def oracle_subgraph_workloads(layout, adj):
    coo = sp.coo_matrix(adj)
    mask = oracle_diagonal_mask(layout, coo)
    out = np.zeros(layout.num_subgraphs, dtype=np.int64)
    np.add.at(out, layout.node_subgraph[coo.row[mask]], 1)
    return out


def oracle_balance_within_classes(layout, adj):
    per_subgraph = oracle_subgraph_workloads(layout, adj)
    ratios = []
    for c in range(layout.num_classes):
        ids = [s.subgraph_id for s in layout.spans if s.class_id == c]
        if not ids:
            continue
        loads = per_subgraph[ids]
        if loads.max() > 0:
            ratios.append(loads.mean() / loads.max())
    return float(np.mean(ratios)) if ratios else 1.0


def oracle_profile(adj, layout):
    adj = sp.csr_matrix(adj)
    n = adj.shape[0]
    nnz = int(adj.nnz)
    if layout is None:
        csc = adj.tocsc()
        empty_cols = int((np.diff(csc.indptr) == 0).sum())
        return AdjacencyProfile(
            num_nodes=n,
            nnz=nnz,
            dense_nnz_per_class=(),
            sparse_nnz=nnz,
            class_balance=1.0,
            num_subgraphs=1,
            max_subgraph_nodes=n,
            skipped_col_fraction=empty_cols / max(n, 1),
            coo_bytes=storage_bytes("coo", adj.shape, nnz),
            csc_bytes=storage_bytes("csc", adj.shape, nnz),
            num_classes=1,
        )
    dense, sparse = oracle_split(layout, adj)
    per_class = tuple(
        int(v) for v in oracle_class_block_workloads(layout, adj))
    max_sub = max((s.size for s in layout.spans), default=n)
    sparse_csc = sp.csc_matrix(sparse)
    sparse_empty = int((np.diff(sparse_csc.indptr) == 0).sum())
    return AdjacencyProfile(
        num_nodes=n,
        nnz=nnz,
        dense_nnz_per_class=per_class,
        sparse_nnz=int(sparse.nnz),
        class_balance=oracle_balance_within_classes(layout, adj),
        num_subgraphs=layout.num_subgraphs,
        max_subgraph_nodes=int(max_sub),
        skipped_col_fraction=sparse_empty / max(n, 1),
        coo_bytes=storage_bytes("coo", dense.shape, int(dense.nnz)),
        csc_bytes=storage_bytes("csc", sparse.shape, int(sparse.nnz)),
        num_classes=layout.num_classes,
    )


# ----------------------------------------------------------------------
# exact comparisons
# ----------------------------------------------------------------------
def assert_same_csr(got, want):
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.has_sorted_indices == want.has_sorted_indices
    assert got.has_canonical_format == want.has_canonical_format


def assert_same_profile(got, want):
    assert got == want
    # equal values of another type (np.float64 for float) would still
    # change what a pickled profile or a rendered table holds
    for field in dataclasses.fields(AdjacencyProfile):
        assert type(getattr(got, field.name)) is type(
            getattr(want, field.name)), field.name


def assert_queries_match(layout, adj):
    """Every BlockLayout query on ``adj`` equals the COO route exactly."""
    assert np.array_equal(layout.diagonal_mask(adj),
                          oracle_diagonal_mask(layout, adj))
    for got, want in zip(layout.split(adj), oracle_split(layout, adj)):
        assert_same_csr(got, want)
    for query, oracle in (
        (layout.class_block_workloads, oracle_class_block_workloads),
        (layout.subgraph_workloads, oracle_subgraph_workloads),
    ):
        got, want = query(adj), oracle(layout, adj)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert layout.balance_within_classes(adj) == \
        oracle_balance_within_classes(layout, adj)
    assert layout.dense_fraction(adj) == oracle_dense_fraction(layout, adj)


STAGES = ("partitioned_graph", "tuned_graph", "final_graph")


@pytest.mark.parametrize("stage", STAGES)
def test_profile_equals_oracle_on_every_stage_graph(gcod_result, stage):
    adj = getattr(gcod_result, stage).adj
    assert adj.format == "csr" and adj.has_canonical_format
    for layout in (gcod_result.layout, None):
        assert_same_profile(adjacency_profile(adj, layout),
                            oracle_profile(adj, layout))


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("fmt", ("csr", "coo"))
def test_queries_equal_oracle_on_every_stage_graph(gcod_result, stage, fmt):
    adj = getattr(gcod_result, stage).adj.asformat(fmt)
    assert_queries_match(gcod_result.layout, adj)


def test_coo_mask_follows_coo_entry_order(partitioned):
    """structural.py masks its own COO arrays with ``diagonal_mask``: the
    mask must follow ``coo.row``, not a re-sorted order."""
    graph, layout = partitioned
    coo = graph.adj.tocoo()
    order = np.random.default_rng(0).permutation(coo.nnz)
    shuffled = sp.coo_matrix(
        (coo.data[order], (coo.row[order], coo.col[order])), shape=coo.shape)
    mask = layout.diagonal_mask(shuffled)
    assert np.array_equal(mask, layout.node_subgraph[coo.row[order]]
                          == layout.node_subgraph[coo.col[order]])
    assert_queries_match(layout, shuffled)


# ----------------------------------------------------------------------
# hypothesis: awkward layouts and matrices
# ----------------------------------------------------------------------
@st.composite
def layouts(draw):
    """A valid layout: contiguous spans, each span one class. Classes may
    own no span, and a single subgraph may cover every node."""
    n = draw(st.integers(1, 24))
    num_subgraphs = draw(st.integers(1, min(n, 6)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1),
                               min_size=num_subgraphs - 1,
                               max_size=num_subgraphs - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    num_classes = draw(st.integers(1, 4))
    span_class = draw(st.lists(st.integers(0, num_classes - 1),
                               min_size=len(bounds) - 1,
                               max_size=len(bounds) - 1))
    spans = [SubgraphSpan(subgraph_id=i, class_id=c, group_id=0,
                          start=lo, stop=hi)
             for i, (c, lo, hi) in enumerate(zip(span_class, bounds,
                                                 bounds[1:]))]
    node_subgraph = np.repeat(np.arange(len(spans)), np.diff(bounds))
    node_class = np.asarray(span_class, dtype=np.int64)[node_subgraph]
    return BlockLayout(
        perm=np.arange(n), node_class=node_class,
        node_group=np.zeros(n, dtype=np.int64),
        node_subgraph=node_subgraph, spans=spans,
        num_classes=num_classes, num_groups=1,
    )


#: Stored values: explicit zeros and values whose sums depend on order.
VALUES = st.sampled_from([0.0, 1.0, 0.1, 0.2, 0.3, -0.7, 1e-17, 3.5])


@st.composite
def layout_and_entries(draw):
    """A layout and a list of (row, col, value) entries in stored order.

    Entries repeat positions (duplicates), sit on the diagonal
    (self-loops), store 0.0 (explicit zeros) and leave rows empty.
    """
    layout = draw(layouts())
    n = layout.num_nodes
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), VALUES)
    entries = draw(st.lists(cell, max_size=4 * n))
    loops = draw(st.lists(st.integers(0, n - 1), max_size=n))
    entries += [(i, i, 1.0) for i in loops]
    return layout, draw(st.permutations(entries)) if entries else entries


def coo_of(entries, n):
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    return sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32))),
        shape=(n, n))


def raw_csr_of(entries, n):
    """CSR that keeps every entry as stored: rows grouped, order within a
    row as given, duplicates and unsorted columns left in place."""
    coo = coo_of(entries, n)
    order = np.argsort(coo.row, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(coo.row,
                                                        minlength=n))))
    raw = sp.csr_matrix((coo.data[order], coo.col[order], indptr),
                        shape=(n, n))
    assert raw.nnz == len(entries)
    return raw


@settings(max_examples=150, deadline=None)
@given(layout_and_entries())
def test_canonical_csr_matches_oracle(case):
    layout, entries = case
    adj = coo_of(entries, layout.num_nodes).tocsr()
    assert adj.has_canonical_format
    assert_queries_match(layout, adj)
    assert_queries_match(layout, adj.tocoo())
    for lay in (layout, None):
        assert_same_profile(adjacency_profile(adj, lay),
                            oracle_profile(adj, lay))


@settings(max_examples=150, deadline=None)
@given(layout_and_entries())
def test_non_canonical_csr_matches_oracle(case):
    """Duplicates and unsorted rows: the queries still equal the COO
    route, and the profile equals the oracle's on the summed matrix."""
    layout, entries = case
    raw = raw_csr_of(entries, layout.num_nodes)
    assert_queries_match(layout, raw)
    canonical = raw.copy()
    canonical.sum_duplicates()
    for lay in (layout, None):
        assert_same_profile(adjacency_profile(raw, lay),
                            oracle_profile(canonical, lay))


@settings(max_examples=150, deadline=None)
@given(layout_and_entries())
def test_coo_with_duplicates_mask_matches_oracle(case):
    """The mask follows ``coo.row`` even when positions repeat.

    ``split`` is left out here: it sums a COO input's repeated positions
    (scipy's ``tocsr``) before masking, while the COO route masks first,
    so three or more copies of one position can sum in another order
    (a last-bit difference). Every caller splits CSR, where both routes
    sum the same entries in the same order (see the tests above).
    """
    layout, entries = case
    coo = coo_of(entries, layout.num_nodes)
    assert np.array_equal(layout.diagonal_mask(coo),
                          oracle_diagonal_mask(layout, coo))
    for query, oracle in (
        (layout.class_block_workloads, oracle_class_block_workloads),
        (layout.subgraph_workloads, oracle_subgraph_workloads),
    ):
        assert np.array_equal(query(coo), oracle(layout, coo))
    assert layout.dense_fraction(coo) == oracle_dense_fraction(layout, coo)
