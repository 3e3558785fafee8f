"""Layout-driven tiled execution: numerics, profiles, and accounting."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.graphs.normalize import symmetric_normalize
from repro.sparse.kernels import (
    TiledBackend,
    get_backend,
    layout_tile_profile,
    tiled_spmm,
)

WIDTH = 6


@pytest.fixture(scope="module")
def layout_case(request):
    graph, layout = request.getfixturevalue("partitioned")
    a_hat = symmetric_normalize(graph.adj)
    rng = np.random.default_rng(42)
    b = rng.normal(size=(graph.num_nodes, WIDTH))
    return a_hat, layout, b


def test_tiled_spmm_matches_reference(layout_case):
    a_hat, layout, b = layout_case
    out, _ = tiled_spmm(a_hat, b, layout)
    ref = get_backend("reference").spmm_row_product(a_hat.tocsr(), b)
    np.testing.assert_allclose(out, ref, atol=1e-12, rtol=1e-12)


def test_profile_covers_every_nnz(layout_case):
    a_hat, layout, b = layout_case
    _, profile = tiled_spmm(a_hat, b, layout)
    dense, sparse = layout.split(a_hat)
    assert profile.total_nnz == a_hat.nnz
    assert profile.total_macs == a_hat.nnz * WIDTH
    dense_tiles = [t for t in profile.tiles if t.owner != "sparse"]
    sparse_tiles = [t for t in profile.tiles if t.owner == "sparse"]
    assert sum(t.nnz for t in dense_tiles) == dense.nnz
    assert sum(t.nnz for t in sparse_tiles) == sparse.nnz
    # Dense blocks stream COO (8 B/nnz), column runs stream CSC (6 B/nnz).
    assert profile.total_bytes == dense.nnz * 8 + sparse.nnz * 6


def test_profile_owners_follow_layout(layout_case):
    a_hat, layout, b = layout_case
    _, profile = tiled_spmm(a_hat, b, layout)
    chunk_owners = {t.owner for t in profile.tiles if t.owner != "sparse"}
    assert chunk_owners == {
        f"chunk{s.class_id}" for s in layout.spans
    }
    # One tile per subgraph span, plus at least one column run.
    dense_tiles = [t for t in profile.tiles if t.owner != "sparse"]
    assert len(dense_tiles) == layout.num_subgraphs
    assert any(t.owner == "sparse" for t in profile.tiles)


def test_profile_only_matches_executed_profile(layout_case):
    a_hat, layout, b = layout_case
    _, executed = tiled_spmm(a_hat, b, layout)
    accounted = layout_tile_profile(a_hat, layout, WIDTH)
    assert accounted == executed


def test_chunk_balance_bounds(layout_case):
    a_hat, layout, b = layout_case
    _, profile = tiled_spmm(a_hat, b, layout)
    assert 0.0 < profile.chunk_balance() <= 1.0
    assert profile.macs_by_owner()["sparse"] > 0


def test_backend_spmm_layout_entry_point(layout_case):
    a_hat, layout, b = layout_case
    backend = get_backend("tiled")
    assert isinstance(backend, TiledBackend)
    out, profile = backend.spmm_layout(a_hat, b, layout)
    direct, _ = tiled_spmm(a_hat, b, layout)
    np.testing.assert_array_equal(out, direct)
    assert profile.total_nnz == a_hat.nnz


def test_tiled_spmm_accepts_containers(layout_case):
    a_hat, layout, b = layout_case
    for fmt in ("csr", "csc"):
        out, profile = tiled_spmm(a_hat.asformat(fmt), b, layout)
        direct, _ = tiled_spmm(a_hat, b, layout)
        np.testing.assert_allclose(out, direct, atol=1e-12, rtol=1e-12)
        assert profile.total_nnz == a_hat.nnz


def test_tiled_spmm_rejects_rectangular(layout_case):
    _, layout, b = layout_case
    rect = sp.random(10, 7, density=0.3, random_state=0, format="csr")
    with pytest.raises(ShapeError):
        tiled_spmm(rect, np.zeros((7, 2)), layout)


def test_small_tile_columns_same_totals(layout_case):
    a_hat, layout, b = layout_case
    out_small, prof_small = tiled_spmm(a_hat, b, layout, tile_columns=17)
    out_big, prof_big = tiled_spmm(a_hat, b, layout, tile_columns=100000)
    np.testing.assert_allclose(out_small, out_big, atol=1e-12, rtol=1e-12)
    assert prof_small.total_nnz == prof_big.total_nnz
    assert prof_small.total_bytes == prof_big.total_bytes
    assert len(prof_small.tiles) > len(prof_big.tiles)
