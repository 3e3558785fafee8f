"""Kernel backend registry + vectorized/tiled/reference parity.

The ``vectorized`` and ``tiled`` backends are only allowed to exist because
they are numerically indistinguishable from the loop-exact ``reference``
kernels: every kernel family is held to 1e-12 here, across both product
orders, duplicate indices, empty rows/columns, rectangular shapes, and
empty operands.
"""

import numpy as np
import pytest

from repro.errors import KernelError, ShapeError
from repro.sparse import kernels as K

from tests.sparse.conftest import compressed, random_coo

REF = K.get_backend("reference")
VEC = K.get_backend("vectorized")
TIL = K.get_backend("tiled")

#: The backends that must be numerically indistinguishable from REF.
FAST = [VEC, TIL]

#: (rows, cols, nnz, force_duplicates) covering the awkward geometries
SHAPES = [
    (1, 1, 0, False),
    (5, 3, 0, False),      # empty matrix, rectangular
    (7, 7, 20, False),
    (12, 9, 40, False),    # rectangular, more rows
    (3, 17, 25, False),    # rectangular, more cols
    (40, 2, 60, True),     # heavy duplicate stacking on few columns
    (16, 16, 48, True),    # duplicate (i, j) pairs must accumulate
    (30, 30, 1, False),    # single entry, mostly-empty rows/cols
]


def _close(a, b):
    np.testing.assert_allclose(a, b, atol=1e-12, rtol=1e-12)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_lists_all_backends():
    assert K.backend_choices() == ("reference", "tiled", "vectorized")


def test_backend_choices_exclude_compiled():
    assert "compiled" not in K.backend_choices()
    with pytest.raises(KernelError, match="unknown kernel backend 'compiled'"):
        K.get_backend("compiled")


def test_default_backend_is_vectorized():
    assert K.get_backend(None).name == "vectorized"


def test_get_backend_accepts_instances():
    assert K.get_backend(REF) is REF


def test_unknown_backend_has_clear_error():
    with pytest.raises(KernelError, match="unknown kernel backend 'gpu'"):
        K.get_backend("gpu")
    with pytest.raises(KernelError, match="vectorized"):
        # The error must list what *is* available.
        K.get_backend("gpu")


def test_set_default_backend_roundtrip():
    previous = K.set_default_backend("reference")
    try:
        assert previous == "vectorized"
        assert K.get_backend(None).name == "reference"
    finally:
        K.set_default_backend(previous)
    assert K.get_backend(None).name == "vectorized"


def test_backend_name_resolves_without_building():
    assert K.backend_name(None) == "vectorized"
    assert K.backend_name("tiled") == "tiled"
    assert K.backend_name(REF) == "reference"
    with pytest.raises(KernelError, match="unknown kernel backend 'gpu'"):
        K.backend_name("gpu")
    assert K.backend_choices() == ("reference", "tiled", "vectorized")


def test_register_backend_rejects_unnamed():
    with pytest.raises(KernelError):
        K.register_backend(K.KernelBackend())


# ----------------------------------------------------------------------
# product-order SpMM parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast", FAST, ids=lambda b: b.name)
@pytest.mark.parametrize("n,m,nnz,dup", SHAPES)
def test_row_product_parity(rng, n, m, nnz, dup, fast):
    coo = random_coo(rng, n, m, nnz, dup)
    csr = compressed(coo, "csr")
    b = rng.normal(size=(m, 5))
    _close(fast.spmm_row_product(csr, b), REF.spmm_row_product(csr, b))
    _close(fast.spmm_row_product(csr, b), coo.toarray() @ b)


@pytest.mark.parametrize("fast", FAST, ids=lambda b: b.name)
@pytest.mark.parametrize("n,m,nnz,dup", SHAPES)
def test_column_product_parity(rng, n, m, nnz, dup, fast):
    coo = random_coo(rng, n, m, nnz, dup)
    csc = compressed(coo, "csc")
    b = rng.normal(size=(m, 4))
    _close(fast.spmm_column_product(csc, b), REF.spmm_column_product(csc, b))
    _close(fast.spmm_column_product(csc, b), coo.toarray() @ b)


@pytest.mark.parametrize("n,m,nnz,dup", SHAPES)
def test_tiled_multi_tile_parity(rng, n, m, nnz, dup):
    # A tile size smaller than the operands forces multi-tile execution.
    backend = K.TiledBackend(tile_size=3)
    coo = random_coo(rng, n, m, nnz, dup)
    b = rng.normal(size=(m, 5))
    csr, csc = compressed(coo, "csr"), compressed(coo, "csc")
    _close(backend.spmm_row_product(csr, b), REF.spmm_row_product(csr, b))
    _close(
        backend.spmm_column_product(csc, b), REF.spmm_column_product(csc, b)
    )


def test_single_column_dense_operand(rng):
    csr = random_coo(rng, 9, 6, 15).tocsr()
    b = rng.normal(size=(6, 1))
    _close(VEC.spmm_row_product(csr, b), REF.spmm_row_product(csr, b))


@pytest.mark.parametrize("backend", ["reference", "vectorized", "tiled"])
def test_spmm_dispatch_honors_backend_argument(rng, backend):
    coo = random_coo(rng, 10, 8, 30)
    b = rng.normal(size=(8, 3))
    got_row = K.get_backend(backend).spmm(coo.tocsr(), b)
    got_col = K.get_backend(backend).spmm(coo.tocsc(), b)
    _close(got_row, coo.toarray() @ b)
    _close(got_col, coo.toarray() @ b)


def test_spmm_rejects_unknown_backend():
    with pytest.raises(KernelError):
        K.get_backend("nope")


@pytest.mark.parametrize("backend", ["reference", "vectorized", "tiled"])
def test_vectorized_shape_errors_match_reference(rng, backend):
    csr = random_coo(rng, 6, 5, 10).tocsr()
    kernel = K.get_backend(backend)
    with pytest.raises(ShapeError):
        kernel.spmm(csr, rng.normal(size=(7, 2)))
    with pytest.raises(ShapeError):
        kernel.spmm(csr, rng.normal(size=5))


# ----------------------------------------------------------------------
# spmm_batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_spmm_batch_matches_per_pair(rng, fmt):
    mats, denses = [], []
    for n, m, nnz, dup in SHAPES:
        mats.append(compressed(random_coo(rng, n, m, nnz, dup), fmt))
        denses.append(rng.normal(size=(m, 6)))
    batched = VEC.spmm_batch(mats, denses)
    for a, b, got in zip(mats, denses, batched):
        _close(got, REF.spmm(a, b))


def test_spmm_batch_mixed_formats_falls_back(rng):
    coo1 = random_coo(rng, 6, 4, 12)
    coo2 = random_coo(rng, 3, 5, 8)
    mats = [coo1.tocsr(), coo2.tocsc()]
    denses = [rng.normal(size=(4, 3)), rng.normal(size=(5, 3))]
    batched = VEC.spmm_batch(mats, denses)
    _close(batched[0], coo1.toarray() @ denses[0])
    _close(batched[1], coo2.toarray() @ denses[1])


def test_spmm_batch_mixed_widths_falls_back(rng):
    coo1 = random_coo(rng, 6, 4, 12)
    coo2 = random_coo(rng, 3, 5, 8)
    mats = [coo1.tocsr(), coo2.tocsr()]
    denses = [rng.normal(size=(4, 3)), rng.normal(size=(5, 7))]
    batched = VEC.spmm_batch(mats, denses)
    _close(batched[0], coo1.toarray() @ denses[0])
    _close(batched[1], coo2.toarray() @ denses[1])


def test_spmm_batch_empty_and_length_mismatch(rng):
    assert VEC.spmm_batch([], []) == []
    with pytest.raises(ShapeError):
        VEC.spmm_batch([random_coo(rng, 4, 4, 6).tocsr()], [])


# ----------------------------------------------------------------------
# segment primitives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sorted_segments", [True, False])
@pytest.mark.parametrize("width", [None, 1, 7])
def test_segment_sum_parity(rng, sorted_segments, width):
    num_segments, count = 11, 60
    segments = rng.integers(0, num_segments, count)
    if sorted_segments:
        segments = np.sort(segments)
    shape = (count,) if width is None else (count, width)
    values = rng.normal(size=shape)
    _close(
        VEC.segment_sum(values, segments, num_segments),
        REF.segment_sum(values, segments, num_segments),
    )


@pytest.mark.parametrize("sorted_segments", [True, False])
def test_segment_max_parity(rng, sorted_segments):
    num_segments, count = 9, 50
    segments = rng.integers(0, num_segments, count)
    if sorted_segments:
        segments = np.sort(segments)
    values = rng.normal(size=(count, 6))
    ref = REF.segment_max(values, segments, num_segments)
    vec = VEC.segment_max(values, segments, num_segments)
    # Empty segments stay -inf in both; compare finiteness then values.
    assert np.array_equal(np.isfinite(ref), np.isfinite(vec))
    _close(ref[np.isfinite(ref)], vec[np.isfinite(vec)])


def test_segment_primitives_empty_input(rng):
    for backend in (REF, VEC):
        summed = backend.segment_sum(np.zeros((0, 3)), np.zeros(0, int), 4)
        assert summed.shape == (4, 3) and not summed.any()
        maxed = backend.segment_max(np.zeros((0, 3)), np.zeros(0, int), 4)
        assert maxed.shape == (4, 3) and np.all(np.isneginf(maxed))
        agg = backend.coo_spmm(
            np.zeros(0), np.zeros(0, int), np.zeros(0, int),
            rng.normal(size=(5, 3)), 4,
        )
        assert agg.shape == (4, 3) and not agg.any()


def test_segment_sum_rejects_out_of_range_ids(rng):
    # np.add.at would raise here; the bincount path must not silently drop.
    values = rng.normal(size=6)
    segments = np.array([0, 1, 2, 3, 4, 7])
    with pytest.raises(IndexError):
        VEC.segment_sum(values, segments, 5)
    with pytest.raises(IndexError):
        REF.segment_sum(values, segments, 5)


@pytest.mark.parametrize("name", K.backend_choices())
@pytest.mark.parametrize("bad_id", [-1, 3])
@pytest.mark.parametrize("op", ["segment_sum", "segment_max"])
def test_segment_ops_reject_out_of_range_ids(rng, name, bad_id, op):
    # numpy would wrap -1 onto the last segment; bincount would drop or
    # grow past the end. Every backend must raise instead.
    kernel = getattr(K.get_backend(name), op)
    for values in (rng.normal(size=3), rng.normal(size=(3, 4))):
        with pytest.raises(IndexError, match=r"\[0, 3\)"):
            kernel(values, np.array([0, bad_id, 1]), 3)


def test_spmm_batch_handles_non_compressed_scipy_inputs(rng):
    mats = [random_coo(rng, 5, 4, 9), random_coo(rng, 6, 4, 7)]
    denses = [rng.normal(size=(4, 3)), rng.normal(size=(4, 3))]
    batched = VEC.spmm_batch(mats, denses)
    _close(batched[0], mats[0].toarray() @ denses[0])
    _close(batched[1], mats[1].toarray() @ denses[1])


@pytest.mark.parametrize("duplicate_edges", [False, True])
def test_coo_spmm_parity(rng, duplicate_edges):
    num_rows, num_cols, num_edges = 8, 10, 40
    rows = rng.integers(0, num_rows, num_edges)
    cols = rng.integers(0, num_cols, num_edges)
    if duplicate_edges:
        rows[:10] = rows[0]
        cols[:10] = cols[0]
    w = rng.normal(size=num_edges)
    x = rng.normal(size=(num_cols, 5))
    _close(
        VEC.coo_spmm(w, rows, cols, x, num_rows),
        REF.coo_spmm(w, rows, cols, x, num_rows),
    )
