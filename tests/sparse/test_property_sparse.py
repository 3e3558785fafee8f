"""Property-based tests (hypothesis) for the SpMM kernels and footprints."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.workload import storage_bytes
from repro.sparse import backend_choices, get_backend

from tests.sparse.conftest import compressed


@st.composite
def coo_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=1, max_value=20))
    nnz = draw(st.integers(min_value=0, max_value=60))
    rows = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz)
    )
    data = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return sp.coo_matrix(
        (np.array(data), (np.array(rows, dtype=np.int64),
                          np.array(cols, dtype=np.int64))),
        shape=(n, m),
    )


# A product with the identity reproduces the matrix: every stored entry,
# duplicates included, lands in its dense cell under each backend.
@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_csr_roundtrip_dense_equal(coo):
    a, eye = compressed(coo, "csr"), np.eye(coo.shape[1])
    for name in backend_choices():
        out = get_backend(name).spmm_row_product(a, eye)
        assert np.allclose(out, coo.toarray()), name


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_csc_roundtrip_dense_equal(coo):
    a, eye = compressed(coo, "csc"), np.eye(coo.shape[1])
    for name in backend_choices():
        out = get_backend(name).spmm_column_product(a, eye)
        assert np.allclose(out, coo.toarray()), name


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_storage_csc_never_larger_than_coo_plus_pointer(coo):
    # CSC trades one index per nnz for a column-pointer array.
    csc = storage_bytes("csc", coo.shape, coo.nnz)
    assert csc <= storage_bytes("coo", coo.shape, coo.nnz) \
        + 4 * (coo.shape[1] + 1)
