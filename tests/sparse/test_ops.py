"""SpMM kernels: both product orders must equal dense matmul exactly."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import get_backend

from tests.sparse.conftest import random_coo

REF = get_backend("reference")


def test_row_product_matches_dense(rng):
    coo = random_coo(rng, 12, 9, 40)
    b = rng.normal(size=(9, 5))
    expected = coo.toarray() @ b
    got = REF.spmm_row_product(coo.tocsr(), b)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_column_product_matches_dense(rng):
    coo = random_coo(rng, 12, 9, 40)
    b = rng.normal(size=(9, 5))
    expected = coo.toarray() @ b
    got = REF.spmm_column_product(coo.tocsc(), b)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_both_orders_agree(rng):
    # Fig. 7's point: same product, different partial-result order.
    coo = random_coo(rng, 20, 20, 80)
    b = rng.normal(size=(20, 3))
    row = REF.spmm_row_product(coo.tocsr(), b)
    col = REF.spmm_column_product(coo.tocsc(), b)
    np.testing.assert_allclose(row, col, atol=1e-12)


def test_spmm_dispatch(rng):
    coo = random_coo(rng, 12, 9, 40)
    b = rng.normal(size=(9, 2))
    kernel = get_backend(None)
    np.testing.assert_allclose(
        kernel.spmm(coo.tocsr(), b), kernel.spmm(coo.tocsc(), b),
        atol=1e-12,
    )


def test_spmm_rejects_unknown_type():
    with pytest.raises(TypeError):
        get_backend(None).spmm(np.eye(3), np.eye(3))


def test_spmm_shape_mismatch(rng):
    csr = random_coo(rng, 12, 9, 40).tocsr()
    with pytest.raises(ShapeError):
        REF.spmm_row_product(csr, rng.normal(size=(7, 2)))


def test_spmm_rejects_1d_operand(rng):
    csr = random_coo(rng, 12, 9, 40).tocsr()
    with pytest.raises(ShapeError):
        REF.spmm_row_product(csr, rng.normal(size=9))
