"""Quantization machinery tests (shared by QAT / Degree-Quant / GCoD-8bit)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import QuantSpec, quantize_dequantize


def test_spec_levels():
    assert QuantSpec(8).levels == 127
    assert QuantSpec(4).levels == 7


def test_quantize_idempotent(rng):
    x = rng.normal(size=(10, 10))
    once = quantize_dequantize(x, 8)
    twice = quantize_dequantize(once, 8)
    np.testing.assert_allclose(once, twice, atol=1e-12)


def test_quantize_preserves_zero():
    x = np.array([0.0, 1.0, -1.0])
    q = quantize_dequantize(x, 8)
    assert q[0] == 0.0


def test_quantize_bounded_error(rng):
    x = rng.normal(size=1000)
    q = quantize_dequantize(x, 8)
    scale = np.abs(x).max() / 127
    assert np.abs(q - x).max() <= scale / 2 + 1e-12


def test_lower_bits_coarser(rng):
    x = rng.normal(size=500)
    err8 = np.abs(quantize_dequantize(x, 8) - x).mean()
    err4 = np.abs(quantize_dequantize(x, 4) - x).mean()
    assert err4 > err8


def test_quantize_distinct_values_count(rng):
    x = rng.normal(size=10000)
    q = quantize_dequantize(x, 4)
    assert len(np.unique(q)) <= 2 * QuantSpec(4).levels + 1


@given(st.integers(2, 16))
@settings(max_examples=15, deadline=None)
def test_quantize_all_zero_safe(bits):
    q = quantize_dequantize(np.zeros(8), bits)
    assert np.array_equal(q, np.zeros(8))


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32),
             min_size=1, max_size=64),
    st.integers(2, 12),
)
@settings(max_examples=60, deadline=None)
def test_quantize_never_exceeds_range(values, bits):
    x = np.asarray(values, dtype=np.float64)
    q = quantize_dequantize(x, bits)
    assert np.abs(q).max() <= np.abs(x).max() + 1e-9
