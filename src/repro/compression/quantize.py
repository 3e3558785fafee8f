"""Uniform fake quantization: a symmetric int-k round-trip.

Shared by the QAT / Degree-Quant baselines and by the GCoD (8-bit)
accelerator variant, whose 4x bandwidth saving (Tab. V footnote) comes from
exactly this 32-bit -> 8-bit conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class QuantSpec:
    """Symmetric uniform quantizer description."""

    bits: int = 8

    @property
    def levels(self) -> int:
        """Number of representable magnitudes on each side of zero."""
        return 2 ** (self.bits - 1) - 1

    def scale_for(self, values: np.ndarray) -> float:
        """Per-tensor scale mapping the max magnitude onto the last level."""
        max_abs = float(np.max(np.abs(values))) if values.size else 0.0
        return max_abs / self.levels if max_abs > 0 else 1.0


def quantize_dequantize(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Round ``values`` to the nearest int-``bits`` grid point (symmetric)."""
    spec = QuantSpec(bits)
    scale = spec.scale_for(values)
    q = np.clip(np.round(values / scale), -spec.levels, spec.levels)
    return q * scale
