"""Processing-element array model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class PEArray:
    """A MAC array: ``num_pes`` units at ``clock_hz``, one MAC/PE/cycle."""

    num_pes: int
    clock_hz: float

    def __post_init__(self):
        if self.num_pes <= 0 or self.clock_hz <= 0:
            raise ConfigError("PE count and clock must be positive")

    @property
    def peak_macs_per_second(self) -> float:
        """Peak throughput at utilization 1.0."""
        return self.num_pes * self.clock_hz

    def compute_seconds(self, macs: float, utilization: float = 1.0) -> float:
        """Time to execute ``macs`` multiply-accumulates at ``utilization``."""
        if not 0.0 < utilization <= 1.0:
            raise ConfigError("utilization must be in (0, 1]")
        return macs / (self.peak_macs_per_second * utilization)

    def allocate(self, fractions: Sequence[float]) -> List["PEArray"]:
        """Sub-arrays proportional to ``fractions``, never over-allocating.

        Normalizes fractions that sum above 1, floors the proportional
        shares, hands leftover PEs to the largest remainders, and
        guarantees ``sum(counts) <= num_pes``. Every sub-array gets at
        least one PE (a zero-fraction branch idles on it), so more
        sub-arrays than PEs is unsatisfiable and raises.
        """
        shares = np.maximum(np.asarray(fractions, dtype=np.float64), 0.0)
        if shares.size > self.num_pes:
            raise ConfigError(
                f"cannot allocate {shares.size} sub-arrays from "
                f"{self.num_pes} PEs (minimum one PE each)"
            )
        total = shares.sum()
        if total > 1.0:
            shares = shares / total
        raw = shares * self.num_pes
        counts = np.maximum(np.floor(raw).astype(np.int64), 1)
        leftover = self.num_pes - counts.sum()
        if leftover > 0 and total >= 1.0:
            order = np.argsort(-(raw - np.floor(raw)))
            for i in range(int(leftover)):
                counts[order[i % len(counts)]] += 1
        while counts.sum() > self.num_pes and counts.max() > 1:
            counts[int(np.argmax(counts))] -= 1
        return [PEArray(int(c), self.clock_hz) for c in counts]
