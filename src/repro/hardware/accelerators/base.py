"""Common report structure and base class for all platform models."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.energy import EnergyBreakdown
from repro.hardware.workload import GCNWorkload


@dataclass
class PhaseStats:
    """Cost of one execution phase (combination or aggregation)."""

    seconds: float = 0.0
    macs: float = 0.0
    onchip_bytes: float = 0.0
    offchip_bytes: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    #: off-chip bytes that must move *during* the phase (working sets that
    #: do not stay resident on-chip, spills, gather misses, re-walks); this
    #: is what the Fig. 11a "bandwidth requirement" metric divides by time.
    streamed_bytes: float = 0.0

    def __add__(self, other: "PhaseStats") -> "PhaseStats":
        return PhaseStats(
            self.seconds + other.seconds,
            self.macs + other.macs,
            self.onchip_bytes + other.onchip_bytes,
            self.offchip_bytes + other.offchip_bytes,
            self.energy + other.energy,
            self.streamed_bytes + other.streamed_bytes,
        )


@dataclass
class AcceleratorReport:
    """One platform's cost of one full inference of one workload."""

    platform: str
    workload: str
    combination: PhaseStats
    aggregation: PhaseStats
    latency_s: float  # may be < sum of phases when phases pipeline
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def offchip_bytes(self) -> float:
        """Total off-chip traffic."""
        return self.combination.offchip_bytes + self.aggregation.offchip_bytes

    @property
    def total_macs(self) -> float:
        """Total MACs executed."""
        return self.combination.macs + self.aggregation.macs

    @property
    def energy(self) -> EnergyBreakdown:
        """Total energy."""
        return self.combination.energy + self.aggregation.energy

    @property
    def streamed_bytes(self) -> float:
        """Latency-visible off-chip traffic (steady-state streams)."""
        return self.combination.streamed_bytes + self.aggregation.streamed_bytes

    @property
    def required_bandwidth_gbps(self) -> float:
        """Off-chip bandwidth needed to sustain this latency (Fig. 11a)."""
        return self.streamed_bytes / max(self.latency_s, 1e-30) / 1e9

    def speedup_over(self, other: "AcceleratorReport") -> float:
        """Latency ratio other/self (how much faster this platform is)."""
        return other.latency_s / max(self.latency_s, 1e-30)


class Accelerator(ABC):
    """A platform model: costs a :class:`GCNWorkload` analytically."""

    name: str = "accelerator"

    @abstractmethod
    def run(self, workload: GCNWorkload) -> AcceleratorReport:
        """Estimate latency / traffic / energy of one inference."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
