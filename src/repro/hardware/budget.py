"""Area / power / technology-node budget models for constrained DSE.

The sweep engine grids over *what the accelerator does* (PE count,
precision, buffer split); a budget-constrained search — the Lumos-style
question the ROADMAP names — additionally needs *what it costs to build*:
silicon area (mm^2) and a thermal design power (W), both as functions of
the technology node the design is synthesized at.

:class:`AreaPowerModel` turns the structural configuration (PE-array
size, on-chip capacity, precision) into those estimates through the
documented 16 nm-reference constants in :mod:`repro.hardware.units`,
scaled by :class:`TechNode` factors for 7/16/28 nm. The same
``energy_scale`` threads into :class:`~repro.hardware.energy.EnergyModel`
so per-inference joules and TDP move together when the ``tech_node``
sweep axis varies.

Scaling policy (deliberately conservative):

* logic and SRAM **area** scale with the node's transistor density;
* logic and SRAM **dynamic energy** scale with the node's switching
  energy;
* the **clock stays at 330 MHz** across nodes — latency and speedup are
  node-invariant, so frontiers trade energy/area/power against the same
  performance numbers the paper reports;
* **DRAM interface** energy and PHY power are board-level and do not
  scale with the logic node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.hardware import units


@dataclass(frozen=True)
class TechNode:
    """One logic technology node: scale factors relative to 16 nm."""

    nm: int
    #: transistor-density factor: mm^2 at this node / mm^2 at 16 nm.
    area_scale: float
    #: switching-energy factor: pJ at this node / pJ at 16 nm.
    energy_scale: float


#: The supported nodes. 16 nm is the reference (VCU128-class FinFET), so
#: every default stays byte-identical to the pre-budget model; 7 nm and
#: 28 nm follow published density/energy scaling trends.
TECH_NODES: Dict[int, TechNode] = {
    7: TechNode(7, area_scale=0.36, energy_scale=0.55),
    16: TechNode(16, area_scale=1.0, energy_scale=1.0),
    28: TechNode(28, area_scale=2.60, energy_scale=1.85),
}

#: The node every model uses unless a sweep says otherwise.
DEFAULT_TECH_NODE_NM = 16


def get_tech_node(nm: int) -> TechNode:
    """The :class:`TechNode` for ``nm``, or a usage error naming the set."""
    try:
        return TECH_NODES[int(nm)]
    except (KeyError, TypeError, ValueError):
        known = ", ".join(str(n) for n in sorted(TECH_NODES))
        raise ConfigError(
            f"unknown tech node {nm!r}; choose from {known} (nm)"
        ) from None


@dataclass(frozen=True)
class BudgetEstimate:
    """Area/power breakdown of one accelerator configuration."""

    area_mm2: float
    tdp_w: float
    pe_area_mm2: float
    sram_area_mm2: float
    pe_power_w: float
    sram_power_w: float
    dram_power_w: float

    def to_summary_dict(self) -> Dict[str, float]:
        return {
            "area_mm2": round(self.area_mm2, 4),
            "tdp_w": round(self.tdp_w, 4),
        }


class AreaPowerModel:
    """Converts an accelerator's structure into area and TDP estimates."""

    def __init__(self, tech_node: int = DEFAULT_TECH_NODE_NM):
        self.tech = get_tech_node(tech_node)

    def estimate(
        self,
        bits: int,
        num_pes: int,
        onchip_bytes: float,
        clock_hz: Optional[float] = None,
    ) -> BudgetEstimate:
        """Area (mm^2) and TDP (W) of a ``num_pes``-PE design at ``bits``.

        Area is raw PE + SRAM silicon times the floorplan overhead;
        TDP is PE dynamic power at the thermal-design activity factor,
        plus SRAM and the (node-invariant) HBM PHY, times the static
        overhead. ``clock_hz`` defaults to :data:`units.GCOD_CLOCK_HZ`.
        """
        if clock_hz is None:
            clock_hz = units.GCOD_CLOCK_HZ
        if bits not in units.PE_AREA_MM2:
            known = ", ".join(str(b) for b in sorted(units.PE_AREA_MM2))
            raise ConfigError(
                f"unknown precision {bits!r} for the area/power model; "
                f"choose from {known} (bits)"
            )
        if num_pes < 1:
            raise ConfigError(f"num_pes must be >= 1, got {num_pes!r}")
        mb = onchip_bytes / 2**20
        pe_area = num_pes * units.PE_AREA_MM2[bits] * self.tech.area_scale
        sram_area = mb * units.SRAM_MM2_PER_MB * self.tech.area_scale
        area = (pe_area + sram_area) * units.AREA_OVERHEAD

        mac_pj = units.MAC8_PJ if bits <= 8 else units.MAC32_PJ
        pe_power = (
            num_pes * clock_hz * units.PE_ACTIVITY
            * mac_pj * self.tech.energy_scale * 1e-12
        )
        sram_power = mb * units.SRAM_W_PER_MB * self.tech.energy_scale
        dram_power = units.HBM_PHY_W
        tdp = (pe_power + sram_power + dram_power) * \
            units.STATIC_POWER_OVERHEAD
        return BudgetEstimate(
            area_mm2=area,
            tdp_w=tdp,
            pe_area_mm2=pe_area,
            sram_area_mm2=sram_area,
            pe_power_w=pe_power,
            sram_power_w=sram_power,
            dram_power_w=dram_power,
        )


__all__ = (
    "AreaPowerModel",
    "BudgetEstimate",
    "DEFAULT_TECH_NODE_NM",
    "TECH_NODES",
    "TechNode",
    "get_tech_node",
)
