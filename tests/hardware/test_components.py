"""Memory, PE, energy, and dataflow component tests."""

import pytest

from repro.errors import ConfigError
from repro.hardware import (
    Buffer,
    EnergyBreakdown,
    EnergyModel,
    OffChipMemory,
    PEArray,
    pipeline_characteristics,
    select_pipeline,
)


def test_buffer_fits_and_reload():
    buf = Buffer("test", 1000)
    assert buf.fits(1000)
    assert not buf.fits(1001)
    assert buf.reload_factor(500) == 1
    assert buf.reload_factor(1001) == 2
    assert buf.reload_factor(0) == 1


def test_buffer_traffic_accounting():
    buf = Buffer("test", 100)
    buf.read(30)
    buf.write(20)
    assert buf.total_traffic == 50


def test_buffer_rejects_negative_capacity():
    with pytest.raises(ConfigError):
        Buffer("bad", -1)


def test_offchip_transfer_time():
    mem = OffChipMemory("hbm", 460.0)
    assert mem.transfer_seconds(460e9) == pytest.approx(1.0)


def test_offchip_energy_order():
    hbm = OffChipMemory("hbm", 100.0)
    ddr = OffChipMemory("ddr", 100.0)
    assert ddr.energy_pj(1000) > hbm.energy_pj(1000)  # DDR costs more/byte


def test_offchip_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        OffChipMemory("optane", 10.0)
    with pytest.raises(ConfigError):
        OffChipMemory("hbm", 0.0)


def test_pe_array_compute_time():
    pes = PEArray(1000, 1e9)
    assert pes.compute_seconds(1e12) == pytest.approx(1.0)
    assert pes.compute_seconds(1e12, utilization=0.5) == pytest.approx(2.0)


def test_pe_array_allocate_normalizes_overcommit():
    pes = PEArray(4096, 330e6)
    # 0.05-clamped fractions summing to 1.04 must not over-allocate.
    dense, sparse = pes.allocate([0.05, 0.99])
    assert dense.num_pes + sparse.num_pes <= 4096
    assert dense.num_pes >= 1 and sparse.num_pes >= 1


def test_pe_array_allocate_fully_assigns_exact_fractions():
    pes = PEArray(4096, 330e6)
    parts = pes.allocate([0.3, 0.3, 0.4])
    assert sum(p.num_pes for p in parts) == 4096


def test_pe_array_allocate_zero_fraction_gets_placeholder():
    pes = PEArray(4096, 330e6)
    idle, busy = pes.allocate([0.0, 1.0])
    assert idle.num_pes == 1
    assert idle.num_pes + busy.num_pes <= 4096


def test_pe_array_allocate_undercommit_leaves_slack():
    pes = PEArray(1000, 1e9)
    a, b = pes.allocate([0.25, 0.25])
    assert a.num_pes == 250 and b.num_pes == 250


def test_pe_array_allocate_rejects_more_arrays_than_pes():
    with pytest.raises(ConfigError):
        PEArray(2, 1e9).allocate([0.3, 0.3, 0.4])


def test_pe_array_invalid():
    with pytest.raises(ConfigError):
        PEArray(0, 1e9)
    with pytest.raises(ConfigError):
        PEArray(8, 1e9).compute_seconds(10, utilization=0.0)


def test_energy_breakdown_addition_and_fractions():
    a = EnergyBreakdown(1.0, 2.0, 3.0)
    b = EnergyBreakdown(1.0, 0.0, 1.0)
    total = a + b
    assert total.total_j == pytest.approx(8.0)
    fr = total.fractions()
    assert fr["compute"] + fr["onchip"] + fr["offchip"] == pytest.approx(1.0)


def test_energy_model_8bit_cheaper(rng):
    e32 = EnergyModel(bits=32).energy(1e9, 1e6, 1e6)
    e8 = EnergyModel(bits=8).energy(1e9, 1e6, 1e6)
    assert e8.compute_j < e32.compute_j


def test_energy_offchip_dominates_compute_per_byte():
    e = EnergyModel(bits=32).energy(macs=1e6, onchip_bytes=0, offchip_bytes=1e6)
    assert e.offchip_j > e.compute_j  # an off-chip byte >> a MAC


def test_pipeline_selection_small_graph_efficiency():
    choice = select_pipeline(1000, 16, 4, output_buffer_capacity=10**6)
    assert choice.name == "efficiency-aware"
    assert choice.adjacency_rewalks == 1


def test_pipeline_selection_large_graph_resource():
    choice = select_pipeline(10**6, 64, 4, output_buffer_capacity=10**6)
    assert choice.name == "resource-aware"
    assert choice.adjacency_rewalks > 1
    assert choice.output_buffer_bytes <= 10**6


def test_pipeline_characteristics_table():
    rows = pipeline_characteristics()
    assert {r["pipeline"] for r in rows} == {
        "efficiency-aware", "resource-aware"
    }
