"""Physical constants and calibration factors for the hardware models.

Every number that turns *structural* facts (MAC counts, byte counts,
measured workload balance) into *physical* estimates (seconds, joules)
lives here, so the calibration surface is one documented file.

Energy constants follow the usual Horowitz-style scaling, calibrated at
the 16 nm reference node (the paper's VCU128 is 16 nm FinFET): an
off-chip access costs ~2 orders of magnitude more than a MAC, on-chip
SRAM sits in between. :mod:`repro.hardware.budget` scales the *logic and
SRAM* constants to other technology nodes; DRAM interface energy is
board-level and does not scale with the logic node. Software-efficiency factors for the
PyG/DGL baselines are calibrated once against the ratios the paper reports
(e.g. AWB-GCN ~1000x PyG-CPU on Cora, DGL-CPU ~15x PyG-CPU) and then left
alone; every GCoD result is produced by the model, not fitted.
"""

# ---------------------------------------------------------------------------
# the GCoD platform (Tab. V)
# ---------------------------------------------------------------------------
#: PE counts per precision: quantization cuts the bandwidth per MAC,
#: affording 2.5x the PEs.
DEFAULT_PES = {32: 4096, 8: 10240}
#: The GCoD clock, the same for every variant.
GCOD_CLOCK_HZ = 330e6

# ---------------------------------------------------------------------------
# energy per operation (picojoules)
# ---------------------------------------------------------------------------
MAC32_PJ = 3.1  # 32-bit fixed-point multiply-accumulate
MAC8_PJ = 0.4  # 8-bit MAC (GCoD 8-bit variant)
SRAM_PJ_PER_BYTE = 1.5  # on-chip buffer access
HBM_PJ_PER_BYTE = 56.0  # ~7 pJ/bit, HBM2-class
DDR_PJ_PER_BYTE = 160.0  # ~20 pJ/bit, DDR4-class
GDDR_PJ_PER_BYTE = 96.0  # GDDR6-class

#: bytes per value at the two precisions the paper evaluates
BYTES_FP32 = 4
BYTES_INT8 = 1

# ---------------------------------------------------------------------------
# area / power calibration (16 nm reference; see repro.hardware.budget)
# ---------------------------------------------------------------------------
#: silicon area of one MAC PE (mm^2) per precision — an 8-bit PE is
#: roughly a quarter of a 32-bit one (multiplier area goes ~bits^2).
PE_AREA_MM2 = {32: 0.0024, 8: 0.0006}
#: on-chip SRAM density (mm^2 per MB), 16nm-class macro cells
SRAM_MM2_PER_MB = 0.45
#: floorplan overhead for NoC, controllers, and the HBM PHY on top of the
#: raw PE + SRAM area
AREA_OVERHEAD = 1.25
#: average PE switching activity at TDP (fraction of cycles a PE fires a
#: MAC); derates peak dynamic power the way a thermal design point does
PE_ACTIVITY = 0.55
#: SRAM power per MB (leakage + refresh-equivalent dynamic), watts
SRAM_W_PER_MB = 0.012
#: HBM PHY + controller power (board-level, not logic-node scaled), watts
HBM_PHY_W = 1.5
#: static/clock-tree overhead on top of the summed component powers
STATIC_POWER_OVERHEAD = 1.1

# ---------------------------------------------------------------------------
# software-platform calibration (fractions of peak throughput achieved)
# ---------------------------------------------------------------------------
# Dense GEMM efficiency: how much of peak FLOPs a framework reaches on the
# combination phase. SpMM efficiency: same for the (irregular) aggregation
# phase; these are tiny on CPUs/GPUs, which is the entire motivation for
# dedicated GCN accelerators (Sec. I quotes 2.94e5 ms for Reddit on a Xeon).
SW_EFFICIENCY = {
    "pyg-cpu": {"gemm": 0.050, "spmm": 0.00025, "overhead_s": 0.5e-3},
    "dgl-cpu": {"gemm": 0.350, "spmm": 0.00400, "overhead_s": 0.2e-3},
    "pyg-gpu": {"gemm": 0.200, "spmm": 0.00180, "overhead_s": 20e-6},
    "dgl-gpu": {"gemm": 0.150, "spmm": 0.00100, "overhead_s": 30e-6},
}

# ---------------------------------------------------------------------------
# accelerator utilization calibration
# ---------------------------------------------------------------------------
# HyGCN: gathered aggregation with window sliding; SIMD lanes idle on short
# neighbour lists, so aggregation utilization is low; systolic combination
# is efficient. Locality of gathered feature fetches (fraction served by the
# on-chip window cache).
HYGCN_AGG_UTILIZATION = 0.75
HYGCN_COMB_UTILIZATION = 0.80
HYGCN_GATHER_HIT_RATE = 0.92

# AWB-GCN: distributed aggregation with runtime autotuned rebalancing.
# Utilization after autotuning is good but rebalancing itself stalls the
# array a little and the first iterations run imbalanced; the power-law
# row-length skew also hurts its combination-phase SpMM.
AWB_AGG_UTILIZATION = 0.68
AWB_COMB_UTILIZATION = 0.70
AWB_REBALANCE_OVERHEAD = 0.12  # fraction of cycles spent autotuning

# Deepburning-GL: automatically generated, generic dataflow; no workload
# balancing at all.
DEEPBURNING_UTILIZATION = 0.45

# GCoD: denser-branch utilization is *measured* (subgraph balance) times a
# small static-scheduling efficiency; the sparser branch overlaps with it.
GCOD_STATIC_SCHEDULE_EFF = 0.95
# Ablation: a single undifferentiated branch (two_pronged=False) faces the
# full power-law imbalance with no chunking and no autotuning — utilization
# sits between HyGCN's SIMD lanes and AWB-GCN's autotuned array.
GCOD_SINGLE_BRANCH_UTILIZATION = 0.50
GCOD_WEIGHT_FORWARD_RATE = 0.63  # Sec. V-B: ~63% of sparser-branch weights
GCOD_SYNC_OVERHEAD = 0.03  # output synchronization between branches
