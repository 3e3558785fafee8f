"""The GCoD two-pronged accelerator model (Sec. V, Fig. 6).

Configuration per Tab. V: a VCU128-class device — 4096 PEs at 330 MHz,
42 MB of on-chip memory (9 MB BRAM + 33 MB URAM), 460 GB/s HBM. The 8-bit
variant affords 10240 PEs because quantization cuts the bandwidth per MAC.

What the model does, mirroring the architecture:

* **resource allocation** — PEs and bandwidth are split between the denser
  branch's chunks (one per degree class) and the single sparser-branch
  sub-accelerator *proportional to their MAC counts*, exactly the paper's
  complexity-proportional allocation;
* **denser branch** — processes the diagonal subgraph blocks; utilization is
  the *measured* subgraph balance times a static-scheduling efficiency (no
  runtime autotuning needed); block-local COO inputs stream once and
  block-local outputs stay on-chip;
* **sparser branch** — holds the off-diagonal CSC on-chip when it fits
  (re-streaming it per feature tile otherwise, the resource-aware spill);
  ~63% of its weight reads are served by query-based forwarding from the
  denser chunks' weight buffers; fully-empty columns (structural sparsity)
  are skipped;
* the two branches run concurrently — aggregation latency is their max plus
  an output-synchronization overhead — and combination pipelines into
  aggregation per layer (Fig. 7).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware import units
from repro.hardware.accelerators.base import Accelerator, AcceleratorReport, PhaseStats
from repro.hardware.budget import (
    DEFAULT_TECH_NODE_NM,
    AreaPowerModel,
    BudgetEstimate,
)
from repro.hardware.dataflow import select_pipeline
from repro.hardware.energy import EnergyModel
from repro.hardware.memory import Buffer, OffChipMemory
from repro.hardware.pe import PEArray
from repro.hardware.units import DEFAULT_PES, GCOD_CLOCK_HZ
from repro.hardware.workload import GCNWorkload, LayerSpec


def gcod_pe_count(bits: int, hw_scale: float = 1.0) -> int:
    """PEs of the GCoD variant at ``bits``: Tab. V's count times the
    sweep's ``hw_scale`` multiplier, at least one. The workload-DAG
    evaluator's shared array and the sweep's platform variant both read
    it."""
    return max(1, int(round(DEFAULT_PES[bits] * hw_scale)))


class GCoDAccelerator(Accelerator):
    """Analytic model of the GCoD accelerator (32-bit or 8-bit variant)."""

    def __init__(
        self,
        bits: int = 32,
        num_pes: Optional[int] = None,
        weight_forward_rate: Optional[float] = None,
        two_pronged: bool = True,
        measured_trace=None,
        tech_node: int = DEFAULT_TECH_NODE_NM,
    ):
        """``weight_forward_rate`` overrides the ~63% query-forwarding rate
        (0.0 disables forwarding — the ablation knob); ``two_pronged=False``
        runs everything through a single undifferentiated branch (treats all
        nnz as sparser workload), isolating the architecture contribution.

        ``measured_trace`` (an :class:`~repro.hardware.functional.ExecutionTrace`
        from the functional emulator) replaces the assumed forwarding-rate
        and chunk-balance constants with quantities measured on the actual
        schedule; an explicit ``weight_forward_rate`` still wins.
        """
        if bits not in (8, 32):
            raise ValueError("GCoD supports 32-bit and 8-bit variants")
        if weight_forward_rate is not None and not 0.0 <= weight_forward_rate <= 1.0:
            raise ValueError("weight_forward_rate must be in [0, 1]")
        self.measured_trace = measured_trace
        if weight_forward_rate is not None:
            self.weight_forward_rate = weight_forward_rate
        elif measured_trace is not None:
            self.weight_forward_rate = measured_trace.forward_rate
        else:
            self.weight_forward_rate = units.GCOD_WEIGHT_FORWARD_RATE
        self.two_pronged = two_pronged
        self.bits = bits
        self.bytes_per_value = 1 if bits == 8 else 4
        self.pes = PEArray(num_pes or DEFAULT_PES[bits], GCOD_CLOCK_HZ)
        self.memory = OffChipMemory("hbm", 460.0)
        onchip_total = 42 * 2**20
        # Fixed split of the 42 MB: output accumulators, feature/weight
        # buffers, and the sparser branch's resident CSC adjacency.
        self.output_buffer = Buffer("obuf", int(onchip_total * 0.40))
        self.feature_buffer = Buffer("fbuf", int(onchip_total * 0.30))
        self.adjacency_buffer = Buffer("abuf", int(onchip_total * 0.30))
        self.name = "gcod-8bit" if bits == 8 else "gcod"
        # The technology node scales silicon cost (area, TDP, on-die
        # energy) but not the clock: latency is node-invariant, so budget
        # frontiers trade cost against the same performance numbers.
        self.tech_node = tech_node
        self._energy = EnergyModel(
            bits=bits, memory_kind="hbm", tech_node=tech_node
        )

    @property
    def onchip_capacity_bytes(self) -> int:
        """Total on-chip buffer capacity (the 42 MB split's sum)."""
        return (
            self.output_buffer.capacity_bytes
            + self.feature_buffer.capacity_bytes
            + self.adjacency_buffer.capacity_bytes
        )

    def budget(self) -> BudgetEstimate:
        """Area/TDP estimate of this exact configuration at its node."""
        return AreaPowerModel(self.tech_node).estimate(
            bits=self.bits,
            num_pes=self.pes.num_pes,
            onchip_bytes=self.onchip_capacity_bytes,
            clock_hz=self.pes.clock_hz,
        )

    # ------------------------------------------------------------------
    def run(self, workload: GCNWorkload) -> AcceleratorReport:
        """Cost one inference on the two-pronged accelerator."""
        adj = workload.adjacency
        bpv = self.bytes_per_value
        comb = PhaseStats()
        agg = PhaseStats()
        latency = 0.0
        notes: Dict[str, float] = {}

        # ----- complexity-proportional PE allocation (Sec. V-B) -----------
        if self.two_pronged:
            dense_nnz = max(adj.dense_nnz, 0)
            sparse_nnz = max(adj.sparse_nnz, 0)
        else:
            # Ablation: single-branch design sees one undivided workload.
            dense_nnz, sparse_nnz = 0, max(adj.nnz, 0)
        total_nnz = max(dense_nnz + sparse_nnz, 1)
        sparse_frac = sparse_nnz / total_nnz
        # Clamp only branches that carry workload (the single-branch
        # ablation must not grant the dense branch a courtesy 5%), then let
        # the allocator normalize so the splits sum to <= the PE array.
        dense_share = max(1.0 - sparse_frac, 0.05) if dense_nnz else 0.0
        sparse_share = max(sparse_frac, 0.05) if sparse_nnz else 0.0
        dense_pes, sparse_pes = self.pes.allocate([dense_share, sparse_share])
        notes["dense_pe_fraction"] = dense_pes.num_pes / self.pes.num_pes
        notes["num_chunks"] = float(max(adj.num_classes, 1))

        # The sparser branch's CSC stays resident across layers if it fits.
        csc_resident = self.adjacency_buffer.fits(adj.csc_bytes)
        csc_loaded = False
        notes["csc_resident"] = float(csc_resident)

        for layer in workload.layers:
            comb_s, comb_stats = self._combination(workload, layer)
            comb += comb_stats
            agg_s = 0.0
            if layer.aggregate:
                agg_s, agg_stats, pipeline = self._aggregation(
                    workload, layer, dense_pes, sparse_pes,
                    csc_resident, csc_loaded,
                    dense_nnz, sparse_nnz,
                )
                csc_loaded = True
                agg += agg_stats
                notes[f"pipeline_{layer.f_in}x{layer.f_out}"] = float(
                    pipeline == "efficiency-aware"
                )
            # Efficiency/resource-aware pipelines overlap the two phases.
            latency += max(comb_s, agg_s)

        return AcceleratorReport(
            platform=self.name,
            workload=workload.name,
            combination=comb,
            aggregation=agg,
            latency_s=latency,
            notes=notes,
        )

    # ------------------------------------------------------------------
    def _combination(self, workload: GCNWorkload, layer: LayerSpec):
        """Combination phase: sparse-aware SpMM across all sub-accelerators."""
        bpv = self.bytes_per_value
        macs = workload.comb_macs(layer, sparse_aware=True)
        # Sparse input features carry index overhead (COO); hidden layers
        # are dense but quantized widths shrink every stream.
        x_bytes = int(
            workload.num_nodes * layer.f_in
            * min(1.0, layer.x_density * 2) * bpv
        )
        w_bytes = int(layer.f_in * layer.f_out * layer.comb_multiplier * bpv)
        # Outputs feed aggregation on-chip; only the final layer's logits
        # leave the chip, which we fold into the aggregation write below.
        traffic = x_bytes + w_bytes
        # Features that fit the feature buffer stay warm across inferences;
        # oversized feature matrices stream every time (NELL/Reddit scale).
        streamed = 0.0 if self.feature_buffer.fits(x_bytes) else float(x_bytes)
        seconds = max(
            self.pes.compute_seconds(macs, units.GCOD_STATIC_SCHEDULE_EFF),
            self.memory.transfer_seconds(streamed),
        )
        stats = PhaseStats(
            seconds=seconds,
            macs=macs,
            onchip_bytes=traffic + macs * bpv,
            offchip_bytes=traffic,
            energy=self._energy.energy(macs, traffic + macs * bpv, traffic),
            streamed_bytes=streamed,
        )
        return seconds, stats

    # ------------------------------------------------------------------
    def _aggregation(
        self,
        workload: GCNWorkload,
        layer: LayerSpec,
        dense_pes: PEArray,
        sparse_pes: PEArray,
        csc_resident: bool,
        csc_loaded: bool,
        dense_nnz: int,
        sparse_nnz: int,
    ):
        """Aggregation phase: denser and sparser branches in parallel."""
        adj = workload.adjacency
        bpv = self.bytes_per_value
        dim = layer.aggregation_dim
        dense_fraction = dense_nnz / max(dense_nnz + sparse_nnz, 1)
        out_bytes = workload.num_nodes * dim * bpv

        pipeline = select_pipeline(
            workload.num_nodes, dim, bpv, self.output_buffer.capacity_bytes
        )

        # --------------- denser branch: one chunk per class ---------------
        dense_macs = dense_nnz * dim
        # Chunk balance: measured from an executed schedule when a trace was
        # supplied, otherwise the layout's static estimate.
        balance = (
            self.measured_trace.chunk_balance()
            if self.measured_trace is not None
            else adj.class_balance
        )
        dense_util = max(0.05, balance * units.GCOD_STATIC_SCHEDULE_EFF)
        dense_compute_s = (
            dense_pes.compute_seconds(dense_macs, dense_util)
            if dense_macs
            else 0.0
        )
        # Block-local COO streams once; features arrive from the pipelined
        # combination (on-chip); block outputs accumulate on-chip and are
        # written out once.
        dense_coo_bytes = adj.coo_bytes * (bpv + 8) // 12  # value width scales
        dense_out_write = out_bytes * dense_fraction
        dense_offchip = dense_coo_bytes + dense_out_write
        # Both components are compulsory single streams -> prefetch-
        # overlapped; the denser branch is compute-bound by construction.
        dense_s = dense_compute_s

        # --------------- sparser branch: CSC + weight forwarding ----------
        sparse_macs = sparse_nnz * dim
        # Structural sparsity empties whole columns, which are skipped.
        skip_boost = 1.0 + 0.5 * adj.skipped_col_fraction
        if self.two_pronged:
            sparse_util = min(0.95, 0.85 * skip_boost)
            forward_rate = self.weight_forward_rate
        else:
            # Single-branch ablation: no chunk balance to exploit and no
            # denser-branch weight buffers to forward from.
            sparse_util = units.GCOD_SINGLE_BRANCH_UTILIZATION
            forward_rate = 0.0
        sparse_compute_s = (
            sparse_pes.compute_seconds(sparse_macs, sparse_util)
            if sparse_macs
            else 0.0
        )
        # Adjacency: resident CSC is fetched once ever; otherwise it is
        # re-streamed once per feature tile (resource-aware re-walks).
        csc_bytes_scaled = adj.csc_bytes * (bpv + 4) // 8
        if csc_resident:
            a_offchip = 0 if csc_loaded else csc_bytes_scaled
            a_rewalk_bytes = 0.0  # re-walks hit the on-chip copy
        else:
            a_offchip = csc_bytes_scaled * pipeline.adjacency_rewalks
            a_rewalk_bytes = csc_bytes_scaled * max(
                pipeline.adjacency_rewalks - 1, 0
            )
        # Weights (rows of XW): ~63% forwarded from denser chunks' WBufs;
        # the remainder are re-reads from off-chip and cost latency.
        nonempty_cols = adj.num_nodes * (1.0 - adj.skipped_col_fraction)
        weight_bytes = nonempty_cols * dim * bpv
        forwarded = weight_bytes * forward_rate
        weight_offchip = weight_bytes - forwarded
        sparse_out_write = out_bytes * (1.0 - dense_fraction)
        sparse_offchip = a_offchip + weight_offchip + sparse_out_write
        latency_bytes = a_rewalk_bytes + weight_offchip
        sparse_s = max(
            sparse_compute_s, self.memory.transfer_seconds(latency_bytes)
        )

        # Branches run concurrently; outputs synchronize at the end.
        seconds = max(dense_s, sparse_s) * (1.0 + units.GCOD_SYNC_OVERHEAD)
        macs = dense_macs + sparse_macs
        onchip = (
            dense_macs * bpv  # chunk-local accumulations
            + sparse_macs * bpv
            + forwarded  # forwarded weights move buffer-to-buffer
            + csc_bytes_scaled * (pipeline.adjacency_rewalks if csc_resident else 0)
        )
        offchip = dense_offchip + sparse_offchip
        stats = PhaseStats(
            seconds=seconds,
            macs=macs,
            onchip_bytes=onchip,
            offchip_bytes=offchip,
            energy=self._energy.energy(macs, onchip, offchip),
            streamed_bytes=latency_bytes,
        )
        return seconds, stats, pipeline.name


def branch_characteristics() -> List[dict]:
    """Tab. I, as data: denser vs sparser branch properties."""
    return [
        {
            "branch": "w/o GCoD",
            "multi_chunks": "no",
            "onchip_storage": "high",
            "offchip_access": "high",
            "arch_reuse": "no",
            "data_reuse": "no",
            "workloads": "heavy & imbalanced",
        },
        {
            "branch": "GCoD denser",
            "multi_chunks": "yes",
            "onchip_storage": "low",
            "offchip_access": "low",
            "arch_reuse": "yes",
            "data_reuse": "yes",
            "workloads": "balanced",
        },
        {
            "branch": "GCoD sparser",
            "multi_chunks": "no",
            "onchip_storage": "high",
            "offchip_access": "low",
            "arch_reuse": "yes",
            "data_reuse": "yes",
            "workloads": "light",
        },
    ]
