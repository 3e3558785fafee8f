"""Accelerator substrate: memory, PEs, energy, workloads, platform models.

This package is the paper's "hardware level" built as an analytic simulator:
structural facts measured from the (GCoD-trained) graph — nnz splits,
subgraph balance, format footprints, empty columns — are turned into
latency, off-chip traffic, bandwidth, and energy through the documented
constants in :mod:`repro.hardware.units`.
"""

from repro.hardware.memory import Buffer, OffChipMemory
from repro.hardware.pe import PEArray
from repro.hardware.budget import (
    AreaPowerModel,
    BudgetEstimate,
    DEFAULT_TECH_NODE_NM,
    TECH_NODES,
    TechNode,
    get_tech_node,
)
from repro.hardware.energy import EnergyBreakdown, EnergyModel
from repro.hardware.dataflow import (
    PipelineChoice,
    pipeline_characteristics,
    select_pipeline,
)
from repro.hardware.workload import (
    AdjacencyProfile,
    GCNWorkload,
    LayerSpec,
    adjacency_profile,
    extract_workload,
    layer_specs,
)
from repro.hardware.functional import (
    ExecutionTrace,
    execute_gcn,
    execute_layer,
    reference_gcn,
)
from repro.hardware.event_sim import (
    EventDrivenAggregator,
    EventSimReport,
    WorkTile,
    simulate_aggregation,
    tiles_from_profile,
    tiles_from_workload,
)
from repro.hardware.accelerators import (
    Accelerator,
    AcceleratorReport,
    AWBGCN,
    DeepburningGL,
    GCoDAccelerator,
    HyGCN,
    SoftwarePlatform,
    all_platforms,
    system_configurations,
)
from repro.hardware.pipeline import (
    PipelineSettings,
    WorkloadGraph,
    WorkloadGraphReport,
    WorkloadNode,
    evaluate_workload,
    parse_workload,
    slice_workload,
    workload_from_json,
)

__all__ = [
    "Buffer",
    "OffChipMemory",
    "PEArray",
    "AreaPowerModel",
    "BudgetEstimate",
    "DEFAULT_TECH_NODE_NM",
    "TECH_NODES",
    "TechNode",
    "get_tech_node",
    "EnergyBreakdown",
    "EnergyModel",
    "PipelineChoice",
    "pipeline_characteristics",
    "select_pipeline",
    "AdjacencyProfile",
    "GCNWorkload",
    "LayerSpec",
    "adjacency_profile",
    "extract_workload",
    "layer_specs",
    "ExecutionTrace",
    "execute_gcn",
    "execute_layer",
    "reference_gcn",
    "EventDrivenAggregator",
    "EventSimReport",
    "WorkTile",
    "simulate_aggregation",
    "tiles_from_profile",
    "tiles_from_workload",
    "Accelerator",
    "AcceleratorReport",
    "AWBGCN",
    "DeepburningGL",
    "GCoDAccelerator",
    "HyGCN",
    "SoftwarePlatform",
    "all_platforms",
    "system_configurations",
    "PipelineSettings",
    "WorkloadGraph",
    "WorkloadGraphReport",
    "WorkloadNode",
    "evaluate_workload",
    "parse_workload",
    "slice_workload",
    "workload_from_json",
]
