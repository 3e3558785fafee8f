"""Accelerator substrate: memory, PEs, energy, workloads, platform models.

This package is the paper's "hardware level" built as an analytic simulator:
structural facts measured from the (GCoD-trained) graph — nnz splits,
subgraph balance, format footprints, empty columns — are turned into
latency, off-chip traffic, bandwidth, and energy through the documented
constants in :mod:`repro.hardware.units`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".memory": ("Buffer", "OffChipMemory"),
    ".pe": ("PEArray",),
    ".budget": ("AreaPowerModel", "BudgetEstimate", "DEFAULT_TECH_NODE_NM",
                "TECH_NODES", "TechNode", "get_tech_node"),
    ".energy": ("EnergyBreakdown", "EnergyModel"),
    ".dataflow": ("PipelineChoice", "pipeline_characteristics",
                  "select_pipeline"),
    ".workload": ("AdjacencyProfile", "GCNWorkload", "LayerSpec",
                  "adjacency_profile", "extract_workload", "layer_specs"),
    ".functional": ("ExecutionTrace", "execute_gcn", "execute_layer",
                    "reference_gcn"),
    ".event_sim": ("EventDrivenAggregator", "EventSimReport", "WorkTile",
                   "simulate_aggregation", "tiles_from_profile",
                   "tiles_from_workload"),
    ".accelerators": ("Accelerator", "AcceleratorReport", "AWBGCN",
                      "DeepburningGL", "GCoDAccelerator", "HyGCN",
                      "SoftwarePlatform", "all_platforms",
                      "system_configurations"),
    ".pipeline": ("PipelineSettings", "WorkloadGraph", "WorkloadGraphReport",
                  "WorkloadNode", "evaluate_workload", "parse_workload",
                  "slice_workload", "workload_from_json"),
})
