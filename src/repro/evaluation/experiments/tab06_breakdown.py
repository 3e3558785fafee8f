"""Tab. VI: speedup breakdown — accelerator alone, + sparsification, + quant.

Rows (speedups over PyG-CPU, GCN model):
* AWB-GCN (baseline accelerator on the untreated graph);
* GCoD accelerator on the *partitioned but unpruned* graph (architecture
  contribution only);
* GCoD accelerator with sparsification (the full algorithm's graph);
* GCoD with sparsification and 8-bit quantization.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.context import (
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.runtime.registry import register_experiment

DATASETS = ("cora", "citeseer", "pubmed", "nell", "reddit")


def run(
    context: Optional[EvalContext] = None,
    datasets: Sequence[str] = DATASETS,
) -> ExperimentResult:
    """Reproduce Tab. VI."""
    import numpy as np

    context = context or default_context()
    plats = context.platforms()
    methods = ("awb-gcn", "gcod accel.", "gcod accel. w/ sp",
               "gcod accel. w/ sp & quant")
    table = {m: [] for m in methods}
    for dataset in datasets:
        wl_base = context.baseline_workload(dataset, "gcn")
        cpu = plats["pyg-cpu"].run(wl_base).latency_s
        awb = plats["awb-gcn"].run(wl_base).latency_s
        accel_only = plats["gcod"].run(
            context.gcod_workload(dataset, "gcn", stage="partitioned")
        ).latency_s
        with_sp = plats["gcod"].run(
            context.gcod_workload(dataset, "gcn", stage="final")
        ).latency_s
        with_quant = plats["gcod-8bit"].run(
            context.gcod_workload(dataset, "gcn", stage="final")
        ).latency_s
        table["awb-gcn"].append(cpu / awb)
        table["gcod accel."].append(cpu / accel_only)
        table["gcod accel. w/ sp"].append(cpu / with_sp)
        table["gcod accel. w/ sp & quant"].append(cpu / with_quant)

    rows = [
        (method,) + tuple(round(v, 0) for v in values)
        for method, values in table.items()
    ]
    accel_vs_awb = np.mean(
        [a / b for a, b in zip(table["gcod accel."], table["awb-gcn"])]
    )
    sp_gain = np.mean(
        [a / b for a, b in zip(table["gcod accel. w/ sp"], table["gcod accel."])]
    )
    quant_gain = np.mean(
        [
            a / b
            for a, b in zip(
                table["gcod accel. w/ sp & quant"], table["gcod accel. w/ sp"]
            )
        ]
    )
    summary = (
        f"two-pronged accelerator alone: {accel_vs_awb:.2f}x over AWB-GCN "
        f"(paper: 2.29x); sparsification adds {sp_gain:.2f}x (paper: 1.09x); "
        f"8-bit adds {quant_gain:.2f}x (paper: 2.02x)."
    )
    return ExperimentResult(
        name="Tab. VI: speedup breakdown over PyG-CPU (GCN)",
        headers=("method",) + tuple(datasets),
        rows=rows,
        extra_text=summary,
    )

SPEC = register_experiment(
    name="tab06",
    title="Tab. VI — speedup breakdown",
    runner=run,
    gcod_deps=tuple((ds, "gcn") for ds in DATASETS),
    order=90,
)
