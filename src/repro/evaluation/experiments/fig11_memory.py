"""Fig. 11: (a) off-chip bandwidth requirement, (b) normalized data accesses.

(a) compares the bandwidth GCoD and GCoD (8-bit) need to sustain their
latency against HyGCN's; the paper reports GCoD needing ~48% (8-bit: ~26%)
of HyGCN's bandwidth on average.
(b) counts off-chip accesses (input features and adjacency start off-chip)
for GCoD, HyGCN, and AWB-GCN, normalized to GCoD.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.context import (
    CITATION_DATASETS,
    LARGE_DATASETS,
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.runtime.registry import register_experiment

DATASETS = CITATION_DATASETS + LARGE_DATASETS


def run(
    context: Optional[EvalContext] = None,
    datasets: Sequence[str] = DATASETS,
    arch: str = "gcn",
) -> ExperimentResult:
    """Reproduce Fig. 11 for the GCN model."""
    import numpy as np

    context = context or default_context()
    plats = context.platforms()
    rows = []
    bw_ratios = {"gcod": [], "gcod-8bit": []}
    for dataset in datasets:
        wl_base = context.baseline_workload(dataset, arch)
        wl_gcod = context.gcod_workload(dataset, arch)
        hygcn = plats["hygcn"].run(wl_base)
        awb = plats["awb-gcn"].run(wl_base)
        gcod = plats["gcod"].run(wl_gcod)
        gcod8 = plats["gcod-8bit"].run(wl_gcod)
        for name, ratio in (
            ("gcod", gcod.required_bandwidth_gbps / max(hygcn.required_bandwidth_gbps, 1e-9)),
            ("gcod-8bit", gcod8.required_bandwidth_gbps / max(hygcn.required_bandwidth_gbps, 1e-9)),
        ):
            bw_ratios[name].append(ratio)
        norm = max(gcod.offchip_bytes, 1e-9)
        rows.append(
            (
                dataset,
                round(hygcn.required_bandwidth_gbps, 1),
                round(gcod.required_bandwidth_gbps, 1),
                round(gcod8.required_bandwidth_gbps, 1),
                round(hygcn.offchip_bytes / norm, 2),
                round(awb.offchip_bytes / norm, 2),
                1.0,
                round(gcod8.offchip_bytes / norm, 2),
            )
        )
    summary = (
        f"GCoD needs {np.mean(bw_ratios['gcod']) * 100:.0f}% of HyGCN's "
        f"bandwidth on average (paper: 48%); GCoD-8bit "
        f"{np.mean(bw_ratios['gcod-8bit']) * 100:.0f}% (paper: 26%)."
    )
    return ExperimentResult(
        name="Fig. 11: bandwidth requirement (GB/s) and normalized off-chip accesses",
        headers=("dataset", "hygcn BW", "gcod BW", "gcod8 BW",
                 "hygcn acc/gcod", "awb acc/gcod", "gcod acc", "gcod8 acc/gcod"),
        rows=rows,
        extra_text=summary,
    )

SPEC = register_experiment(
    name="fig11",
    title="Fig. 11 — bandwidth & off-chip accesses",
    runner=run,
    gcod_deps=tuple((ds, "gcn") for ds in DATASETS),
    order=70,
)
