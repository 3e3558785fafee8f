"""Fig. 9: speedups over PyG-CPU on the citation graphs, 4 models x 9+ platforms."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.context import (
    CITATION_DATASETS,
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.runtime.registry import register_experiment

PLATFORM_ORDER = (
    "pyg-gpu",
    "dgl-cpu",
    "dgl-gpu",
    "hygcn",
    "awb-gcn",
    "deepburning-zc706",
    "deepburning-kcu1500",
    "deepburning-alveo-u50",
    "gcod",
    "gcod-8bit",
)

MODELS = ("gcn", "gin", "gat", "sage")


def run(
    context: Optional[EvalContext] = None,
    datasets: Sequence[str] = CITATION_DATASETS,
    models: Sequence[str] = MODELS,
    platforms: Sequence[str] = PLATFORM_ORDER,
) -> ExperimentResult:
    """Reproduce Fig. 9 (speedups normalized to PyG-CPU)."""
    from repro.utils.ascii_plot import bar_chart

    context = context or default_context()
    rows = []
    charts = []
    for arch in models:
        for dataset in datasets:
            speedups = context.speedups_over_cpu(dataset, arch, platforms)
            rows.append(
                (arch, dataset)
                + tuple(round(speedups[p], 1) for p in platforms)
            )
            charts.append(
                bar_chart(
                    list(platforms),
                    [speedups[p] for p in platforms],
                    title=f"[{arch} / {dataset}] speedup over PyG-CPU (log scale)",
                )
            )
    return ExperimentResult(
        name="Fig. 9: inference speedups over PyG-CPU (citation graphs)",
        headers=("model", "dataset") + tuple(platforms),
        rows=rows,
        extra_text="\n\n".join(charts),
    )

SPEC = register_experiment(
    name="fig09",
    title="Fig. 9 — citation-graph speedups",
    runner=run,
    gcod_deps=tuple(
        (ds, arch) for arch in MODELS for ds in CITATION_DATASETS
    ),
    order=50,
)
