"""Fig. 4: adjacency matrices before/after GCoD + accuracy and latency delta.

The paper's figure shows three citation datasets' adjacency matrices before
and after the split-and-conquer training, annotated with accuracy and the
latency reduction over HyGCN measured on the GCoD accelerator. We render the
matrices as ASCII density plots and recompute both annotations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.context import (
    CITATION_DATASETS,
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.runtime.registry import register_experiment


def run(
    context: Optional[EvalContext] = None,
    datasets: Sequence[str] = CITATION_DATASETS,
    plot_size: int = 32,
) -> ExperimentResult:
    """Reproduce Fig. 4 for ``datasets``."""
    from repro.utils.ascii_plot import density_plot

    context = context or default_context()
    rows = []
    blocks = []
    plats = context.platforms()
    for dataset in datasets:
        result = context.gcod(dataset, "gcn")
        hygcn = plats["hygcn"].run(context.baseline_workload(dataset, "gcn"))
        gcod = plats["gcod"].run(context.gcod_workload(dataset, "gcn"))
        latency_reduction = hygcn.latency_s / gcod.latency_s
        rows.append(
            (
                dataset,
                f"{result.accuracy_pretrain * 100:.1f}%",
                f"{result.accuracy_final * 100:.1f}%",
                f"{latency_reduction:.1f}x",
                f"{result.layout.dense_fraction(result.final_graph.adj) * 100:.0f}%",
            )
        )
        before = density_plot(result.partitioned_graph.adj, size=plot_size)
        after = density_plot(
            result.final_graph.adj,
            size=plot_size,
            class_bounds=result.layout.class_bounds(),
            group_bounds=result.layout.group_bounds(),
        )
        blocks.append(
            f"== {dataset}: before GCoD ==\n{before}\n"
            f"== {dataset}: after GCoD ==\n{after}"
        )
    return ExperimentResult(
        name="Fig. 4: adjacency polarization (before -> after GCoD)",
        headers=("dataset", "acc before", "acc after", "latency vs HyGCN",
                 "dense fraction"),
        rows=rows,
        extra_text="\n\n".join(blocks),
    )

SPEC = register_experiment(
    name="fig04",
    title="Fig. 4 — adjacency polarization",
    runner=run,
    gcod_deps=tuple((ds, "gcn") for ds in CITATION_DATASETS),
    order=40,
)
