"""Tab. III: dataset statistics (paper-reported vs generated)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.context import (
    ALL_DATASETS,
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.runtime.registry import register_experiment


def run(
    context: Optional[EvalContext] = None,
    datasets: Sequence[str] = ALL_DATASETS,
) -> ExperimentResult:
    """Reproduce Tab. III, showing the synthetic stand-ins' actual stats."""
    from repro.graphs.datasets import DATASET_SPECS
    from repro.graphs.stats import compute_stats

    context = context or default_context()
    rows = []
    for dataset in datasets:
        spec = DATASET_SPECS[dataset]
        stats = compute_stats(context.graph(dataset))
        rows.append(
            (
                dataset,
                spec.nodes,
                spec.edges,
                spec.features,
                spec.classes,
                stats.nodes,
                stats.edges,
                stats.features,
                f"{stats.sparsity * 100:.3f}%",
                round(stats.degree_gini, 2),
            )
        )
    return ExperimentResult(
        name="Tab. III: dataset statistics (paper spec vs generated graph)",
        headers=("dataset", "paper N", "paper M", "paper F", "classes",
                 "gen N", "gen M", "gen F", "gen sparsity", "degree gini"),
        rows=rows,
    )

SPEC = register_experiment(
    name="tab03",
    title="Tab. III — dataset statistics",
    runner=run,
    order=10,
)
