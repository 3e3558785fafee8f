"""Sec. IV-B2: training-cost accounting with early-bird tickets.

The paper claims GCoD training costs 0.7x-1.1x standard GCN training, with
the three steps at roughly 5%/50%/45% of the total. The accounting depends
on the *proportions* of the budgets (pretraining : ADMM : retraining =
400 : 80 : 200+200 in the paper), so this experiment runs its own pipeline
with paper-proportional budgets scaled down 2.5x to keep the runtime small;
the cost *ratio* is scale-invariant.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.evaluation.context import (
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.runtime.registry import register_experiment

#: paper budgets scaled by 1/2.5: 400 -> 160 pretrain, 200 -> 80 retrain.
_SCALED = dict(
    pretrain_epochs=160,
    retrain_epochs=80,
    admm_iterations=4,
    admm_inner_steps=8,
)


def run(
    context: Optional[EvalContext] = None,
    datasets: Sequence[str] = ("cora", "citeseer"),
    arch: str = "gcn",
) -> ExperimentResult:
    """Reproduce the training-cost accounting with paper-like proportions."""
    from repro.algorithm.pipeline import run_gcod

    context = context or default_context()
    rows = []
    for dataset in datasets:
        config = replace(context.gcod_config(), **_SCALED)
        result = run_gcod(context.graph(dataset), arch, config)
        cost = result.cost_breakdown
        rows.append(
            (
                dataset,
                result.pretrain_epochs_run,
                result.early_bird_epoch if result.early_bird_epoch is not None
                else "-",
                round(cost["relative_cost"], 2),
                f"{cost['step1_fraction'] * 100:.0f}%",
                f"{cost['step2_fraction'] * 100:.0f}%",
                f"{cost['step3_fraction'] * 100:.0f}%",
            )
        )
    return ExperimentResult(
        name="Training cost vs standard GCN training (early-bird enabled)",
        headers=("dataset", "pretrain epochs", "EB epoch", "relative cost",
                 "step1 %", "step2 %", "step3 %"),
        rows=rows,
        extra_text="paper: relative cost 0.7x-1.1x; step split ~5%/50%/45%.",
    )

# Trains its own paper-proportioned pipelines (not ``context.gcod`` runs),
# so it declares no shareable GCoD deps; its rendered result still caches.
SPEC = register_experiment(
    name="training-cost",
    title="Training cost (Sec. IV-B2)",
    runner=run,
    order=110,
)
