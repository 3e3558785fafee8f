"""Fig. 12: energy breakdown of the GCoD accelerator.

Per (model, dataset): the share of energy spent on computation, on-chip
reads/writes, and off-chip reads/writes, split by phase (combination vs
aggregation). The paper's observations to reproduce: combination dominates
(GCoD fixed the aggregation bottleneck), and HBM energy stays reasonable as
graphs grow.

The same (model, dataset) grid is registered as sweep ``fig12-energy``:
the sweep engine records every point's per-phase
:class:`~repro.hardware.energy.EnergyBreakdown` and DRAM traffic, and
:func:`rows_from_sweep` renders Fig. 12's exact columns from those stored
metrics — parity-tested against this module's direct loop, so the sweep
path can never drift from the paper table.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.context import (
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.hardware.energy import EnergyBreakdown
from repro.runtime.registry import register_experiment
from repro.sweep.registry import register_sweep
from repro.sweep.spec import SweepSpec

DATASETS = ("cora", "citeseer", "pubmed", "nell", "reddit")
MODELS = ("gcn", "sage", "gin", "gat")


def _energy_row(
    arch: str,
    dataset: str,
    comb: EnergyBreakdown,
    agg: EnergyBreakdown,
    total_j: float,
) -> tuple:
    """One Fig. 12 row: phase-component percentages plus the total."""
    total = max(total_j, 1e-30)
    return (arch, dataset) + tuple(
        round(joules / total * 100, 1)
        for phase in (comb, agg)
        for joules in phase.components()
    ) + (f"{total * 1e6:.1f}uJ",)


HEADERS = ("model", "dataset", "comb compute", "comb onchip",
           "comb offchip", "agg compute", "agg onchip", "agg offchip",
           "total")


def run(
    context: Optional[EvalContext] = None,
    models: Sequence[str] = MODELS,
    datasets: Sequence[str] = DATASETS,
) -> ExperimentResult:
    """Reproduce Fig. 12 (energy fractions per model/dataset)."""
    context = context or default_context()
    gcod = context.platforms()["gcod"]
    rows = []
    for arch in models:
        for dataset in datasets:
            report = gcod.run(context.gcod_workload(dataset, arch))
            rows.append(
                _energy_row(
                    arch,
                    dataset,
                    report.combination.energy,
                    report.aggregation.energy,
                    report.energy.total_j,
                )
            )
    return ExperimentResult(
        name="Fig. 12: GCoD energy breakdown (% of total)",
        headers=HEADERS,
        rows=rows,
    )


def energy_sweep_spec(
    models: Sequence[str] = MODELS,
    datasets: Sequence[str] = DATASETS,
) -> SweepSpec:
    """The Fig. 12 grid as a sweep: arch outer, dataset inner (Fig. order)."""
    return SweepSpec(
        name="fig12-energy",
        title="Fig. 12 grid: per-phase energy x DRAM traffic",
        axes={"arch": tuple(models), "dataset": tuple(datasets)},
        description=(
            "Fig. 12's (model, dataset) grid through the sweep engine: "
            "every point records the per-phase energy breakdown and DRAM "
            "traffic of the default GCoD variant."
        ),
    )


def rows_from_sweep(results) -> list:  # repro: lint-ok[orphan] sweep render
    """Fig. 12's rows rebuilt from sweep-engine point metrics.

    ``results`` is ``SweepRunReport.results`` from a sweep over
    :func:`energy_sweep_spec` — the stored per-phase breakdowns replay the
    exact table :func:`run` computes directly.
    """
    return [
        _energy_row(
            point.arch,
            point.dataset,
            point.comb_energy,
            point.agg_energy,
            point.gcod_energy_j,
        )
        for point in results
    ]


SPEC = register_experiment(
    name="fig12",
    title="Fig. 12 — energy breakdown",
    runner=run,
    gcod_deps=tuple((ds, arch) for arch in MODELS for ds in DATASETS),
    order=80,
)

#: Fig. 12's grid, runnable standalone: ``repro sweep fig12-energy``
#: (try ``--objectives speedup,energy,dram`` for its 3-D frontier).
ENERGY_SWEEP = register_sweep(energy_sweep_spec())
