"""Tab. V (+ Tabs. I-II): platform configurations and design characteristics.

The static tables describe each platform at its shipped scale. The *scale
axis* of the GCoD design — how the speedup moves as the PE array shrinks
or grows, in both precisions — is declared here as a thin
:class:`~repro.sweep.spec.SweepSpec` over the shared sweep engine
(``repro sweep tab05-scale``) instead of another hand-rolled loop.
"""

from __future__ import annotations

from typing import Optional

from repro.evaluation.context import ExperimentResult
from repro.utils.tables import format_table
from repro.runtime.registry import register_experiment
from repro.sweep.registry import register_sweep
from repro.sweep.spec import SweepSpec


def run(context=None) -> ExperimentResult:
    """Reproduce Tab. V, with Tabs. I and II appended as extra text."""
    from repro.hardware.accelerators import system_configurations
    from repro.hardware.accelerators.gcod import branch_characteristics
    from repro.hardware.dataflow import pipeline_characteristics

    configs = system_configurations()
    rows = [
        (c["platform"], c["compute"], c["onchip"], c["offchip"], c["power_w"])
        for c in configs
    ]
    tab1 = format_table(
        ("branch", "multi chunks", "onchip storage", "offchip access",
         "arch reuse", "data reuse", "workloads"),
        [tuple(r.values()) for r in branch_characteristics()],
        title="Tab. I: branch characteristics",
    )
    tab2 = format_table(
        ("pipeline", "comb spmm", "agg spmm", "onchip", "offchip",
         "data reuse", "fit for"),
        [tuple(r.values()) for r in pipeline_characteristics()],
        title="Tab. II: inter-phase pipelines",
    )
    scale_note = (
        "Scale axis: `repro sweep tab05-scale` sweeps the GCoD PE array "
        "over {0.5x, 1x, 2x} in both precisions (32/8 bit) and reports "
        "the speedup/accuracy frontier; add `--objectives "
        "speedup,energy,dram` for the energy/bandwidth trade-off surface."
    )
    return ExperimentResult(
        name="Tab. V: system configurations",
        headers=("platform", "compute", "on-chip", "off-chip", "power (W)"),
        rows=rows,
        extra_text=tab1 + "\n\n" + tab2 + "\n\n" + scale_note,
    )

SPEC = register_experiment(
    name="tab05",
    title="Tab. V (+ I, II) — system configurations",
    runner=run,
    order=30,
)

#: Tab. V's hardware-scale axis as data: one trained pipeline (the
#: platform axes don't change the training config, so the engine dedups
#: all six points onto a single GCoD run), six analytic design points.
SCALE_SWEEP = register_sweep(
    SweepSpec(
        name="tab05-scale",
        title="Tab. V scale axis: GCoD PE array x precision",
        axes={
            "dataset": ("cora",),
            "bits": (32, 8),
            "hw_scale": (0.5, 1.0, 2.0),
        },
        description=(
            "How the GCoD speedup over AWB-GCN moves as the PE array "
            "scales from half to double Tab. V's 4096 (32-bit) / 10240 "
            "(8-bit) PEs."
        ),
    )
)
