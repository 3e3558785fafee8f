"""Design-choice ablations: what each GCoD mechanism contributes.

DESIGN.md calls out four load-bearing design choices; this experiment
removes them one at a time and measures the damage:

* **query-based weight forwarding** (Sec. V-B): disabling it sends the
  sparser branch's weight reads off-chip (traffic/bandwidth damage);
* **the two-pronged architecture** itself: a single undifferentiated branch
  loses the chunk balance and the forwarding path (latency damage on
  aggregation-bound graphs);
* **polarization** (the ``L_Pola`` term of Eq. 4): without it the tuner is
  plain SGCN and fewer non-zeros land inside the diagonal blocks;
* **structural sparsification** (Step 3): without it no columns empty out.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.evaluation.context import (
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.runtime.registry import register_experiment


def run(
    context: Optional[EvalContext] = None,
    dataset: str = "cora",
    agg_heavy_dataset: str = "reddit",
) -> ExperimentResult:
    """Ablate each design choice on ``dataset`` (+ one aggregation-bound one)."""
    from repro.algorithm.pipeline import run_gcod
    from repro.hardware.accelerators.gcod import GCoDAccelerator
    from repro.hardware.workload import extract_workload

    context = context or default_context()
    rows = []

    for ds in (dataset, agg_heavy_dataset):
        full_result = context.gcod(ds, "gcn")
        wl_final = context.gcod_workload(ds, "gcn", stage="final")
        wl_tuned = context.gcod_workload(ds, "gcn", stage="tuned")
        full = GCoDAccelerator().run(wl_final)

        def row(variant, report, dense_fraction):
            rows.append(
                (
                    ds,
                    variant,
                    f"{report.latency_s * 1e6:.2f}us",
                    round(report.latency_s / full.latency_s, 2),
                    round(report.offchip_bytes / max(full.offchip_bytes, 1e-9), 2),
                    f"{dense_fraction * 100:.0f}%",
                )
            )

        final_frac = full_result.layout.dense_fraction(full_result.final_graph.adj)
        row("full gcod", full, final_frac)
        row(
            "w/o weight forwarding",
            GCoDAccelerator(weight_forward_rate=0.0).run(wl_final),
            final_frac,
        )
        row(
            "single branch (no chunks)",
            GCoDAccelerator(two_pronged=False).run(wl_final),
            final_frac,
        )
        row(
            "w/o structural sparsif.",
            GCoDAccelerator().run(wl_tuned),
            full_result.layout.dense_fraction(full_result.tuned_graph.adj),
        )
        # Polarization off = SGCN-style tuning: rerun the pipeline once.
        nopola_cfg = replace(context.gcod_config(), pola_weight=0.0)
        nopola = run_gcod(context.graph(ds), "gcn", nopola_cfg)
        wl_nopola = extract_workload(
            nopola.final_graph, nopola.layout, "gcn", paper_scale=True
        )
        row(
            "w/o polarization (SGCN)",
            GCoDAccelerator().run(wl_nopola),
            nopola.layout.dense_fraction(nopola.final_graph.adj),
        )

    return ExperimentResult(
        name="Design ablation: remove one GCoD mechanism at a time",
        headers=("dataset", "variant", "latency", "latency vs full",
                 "offchip vs full", "dense fraction"),
        rows=rows,
    )

# The ablations themselves retrain with a mechanism removed (private,
# unshareable runs), but the full-GCoD baseline rows come from
# ``context.gcod`` on the two default datasets — those are shareable.
SPEC = register_experiment(
    name="ablation-design",
    title="Ablation — design choices",
    runner=run,
    gcod_deps=(("cora", "gcn"), ("reddit", "gcn")),
    order=130,
)
