"""One-shot report generation: every experiment, rendered into one document.

``generate_report`` runs the complete harness through the
:mod:`repro.runtime` runner: experiments are discovered from the registry
(not a hard-coded list), their GCoD dependencies are de-duplicated and can
execute across a process pool (``jobs > 1``), and — when the context has an
artifact store attached — both the trained pipelines and the rendered
results persist across invocations, so a warm rerun performs zero training
runs. ``report_results`` exposes the structured results for the JSON/CSV
output paths.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.evaluation import reference
from repro.evaluation.context import EvalContext, default_context
from repro.runtime.registry import resolve_experiments
from repro.runtime.runner import RunReport, run_experiments

#: The GCoD runs the headline shape checks need; declared here so the
#: planner can warm them alongside the experiments' own dependencies.
SHAPE_CHECK_DEPS: Tuple[Tuple[str, str], ...] = tuple(
    (ds, "gcn") for ds in ("cora", "citeseer", "pubmed", "nell", "reddit")
)


def shape_checks(ctx: EvalContext) -> List[str]:
    """Compute the headline paper-vs-measured comparisons."""
    import numpy as np

    plats = ctx.platforms()
    lines = []
    ratios_awb, ratios_hygcn, ratios_8bit, bw_ratios = [], [], [], []
    for ds, _arch in SHAPE_CHECK_DEPS:
        wl_b = ctx.baseline_workload(ds, "gcn")
        wl_g = ctx.gcod_workload(ds, "gcn")
        awb = plats["awb-gcn"].run(wl_b)
        hygcn = plats["hygcn"].run(wl_b)
        gcod = plats["gcod"].run(wl_g)
        gcod8 = plats["gcod-8bit"].run(wl_g)
        ratios_awb.append(awb.latency_s / gcod.latency_s)
        ratios_hygcn.append(hygcn.latency_s / gcod.latency_s)
        ratios_8bit.append(gcod.latency_s / gcod8.latency_s)
        bw_ratios.append(
            gcod.required_bandwidth_gbps
            / max(hygcn.required_bandwidth_gbps, 1e-9)
        )
    lines.append(
        f"- GCoD vs AWB-GCN: measured {np.mean(ratios_awb):.2f}x average "
        f"(range {min(ratios_awb):.2f}-{max(ratios_awb):.2f}); paper "
        f"{reference.SPEEDUP_OVER['awb-gcn']}x average."
    )
    lines.append(
        f"- GCoD vs HyGCN: measured {np.mean(ratios_hygcn):.1f}x average; "
        f"paper {reference.SPEEDUP_OVER['hygcn']}x average."
    )
    lines.append(
        f"- GCoD-8bit vs GCoD: measured {np.mean(ratios_8bit):.2f}x; paper "
        f"~{reference.QUANTIZATION_GAIN}x."
    )
    lines.append(
        f"- bandwidth vs HyGCN: measured {np.mean(bw_ratios) * 100:.0f}% of "
        f"HyGCN's requirement; paper "
        f"{reference.BANDWIDTH_VS_HYGCN['gcod'] * 100:.0f}%."
    )
    return lines


def report_results(
    ctx: Optional[EvalContext] = None,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    progress=None,
) -> RunReport:
    """Run the selected experiments (all when ``names`` is None).

    Returns the runner's :class:`RunReport`: structured results in report
    order plus per-experiment timings and cache-hit accounting.
    """
    ctx = ctx or default_context()
    # Only a full report computes the shape checks, so only then do their
    # GCoD dependencies join the warming plan.
    extra = SHAPE_CHECK_DEPS if names is None else ()
    return run_experiments(
        ctx, names=names, jobs=jobs, extra_deps=extra, progress=progress
    )


def generate_report(
    ctx: Optional[EvalContext] = None,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    progress=None,
) -> str:
    """Run every (or the named) experiment and render one markdown report."""
    ctx = ctx or default_context()
    run = report_results(ctx, names=names, jobs=jobs, progress=progress)
    parts = [
        "# GCoD reproduction report",
        "",
        "Generated by `python -m repro report`. Profile: "
        f"`{ctx.profile}` (see `repro.evaluation.context` for scales).",
        "",
    ]
    if names is None:
        parts += ["## Headline shape checks", "", *shape_checks(ctx), ""]
    for spec in resolve_experiments(names):
        result = run.results[spec.name]
        parts.append(f"## {spec.title}")
        parts.append("")
        parts.append("```")
        parts.append(result.render())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)
