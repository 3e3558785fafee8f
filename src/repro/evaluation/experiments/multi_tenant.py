"""Multi-tenant serving: two GNN models time-slicing one GCoD accelerator.

Not a paper table — a ROADMAP extension built on the workload-DAG
evaluator (:mod:`repro.hardware.pipeline`): a GCN and a GAT, both
GCoD-trained on Cora, share the accelerator's PE array concurrently
(each node gets half the PEs), compared against running the same two
models back to back on the full array. Consolidation wins when the
shared latency (max over concurrent nodes) beats the serial sum —
which it does whenever the models' phase mixes don't contend for the
same resource at the same time.

The matching sweep (``repro sweep multi-tenant``) moves the same DAG
across precision and array scale through the shared sweep engine.
"""

from __future__ import annotations

from repro.evaluation.context import ExperimentResult
from repro.runtime.registry import register_experiment
from repro.sweep.registry import register_sweep
from repro.sweep.spec import SweepSpec

#: The DAG under test: both models concurrent, equal PE shares.
SHARED = "cora/gcn+cora/gat"


def run(context) -> ExperimentResult:
    from repro.hardware.pipeline import evaluate_workload, parse_workload

    shared = evaluate_workload(parse_workload(SHARED), context)
    # The serial reference: each model alone is a single-node DAG, so it
    # runs on the full array — byte-identical to the legacy single-model
    # path — and the latencies sum.
    solos = [
        evaluate_workload(parse_workload(token), context)
        for token in SHARED.split("+")
    ]

    rows = []
    node_pes = dict(shared.node_pes)
    for name, report in shared.node_reports:
        rows.append((
            f"shared: {name}",
            node_pes[name],
            round(report.latency_s * 1e6, 2),
            round(report.energy.total_j * 1e3, 4),
        ))
    merged = shared.merged()
    rows.append((
        "shared: merged",
        sum(node_pes.values()),
        round(merged.latency_s * 1e6, 2),
        round(merged.energy.total_j * 1e3, 4),
    ))
    serial_latency = 0.0
    serial_energy = 0.0
    for solo in solos:
        solo_merged = solo.merged()
        solo_name = solo.node_reports[0][0]
        serial_latency += solo_merged.latency_s
        serial_energy += solo_merged.energy.total_j
        rows.append((
            f"serial: {solo_name}",
            dict(solo.node_pes)[solo_name],
            round(solo_merged.latency_s * 1e6, 2),
            round(solo_merged.energy.total_j * 1e3, 4),
        ))
    rows.append((
        "serial: total",
        "",
        round(serial_latency * 1e6, 2),
        round(serial_energy * 1e3, 4),
    ))
    ratio = serial_latency / max(merged.latency_s, 1e-30)
    return ExperimentResult(
        name="Multi-tenant: two models on one GCoD accelerator",
        headers=("configuration", "PEs", "latency (us)", "energy (mJ)"),
        rows=rows,
        extra_text=(
            f"Consolidation ratio (serial / shared latency): {ratio:.2f}x. "
            f"The shared run time-slices the PE array "
            f"(`PEArray.allocate`); traffic and energy sum across nodes, "
            f"latency is the slowest tenant's. Same DAG via the CLI: "
            f"`repro workload -w \"{SHARED}\"`."
        ),
    )


SPEC = register_experiment(
    name="multi-tenant",
    title="Multi-tenant — two GNNs sharing one GCoD accelerator",
    runner=run,
    gcod_deps=(("cora", "gcn"), ("cora", "gat")),
    order=95,
)

#: The same DAG as a grid: precision x array scale, one trained pipeline
#: pair (platform axes never change the training config).
MULTI_TENANT_SWEEP = register_sweep(
    SweepSpec(
        name="multi-tenant",
        title="Multi-tenant DAG: precision x PE-array scale",
        axes={
            "workload": (SHARED,),
            "bits": (32, 8),
            "hw_scale": (1.0, 2.0),
        },
        description=(
            "How the shared-accelerator latency of a concurrent "
            "GCN+GAT workload moves with precision and PE-array scale."
        ),
    )
)
