#!/usr/bin/env python
"""Workload DAGs in library form: multi-tenant and pipelined evaluation.

Parses the shorthand grammar, round-trips the JSON form, and costs a
shared GCN+GAT workload and a pipelined layer split: each node's workload
is extracted, mapped onto its slice of the shared PE array and costed,
and the reports merge with contention accounting. Training runs at a
small scale; the structural facts (PE splits, contention merge) are
scale-independent.
"""

import json

from repro.evaluation import EvalContext
from repro.hardware.pipeline import (
    PipelineSettings,
    evaluate_workload,
    parse_workload,
    workload_from_json,
)
from repro.utils import format_table


def show(report) -> None:
    pes = dict(report.node_pes)
    rows = [
        (name, pes[name], f"{rep.latency_s * 1e6:.1f}us",
         f"{rep.energy.total_j * 1e3:.3f}mJ",
         f"{rep.offchip_bytes / 1e6:.2f}MB")
        for name, rep in report.node_reports
    ]
    rows.append(("merged", sum(pes.values()),
                 f"{report.latency_s * 1e6:.1f}us",
                 f"{report.energy.total_j * 1e3:.3f}mJ",
                 f"{report.offchip_bytes / 1e6:.2f}MB"))
    print(format_table(("node", "PEs", "latency", "energy", "off-chip"),
                       rows, title=report.workload))


def main() -> None:
    context = EvalContext(profile="fast")
    context.dataset_scales = {"cora": 0.2, "citeseer": 0.2}

    # --- two tenants sharing one accelerator ---------------------------
    shared = parse_workload("cora/gcn+citeseer/gat", name="shared-pair")
    print("levels:", [[n.name for n in lvl] for lvl in shared.levels()])
    show(evaluate_workload(shared, context))

    # --- a pipelined layer split (sequential phases, skewed share) -----
    split = parse_workload("cora/gcn/0@0.75 > cora/gcn/1")
    show(evaluate_workload(split, context,
                           PipelineSettings(bits=8, hw_scale=2.0)))

    # --- the JSON form round-trips (and expresses sparse DAGs) ---------
    payload = shared.to_jsonable()
    assert workload_from_json(payload) == shared
    print("\nJSON form:\n" + json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
