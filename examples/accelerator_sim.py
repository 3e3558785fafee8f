#!/usr/bin/env python
"""Accelerator deep-dive: simulate a GCoD design and inspect where time goes.

Trains a GCoD pipeline on Pubmed, then simulates the GCoD accelerator and
all baselines, printing the per-phase latency, off-chip traffic, bandwidth
requirement, and the Fig. 12-style energy breakdown.
"""

from repro import GCoDConfig, extract_workload, load_dataset, run_gcod
from repro.hardware.accelerators import all_platforms
from repro.utils import format_table


def main() -> None:
    graph = load_dataset("pubmed", scale=0.08, seed=0)
    config = GCoDConfig(pretrain_epochs=40, retrain_epochs=25,
                        admm_iterations=2, admm_inner_steps=6)
    result = run_gcod(graph, "gcn", config)

    # --- platform comparison at paper scale -----------------------------
    wl_gcod = extract_workload(result.final_graph, result.layout, "gcn",
                               paper_scale=True)
    wl_base = extract_workload(graph, None, "gcn", paper_scale=True)
    plats = all_platforms()
    cpu = plats["pyg-cpu"].run(wl_base)
    rows = []
    for name, platform in plats.items():
        wl = wl_gcod if name.startswith("gcod") else wl_base
        rep = platform.run(wl)
        rows.append(
            (
                name,
                f"{rep.latency_s * 1e6:.1f}us",
                f"{cpu.latency_s / rep.latency_s:.0f}x",
                f"{rep.combination.seconds * 1e6:.1f}us",
                f"{rep.aggregation.seconds * 1e6:.1f}us",
                f"{rep.offchip_bytes / 1e6:.2f}MB",
                f"{rep.required_bandwidth_gbps:.0f}GB/s",
                f"{rep.energy.total_j * 1e6:.1f}uJ",
            )
        )
    print("\n" + format_table(
        ("platform", "latency", "vs cpu", "comb", "agg", "off-chip",
         "req BW", "energy"),
        rows,
        title="Pubmed / GCN at paper scale",
    ))

    # --- energy breakdown (Fig. 12 style) --------------------------------
    gcod = plats["gcod"].run(wl_gcod)
    fr_comb = gcod.combination.energy.fractions()
    fr_total = gcod.energy.fractions()
    print("\nGCoD energy: "
          f"compute {fr_total['compute']:.0%}, "
          f"on-chip {fr_total['onchip']:.0%}, "
          f"off-chip {fr_total['offchip']:.0%} "
          f"(combination share {gcod.combination.energy.total_j / gcod.energy.total_j:.0%})")


if __name__ == "__main__":
    main()
