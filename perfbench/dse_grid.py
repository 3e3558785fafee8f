"""Workload ``dse-grid``: a single-model design-space grid from warm pipelines.

Set-up trains the grid's twelve pipelines (cora/pubmed/reddit x C x S)
into a fresh store. Each timed pass then clears the stored sweep points
and does what ``repro sweep`` does against that store with a fresh
context: plan, evaluate every point (workload extraction, the analytic
and event-driven accelerator models, store writes) and render the long
form plus the Pareto frontier. Training does no work in the timed phase.
``cold_s`` is the median pass. ``warm_ops_per_s`` is the points per second
of re-reads after each pass: the same sweep with a fresh context over the
stored points, which evaluates nothing and must render the same bytes.

Inputs from the seed: the six ``hw_scale`` values and the order of the
``tech_node`` axis. Neither changes a trained pipeline, so the per-point
work, and the time it takes, do not depend on the seed.
"""

from __future__ import annotations

import os
import random
import time
from statistics import mean
from typing import Dict, List

from perfbench import layers
from perfbench.common import (
    Ledger,
    digest,
    fresh_dir,
    median,
    metric,
    note,
    paper_gap_pct,
    peak_rss_mb,
    tree_bytes,
)
from perfbench.tracing import Tracer

DATASETS = ("cora", "pubmed", "reddit")
#: Timed passes per run, at least (more while --seconds has not elapsed).
MIN_PASSES = 6
#: Re-read passes over the stored points after each timed pass, so that
#: they spread over the run as the machine's speed drifts; the median is
#: reported.
REREADS_PER_PASS = 3


def grid_axes(seed: int) -> Dict[str, tuple]:
    """The seed's grid: 3 datasets x 2 C x 2 S x 2 bits x 6 hw x 3 nodes."""
    rng = random.Random(seed)
    hw = set()
    while len(hw) < 6:
        hw.add(round(rng.uniform(0.25, 4.0), 3))
    nodes = [7, 16, 28]
    rng.shuffle(nodes)
    return {
        "dataset": DATASETS,
        "C": (1, 2),
        "S": (2, 3),
        "bits": (32, 8),
        "hw_scale": tuple(sorted(hw)),
        "tech_node": tuple(nodes),
    }


def _context(store_dir: str):
    from repro.evaluation import EvalContext
    from repro.runtime.store import ArtifactStore

    return EvalContext(profile="fast", store=ArtifactStore(store_dir))


def _sweep_pass(store_dir: str, spec, tracer=None):
    """One ``repro sweep`` over the store: (report, text, start, end)."""
    import repro.sweep as sweep

    ctx = _context(store_dir)
    if tracer is not None:
        layers.install(tracer)
    start = time.perf_counter()
    try:
        # Looked up after install so the traced pass calls the wrappers.
        report = sweep.run_sweep(ctx, spec, jobs=1)
        text = sweep.sweep_report_text(spec, report.results)
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    return report, text, start, end


def _rereads(ledger: Ledger, store_dir: str, spec, text: bytes,
             count: int) -> List[float]:
    """Re-read passes: a fresh context over the stored points evaluates
    nothing and renders the same bytes. Returns their walls."""
    walls = []
    for _ in range(count):
        reread, reread_text, lo, hi = _sweep_pass(store_dir, spec)
        walls.append(hi - lo)
        ledger.op(True)
        ledger.check("re-read aggregation is byte-identical",
                     reread_text.encode() == text
                     and reread.points_evaluated == 0
                     and len(reread.cache_hits) == spec.num_points,
                     f"{reread.points_evaluated} re-evaluated")
    return walls


def _model_checks(ledger: Ledger, store_dir: str, spec, results) -> float:
    """Conservation laws of the accelerator models on this grid; returns
    the paper gap of the grid's pipelines at the default accelerator."""
    from repro.hardware import extract_workload
    from repro.hardware.event_sim import tiles_from_workload
    from repro.sweep.spec import expand

    bad_energy = [
        r for r in results
        if abs(sum(r.comb_energy.components()) + sum(r.agg_energy.components())
               - r.gcod_energy_j) > 1e-9 * max(r.gcod_energy_j, 1e-30)
    ]
    ledger.check("energy components sum to total_j", not bad_energy,
                 f"{len(bad_energy)} points")

    ctx = _context(store_dir)
    seen = set()
    bad_tiles = []
    workloads = []
    for point in expand(spec, ctx):
        task = point.gcod_task()
        if task.key().digest in seen:
            continue
        seen.add(task.key().digest)
        result = ctx.store.get(task.key())
        wl = extract_workload(result.final_graph, result.layout, point.arch,
                              paper_scale=True)
        workloads.append((point.dataset, point.arch, wl))
        agg_dim = next((layer.aggregation_dim for layer in wl.layers
                        if layer.aggregate), 0)
        tiles = tiles_from_workload(wl, agg_dim)
        macs = sum(t.macs for t in tiles)
        if macs != wl.adjacency.nnz * agg_dim:
            bad_tiles.append(f"{point.label()}: {macs} != "
                             f"{wl.adjacency.nnz} x {agg_dim}")
    ledger.check("event-sim tile MACs equal workload nnz x width",
                 not bad_tiles and len(seen) == 12, "; ".join(bad_tiles))
    return paper_gap_pct(ctx, workloads, "dse-grid")


def run(root: str, work: str, seed: int, seconds: float, trace: bool,
        ledger: Ledger) -> Dict[str, dict]:
    from repro.runtime.keys import KIND_MANIFEST, KIND_SWEEP
    from repro.runtime.runner import warm_tasks
    from repro.sweep import SweepSpec
    from repro.sweep.engine import plan_sweep

    spec = SweepSpec(name="perfbench-dse", title="benchmark DSE grid",
                     axes=grid_axes(seed))
    note(f"dse-grid: {spec.describe()}, jobs=1")
    store_dir = fresh_dir(os.path.join(work, "store"))

    ctx = _context(store_dir)
    start = time.perf_counter()
    plan = plan_sweep(ctx, spec)
    warm_tasks(plan.tasks, ctx, jobs=1)
    setup = time.perf_counter() - start
    ledger.check("set-up trains twelve pipelines", len(plan.tasks) == 12,
                 plan.describe())
    note(f"dse-grid: set-up {setup:.4f}s ({len(plan.tasks)} trainings)")

    walls: List[float] = []
    traced_walls: List[float] = []
    reread_walls: List[float] = []
    written: List[int] = []
    texts: List[bytes] = []
    tracer = traced_window = None
    started = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - started < seconds:
        store = ctx.store
        store.clear(kind=KIND_SWEEP)
        store.clear(kind=KIND_MANIFEST)
        before = tree_bytes(store_dir)
        pass_tracer = Tracer() if trace and i % 2 == 1 else None
        report, text, lo, hi = _sweep_pass(store_dir, spec, pass_tracer)
        n = len(report.results)
        ledger.op(True)
        ledger.check(f"pass {i} evaluates every point from warm pipelines",
                     report.points_evaluated == spec.num_points == n
                     and report.gcod_runs == 0 and not report.cache_hits,
                     f"{report.points_evaluated} evaluated, "
                     f"{report.gcod_runs} trainings")
        if pass_tracer is not None:
            traced_walls.append(hi - lo)
            tracer, traced_window, sweep_report = pass_tracer, (lo, hi), report
        else:
            walls.append(hi - lo)
            written.append(tree_bytes(store_dir) - before)
        texts.append(text.encode())
        note(f"dse-grid: pass {i} {hi - lo:.4f}s {n / (hi - lo):.2f} points/s "
             f"{'traced' if pass_tracer else 'untraced'}")
        reread_walls += _rereads(ledger, store_dir, spec, texts[-1],
                                 1 if trace else REREADS_PER_PASS)
        i += 1
        if trace and i >= 2 and time.perf_counter() - started >= seconds:
            break

    ledger.check("passes render identical aggregations", len(set(texts)) == 1)
    results = report.results
    note(f"dse-grid: re-reads {[round(t, 4) for t in reread_walls]} s")
    paper_gap = _model_checks(ledger, store_dir, spec, results)
    note(f"digest dse-grid {digest(texts[-1])}")

    accuracy = 100.0 * mean(
        {(r.dataset, r.num_classes, r.num_subgraphs): r.accuracy
         for r in results}.values())
    backends = sorted({r.kernel_backend for r in results})

    if trace:
        lo, hi = traced_window
        out = layers.attribution(tracer.finished_spans(), tracer.counts,
                                 lo, hi)
        out["sweep.points_evaluated"] = float(sweep_report.points_evaluated)
        out["sweep.cache_hits"] = float(len(sweep_report.cache_hits))
        out["trace.overhead_pct"] = 100.0 * (
            median(traced_walls) / median(walls) - 1.0)
        note("dse-grid: traced self time by span")
        for line in layers.layer_table(tracer.finished_spans()):
            note(line)
        return {"per_layer": out, "backends": backends}

    return {
        "end_to_end": {
            "setup_s": metric(setup, "s"),
            "cold_s": metric(median(walls), "s"),
            "warm_ops_per_s": metric(
                spec.num_points / median(reread_walls), "1/s"),
            "paper_gap_pct": metric(paper_gap, "%"),
            "gcod_accuracy_pct": metric(accuracy, "%"),
            "store_written_mb": metric(median(written) / 2**20, "MB"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "backends": backends,
    }
