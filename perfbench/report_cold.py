"""Workload ``report-cold``: a cold ``report_results`` over an empty store.

``report_results(names=["tab06", "multi-tenant"])`` at fast-profile scales
trains six pipelines (GCN on the five shape-check datasets and GAT on
Cora), renders both experiments and writes every artifact into a fresh
store. It is what a new user, and every schema bump, pays: ``cold_s`` is
the median such pass. ``warm_ops_per_s`` is the rate of warm reruns that
recompute both experiments from a pass's stored pipelines (their stored
results cleared), what a change to an experiment's code pays; they must
train nothing and render the same bytes.

Inputs from the seed: the order the two experiments are requested in. The
context seed stays the reproduction's seed 0, so the trained pipelines,
the rendered results and their digest are the same for every workload
seed; only the request order changes.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
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

#: Cold passes per run, at least (more while --seconds has not elapsed).
MIN_PASSES = 3
#: Warm recomputations of the report after each cold pass, so that they
#: spread over the run as the machine's speed drifts; the median is
#: reported.
WARM_PER_PASS = 4
#: Fresh interpreters timed for set-up; the median is reported.
SETUP_REPEATS = 3
#: What a cold ``repro report`` does before its first training run.
SETUP_PROBE = (
    "import sys\n"
    "from repro.evaluation import EvalContext\n"
    "from repro.evaluation.report import report_results\n"
    "from repro.runtime.runner import plan_experiments\n"
    "from repro.runtime.store import ArtifactStore\n"
    "ctx = EvalContext(profile='fast', store=ArtifactStore(sys.argv[1]))\n"
    "plan = plan_experiments(ctx, sys.argv[2].split(','))\n"
    "assert len(plan.tasks) == 6, plan.describe()\n"
)


def experiment_order(seed: int) -> List[str]:
    """The seed's request order of the report's experiments."""
    names = list(layers.REPORT_EXPERIMENTS)
    random.Random(seed).shuffle(names)
    return names


def _setup_times(root: str, work: str, names: List[str]) -> List[float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for i in range(SETUP_REPEATS):
        store = fresh_dir(os.path.join(work, f"setup-{i}"))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, store,
                        ",".join(names)], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def _rendered(run) -> bytes:
    return b"".join(
        name.encode() + b"\n" + result.render().encode() + b"\n" +
        result.to_json().encode()
        for name, result in sorted(run.results.items())
    )


def _one_pass(store_dir: str, names: List[str], tracer=None):
    from repro.evaluation import EvalContext
    from repro.evaluation.report import report_results
    from repro.runtime.runner import plan_experiments
    from repro.runtime.store import ArtifactStore

    ctx = EvalContext(profile="fast", store=ArtifactStore(store_dir))
    tasks = plan_experiments(ctx, names).tasks
    if tracer is not None:
        layers.install(tracer)
    start = time.perf_counter()
    try:
        run = report_results(ctx, names=names, jobs=1)
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    return ctx, tasks, run, start, end


def _warm_reruns(store_dir: str, names: List[str], cold_run, ledger: Ledger,
                 timed: int) -> List[float]:
    """Reruns over a cold pass's store; returns the ``timed`` ones' walls.

    The first rerun reads the stored results back. Each timed one finds
    only the pipelines (the results cleared) and recomputes both
    experiments from them, what a change to an experiment's code costs.
    Every rerun must train nothing and render the cold pass's bytes.
    """
    from repro.evaluation import EvalContext
    from repro.evaluation.report import report_results
    from repro.runtime.keys import KIND_EXPERIMENT
    from repro.runtime.store import ArtifactStore

    walls = []
    for k in range(1 + timed):
        ctx = EvalContext(profile="fast", store=ArtifactStore(store_dir))
        if k:
            ctx.store.clear(kind=KIND_EXPERIMENT)
        start = time.perf_counter()
        warm = report_results(ctx, names=names, jobs=1)
        if k:
            walls.append(time.perf_counter() - start)
        what = f"recomputed report {k}" if k else "read-back report"
        ledger.op(True)
        ledger.check(f"{what} trains nothing", warm.gcod_runs == 0,
                     f"{warm.gcod_runs} trainings")
        ledger.check(f"{what} renders byte-identical results",
                     _rendered(warm) == _rendered(cold_run))
    return walls


def run(root: str, work: str, seed: int, seconds: float, trace: bool,
        ledger: Ledger) -> Dict[str, dict]:
    from repro.evaluation.report import SHAPE_CHECK_DEPS

    names = experiment_order(seed)
    note(f"report-cold: experiments {names}, jobs=1, fast profile")
    setup = [] if trace else _setup_times(root, work, names)
    note(f"report-cold: set-up probes {[round(t, 4) for t in setup]}")

    walls: List[float] = []
    warm_walls: List[float] = []
    written: List[int] = []
    digests: List[str] = []
    tracer = None
    traced_window = None
    started = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - started < seconds:
        if i:  # the previous pass's store has served its reruns
            shutil.rmtree(last_dir)
        store_dir = fresh_dir(os.path.join(work, f"store-{i}"))
        pass_tracer = Tracer() if trace and i == 1 else None
        ctx, tasks, rep, lo, hi = _one_pass(store_dir, names, pass_tracer)
        ledger.op(True)
        ledger.check(f"pass {i} trains six pipelines",
                     len(tasks) == 6 and rep.gcod_runs == len(tasks),
                     f"{len(tasks)} planned, {rep.gcod_runs} trained")
        if pass_tracer is not None:
            tracer, traced_window, timings = pass_tracer, (lo, hi), rep.timings
        else:
            walls.append(hi - lo)
        written.append(tree_bytes(store_dir))
        digests.append(digest(_rendered(rep)))
        note(f"report-cold: pass {i} {hi - lo:.4f}s "
             f"{'traced' if pass_tracer else 'untraced'}, "
             f"{rep.gcod_runs} trainings, {written[-1]} bytes written")
        warm_walls += _warm_reruns(store_dir, names, rep, ledger,
                                   0 if trace else WARM_PER_PASS)
        last_ctx, last_tasks, last_run, last_dir = ctx, tasks, rep, store_dir
        i += 1
        if trace and i >= 2:
            break

    ledger.check("cold passes render identical results",
                 len(set(digests)) == 1, str(digests))
    accuracy = 100.0 * mean(
        last_ctx.gcod(t.dataset, t.arch).accuracy_final for t in last_tasks)
    paper_gap = paper_gap_pct(last_ctx, [
        (ds, arch, last_ctx.gcod_workload(ds, arch))
        for ds, arch in SHAPE_CHECK_DEPS], "report-cold")

    note(f"report-cold: recomputed reports {[round(t, 4) for t in warm_walls]}"
         " s")
    note(f"digest report-cold {digests[-1]}")
    note(f"report-cold: backend {last_tasks[0].kernel_backend}")

    if trace:
        lo, hi = traced_window
        traced = hi - lo
        out = layers.attribution(tracer.finished_spans(), tracer.counts,
                                 lo, hi)
        for name in layers.REPORT_EXPERIMENTS:
            out[f"evaluation.{name}_s"] = timings.get(name, 0.0)
        out["trace.overhead_pct"] = 100.0 * (traced / walls[0] - 1.0)
        note("report-cold: traced self time by span")
        for line in layers.layer_table(tracer.finished_spans()):
            note(line)
        return {"per_layer": out,
                "backends": [t.kernel_backend for t in last_tasks]}

    return {
        "end_to_end": {
            "setup_s": metric(median(setup), "s"),
            "cold_s": metric(median(walls), "s"),
            "warm_ops_per_s": metric(1.0 / median(warm_walls), "1/s"),
            "paper_gap_pct": metric(paper_gap, "%"),
            "gcod_accuracy_pct": metric(accuracy, "%"),
            "store_written_mb": metric(median(written) / 2**20, "MB"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "backends": [t.kernel_backend for t in last_tasks],
    }

