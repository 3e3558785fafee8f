#!/usr/bin/env python
"""Benchmark cold vs warm ``repro report`` and write ``BENCH_report.json``.

Runs the selected experiments twice against a throwaway artifact store:

* **cold** — empty store; GCoD dependencies train (optionally in a process
  pool via ``--jobs``), everything persists;
* **warm** — a fresh context against the now-populated store; zero
  training runs, results load from disk.

The JSON written to ``--out`` records both wall times, the speedup ratio,
per-experiment render timings for each pass, the training-run counters
and the bytes the cold pass left in the store per artifact kind — so CI
can chart the perf trajectory PR over PR. With ``--min-speedup`` the
script exits non-zero if the warm pass isn't at least that many times
faster (the acceptance gate is 5x); with ``--max-store-mb`` it exits
non-zero if the cold store holds more than that many MB (node features
are stored as CSR, so a dense copy coming back trips it).

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py --out BENCH_report.json
    PYTHONPATH=src python benchmarks/bench_report.py --full --jobs 4
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time

from repro.evaluation import EvalContext
from repro.evaluation.report import report_results
from repro.runtime import CODE_SCHEMA_VERSION, counters
from repro.runtime.store import ArtifactStore

#: Default subset: covers trained experiments (fig04 needs three GCoD
#: runs, reordering shares one) plus static tables, without the
#: multi-model sweeps — keeps a CI runner under a minute.
DEFAULT_EXPERIMENTS = ["tab03", "tab04", "tab05", "fig04", "reordering"]

#: Reduced scales for CI; the scales are part of every cache key, so the
#: cold and warm passes must (and do) share them.
BENCH_SCALES = {"cora": 0.1, "citeseer": 0.08, "pubmed": 0.02}


def run_pass(store_root: str, names, jobs: int, scales):
    ctx = EvalContext(profile="fast", store=ArtifactStore(store_root))
    ctx.dataset_scales = dict(scales)
    counters.reset_counters()
    start = time.perf_counter()
    run = report_results(ctx, names=names, jobs=jobs)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "gcod_runs_in_parent": counters.gcod_run_count(),
        "cache_hits": sorted(run.cache_hits),
        "timings_s": {k: round(v, 4) for k, v in run.timings.items()},
        "unique_gcod_deps": run.deps_total,
        "gcod_tasks_executed": run.tasks_executed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_report.json")
    parser.add_argument("--jobs", "-j", type=int, default=2,
                        help="pool width for the cold pass")
    parser.add_argument("--experiments", default=",".join(DEFAULT_EXPERIMENTS),
                        help="comma-separated experiment names")
    parser.add_argument("--full", action="store_true",
                        help="benchmark the complete report at the standard "
                             "fast-profile scales (minutes, not seconds)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if warm is not at least this "
                             "many times faster than cold")
    parser.add_argument("--max-store-mb", type=float, default=None,
                        help="exit non-zero if the cold pass's store holds "
                             "more than this many MB")
    args = parser.parse_args(argv)

    names = None if args.full else [
        n.strip() for n in args.experiments.split(",") if n.strip()
    ]
    scales = {} if args.full else BENCH_SCALES

    store_root = tempfile.mkdtemp(prefix="bench-report-store-")
    try:
        cold = run_pass(store_root, names, args.jobs, scales)
        store_bytes = {
            kind: int(row["bytes"])
            for kind, row in ArtifactStore(store_root).stats().items()
            if kind != "tmp"
        }
        warm = run_pass(store_root, names, jobs=1, scales=scales)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    speedup = cold["wall_s"] / max(warm["wall_s"], 1e-9)
    store_mb = store_bytes["total"] / 2**20
    payload = {
        "benchmark": "cold vs warm `repro report`",
        "schema": CODE_SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "experiments": names or "all",
        "jobs_cold": args.jobs,
        "cold": cold,
        "warm": warm,
        "warm_speedup": round(speedup, 2),
        "cold_store_bytes": store_bytes,
        "cold_store_mb": round(store_mb, 3),
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    print(f"cold: {cold['wall_s']:.2f}s "
          f"({cold['gcod_tasks_executed']} GCoD runs)  "
          f"warm: {warm['wall_s']:.2f}s "
          f"({warm['gcod_runs_in_parent']} GCoD runs)  "
          f"speedup: {speedup:.1f}x  store: {store_mb:.2f} MB  "
          f"-> {args.out}")

    if warm["gcod_runs_in_parent"] != 0:
        print("FAIL: warm pass performed training runs", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: warm speedup {speedup:.1f}x < "
              f"required {args.min_speedup}x", file=sys.stderr)
        return 1
    if args.max_store_mb is not None and store_mb > args.max_store_mb:
        print(f"FAIL: cold store holds {store_mb:.2f} MB > "
              f"allowed {args.max_store_mb} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
