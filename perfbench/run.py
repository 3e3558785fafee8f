#!/usr/bin/env python3
"""The repository's benchmark: three workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``report-cold`` — a cold ``report_results(["tab06", "multi-tenant"])``
  over an empty store: training-bound (:mod:`perfbench.report_cold`);
* ``dse-grid`` — a 432-point single-model design-space grid evaluated
  from warm pipelines: accelerator-model-bound
  (:mod:`perfbench.dse_grid`);
* ``serve-mixed`` — a ``repro serve`` subprocess under warm saturation,
  an open-loop rate ladder and cold bursts beside a Poisson warm stream
  (:mod:`perfbench.serve_mixed`).

``--seconds`` sets how long the timed phase repeats: report-cold runs
cold passes until it has elapsed (at least three, each followed by warm
recomputations), dse-grid runs sweep passes until it has elapsed (at least
six, each followed by re-reads), serve-mixed runs each of its six
warm-saturation windows for 0.2 of it; the ladder and the mixed phase
have a fixed size.

The program always runs with ``jobs=1`` (the CLI default): in this
process for report-cold and dse-grid, in one service subprocess for
serve-mixed (pinned to one CPU, the load generator to the other). With
``--trace 0`` the last stdout line carries the end-to-end metrics,
measured untraced; with ``--trace 1`` it carries the per-layer metrics of
a traced pass, attributed by the wrappers in :mod:`perfbench.layers`.
Every workload prints every metric ``BENCHMARK.json`` lists for the mode,
so the shared end-to-end names mean the workload's own cold unit of work
(``cold_s``) and warm rate (``warm_ops_per_s``), and a layer the workload
does not load reads 0.
Earlier stdout lines are diagnostics: the fingerprint, one
``digest <workload> <sha256>`` line of the program's outputs, the checks
that failed and the traced attribution table.

Scratch files live under ``.perfbench_work/`` in the checkout and are
removed at exit. The program comes from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("report-cold", "dse-grid", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed phase measures (at least "
                             "the workload's minimum number of passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src; nothing to "
              "benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from perfbench import dse_grid, report_cold, serve_mixed
    from perfbench.common import Ledger, emit_result, fingerprint, metric, note

    module = {"report-cold": report_cold, "dse-grid": dse_grid,
              "serve-mixed": serve_mixed}[args.workload]
    # Taken before the workload runs: serve-mixed pins this process to a
    # CPU of its own once the service starts.
    facts = fingerprint(ROOT)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    ledger = Ledger()
    try:
        out = module.run(ROOT, work, args.seed, args.seconds,
                         bool(args.trace), ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there

    facts.update(kernel_backend=sorted(set(out["backends"])) or ["unresolved"],
                 workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace)
    note("fingerprint " + json.dumps(facts, sort_keys=True))
    units = manifest_units(bool(args.trace))
    if args.trace:
        values = out["per_layer"]
    else:
        values = {name: m["value"] for name, m in out["end_to_end"].items()}
        wrong = [name for name, m in out["end_to_end"].items()
                 if units.get(name, m["unit"]) != m["unit"]]
        if wrong:
            raise SystemExit(f"perfbench: units differ from BENCHMARK.json "
                             f"for {wrong}")
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: {args.workload} measured {sorted(set(values))}, "
            f"BENCHMARK.json names {sorted(set(units))}")
    emit_result(ledger, {name: metric(values[name], unit)
                         for name, unit in units.items()})
    return 0


def manifest_units(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for this mode.

    Every workload prints every one of them, in the manifest's order.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    raise SystemExit(main())
