#!/usr/bin/env python3
"""Run ``repro serve`` in this process, optionally traced.

Usage (from the root of a checkout)::

    python3 perfbench/serve_host.py --trace-out FILE -- <repro CLI args>

With ``--trace-out`` the layer wrappers of :mod:`perfbench.layers` are
installed (service-side spans included) before the service starts, and
when the service stops on SIGINT the per-layer rollup of its spans is
written to FILE as JSON. Without it this is plain ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the service to this CPU")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args and repro_args[0] == "--":
        repro_args = repro_args[1:]
    if args.cpu is not None:
        # Before numpy loads, so its BLAS pool sizes itself to this CPU.
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from repro.cli import main as repro_main

    if args.trace_out is None:
        return repro_main(repro_args)

    from perfbench import layers
    from perfbench.tracing import Tracer

    tracer = Tracer()
    layers.install(tracer, serve=True)
    lo = time.perf_counter()
    try:
        code = repro_main(repro_args)
    finally:
        hi = time.perf_counter()
        tracer.uninstall()
    spans = tracer.finished_spans()
    out = layers.attribution(spans, tracer.counts, lo, hi, tracer.samples)
    with open(args.trace_out, "w") as fh:
        json.dump({"per_layer": out, "table": layers.layer_table(spans)}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
