#!/usr/bin/env python
"""Benchmark ``repro serve``: cold batching + sustained warm throughput.

Drives a real ``python -m repro serve`` subprocess (own artifact store,
fast-profile scales) through three phases and writes ``BENCH_serve.json``
so CI can chart the trajectory PR over PR:

* **cold** — the first query per (dataset, arch) trains through the
  micro-batch path; per-query wall times recorded.
* **batching** — a pipelined burst of identical cold queries on one
  connection; the server must answer every one from a *single* training
  dispatch (the stats op's ``gcod_runs`` delta is asserted to be exactly
  1, and every response must carry the same batch id).
* **warm closed-loop** — several client threads hammer the now-cached
  queries for a fixed number of requests each; queries/sec, p50/p99
  latency, and the warm-hit ratio come out of this phase. The warm-hit
  ratio must be exactly 1.0 (zero training on repeated queries) — that
  gate is hard-coded, not a flag.

Gates: warm-hit ratio == 1.0 (always); ``--max-p99-ratio R`` fails the
run if warm p99 exceeds ``R``x warm p50 (CI passes 10); the batching
phase hard-fails on more than one training run.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --max-p99-ratio 10
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.runtime import CODE_SCHEMA_VERSION
from repro.serve import ServeClient
from repro.serve.schema import SOURCE_COLD, SOURCE_WARM
from repro.utils import effective_cpu_count

#: Fast, deterministic scales — every phase keys into the same series.
SCALES = "cora=0.1,citeseer=0.1"
COLD_SPECS = (("cora", "gcn"),)
#: The batching phase needs a key nothing has trained yet.
BATCH_SPEC = ("citeseer", "gcn")
BATCH_BURST = 6
WARM_SPEC = ("cora", "gcn")


def start_server(store_root: str, max_batch: int, max_wait_ms: float):
    """Spawn ``repro serve`` and parse the readiness line for the port."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--cache-dir", store_root,
         "serve", "--port", "0", "--max-batch", str(max_batch),
         "--max-wait-ms", str(max_wait_ms),
         "--dataset-scale", SCALES],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before listening (rc={proc.poll()})"
            )
        if "listening on" in line:
            addr = line.split("listening on", 1)[1].split()[0]
            host, _, port = addr.partition(":")
            return proc, host, int(port)
    proc.kill()
    raise RuntimeError("server never printed its listening line")


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def bench_cold(client: ServeClient):
    rows = []
    for dataset, arch in COLD_SPECS:
        start = time.perf_counter()
        response = client.query(dataset, arch)
        wall = time.perf_counter() - start
        assert response.source == SOURCE_COLD, (
            f"{dataset}/{arch} answered {response.source}; expected a "
            f"cold store"
        )
        rows.append({"dataset": dataset, "arch": arch,
                     "wall_s": round(wall, 4),
                     "batch_size": response.batch_size})
    return rows


def bench_batching(client: ServeClient):
    """A pipelined burst of identical cold queries = one training run."""
    before = client.stats()["gcod_runs"]
    start = time.perf_counter()
    responses = client.query_many([BATCH_SPEC] * BATCH_BURST)
    wall = time.perf_counter() - start
    after = client.stats()["gcod_runs"]
    batch_ids = sorted({r.batch_id for r in responses})
    sources = [r.source for r in responses]
    return {
        "burst": BATCH_BURST,
        "wall_s": round(wall, 4),
        "gcod_runs": after - before,
        "batch_ids": batch_ids,
        "batch_sizes": sorted({r.batch_size for r in responses}),
        "sources": sorted(set(sources)),
    }


def bench_warm(host: str, port: int, clients: int, requests_each: int):
    """Closed-loop warm load: every thread owns one connection."""
    latencies_by_thread = [[] for _ in range(clients)]
    sources_ok = [True] * clients

    def worker(idx: int) -> None:
        with ServeClient(host, port) as client:
            client.query(*WARM_SPEC)  # connection warm-up, not timed
            for _ in range(requests_each):
                start = time.perf_counter()
                response = client.query(*WARM_SPEC)
                latencies_by_thread[idx].append(
                    time.perf_counter() - start)
                if response.source != SOURCE_WARM:
                    sources_ok[idx] = False

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    latencies = [s for per in latencies_by_thread for s in per]
    total = len(latencies)
    p50 = percentile(latencies, 50)
    p99 = percentile(latencies, 99)
    return {
        "clients": clients,
        "requests": total,
        "wall_s": round(wall, 4),
        "qps": round(total / max(wall, 1e-9), 1),
        "p50_ms": round(p50 * 1e3, 3),
        "p99_ms": round(p99 * 1e3, 3),
        "p99_over_p50": round(p99 / max(p50, 1e-9), 2),
        "all_warm": all(sources_ok),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--clients", type=int, default=None,
                        help="warm-phase client threads (default: "
                             "min(4, effective CPUs + 1))")
    parser.add_argument("--requests", type=int, default=50,
                        help="warm requests per client (default: 50)")
    parser.add_argument("--max-p99-ratio", type=float, default=None,
                        help="fail if warm p99 > RATIO x p50 "
                             "(default: record only)")
    args = parser.parse_args(argv)

    cpus = effective_cpu_count()
    clients = args.clients or min(4, cpus + 1)

    store_root = tempfile.mkdtemp(prefix="bench-serve-store-")
    proc = None
    try:
        proc, host, port = start_server(store_root, max_batch=8,
                                        max_wait_ms=25.0)
        with ServeClient(host, port) as client:
            assert client.ping()
            cold = bench_cold(client)
            batching = bench_batching(client)
            warm = bench_warm(host, port, clients, args.requests)
            stats = client.stats()
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=10)
        shutil.rmtree(store_root, ignore_errors=True)

    # The warm phase re-queries one already-trained key: every response
    # must be warm and the server must not have trained anything beyond
    # the cold + batching dispatches.
    expected_runs = len(COLD_SPECS) + batching["gcod_runs"]
    warm_hit_ratio = 1.0 if (warm["all_warm"]
                             and stats["gcod_runs"] == expected_runs) \
        else stats["warm_hits"] / max(stats["requests"], 1)

    payload = {
        "benchmark": "batched `repro serve` inference service",
        "schema": CODE_SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": cpus,
        "scales": SCALES,
        "cold": cold,
        "batching": batching,
        "warm": warm,
        "warm_hit_ratio": warm_hit_ratio,
        "server_stats": stats,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    cold_bits = ", ".join(
        f"{r['dataset']}/{r['arch']} {r['wall_s']:.2f}s" for r in cold
    )
    print(f"cold: {cold_bits}")
    print(f"batching: {batching['burst']} pipelined queries -> "
          f"{batching['gcod_runs']} training run(s), "
          f"batch sizes {batching['batch_sizes']}")
    print(f"warm: {warm['requests']} requests, {warm['clients']} clients: "
          f"{warm['qps']} q/s, p50 {warm['p50_ms']}ms, "
          f"p99 {warm['p99_ms']}ms (ratio {warm['p99_over_p50']}x)")
    print(f"-> {args.out}")

    failed = False
    if warm_hit_ratio != 1.0:
        print(f"FAIL: warm-hit ratio {warm_hit_ratio} != 1.0 "
              f"(server trained on repeated queries)", file=sys.stderr)
        failed = True
    if batching["gcod_runs"] != 1:
        print(f"FAIL: pipelined burst cost {batching['gcod_runs']} "
              f"training runs; the micro-batch window must coalesce "
              f"them into 1", file=sys.stderr)
        failed = True
    if args.max_p99_ratio is not None \
            and warm["p99_over_p50"] > args.max_p99_ratio:
        print(f"FAIL: warm p99 is {warm['p99_over_p50']}x p50 "
              f"(gate: {args.max_p99_ratio}x)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
