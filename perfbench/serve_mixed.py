"""Workload ``serve-mixed``: ``repro serve`` under warm and cold traffic.

A ``repro serve`` subprocess (CLI defaults: one training worker, 16-request
/ 5 ms micro-batch window) over a fresh store. Set-up starts it and
prewarms five keys (each trains once). Then, on one connection:

1. **warm saturation** — a closed loop with 32 requests outstanding over
   the prewarmed keys, in six windows of ``WARM_SHARE`` of ``--seconds``
   each: first, after each rate of the ladder and after the mixed phase.
   The machine's speed drifts over tens of seconds, so ``warm_ops_per_s``
   is the median of windows spread across the run;
2. **rate ladder** — open-loop Poisson arrivals of warm queries at fixed
   rates, 1000 requests each (enough for p99): p50/p99 per rate, printed
   as diagnostic lines, and the knee (the highest rate whose p99 stays
   within ``LATENCY_LIMIT_MS``), a per-layer metric. Not gated: it swings
   run to run;
3. **mixed** — a Poisson stream of warm queries at ``MIXED_RATE`` while
   six bursts of identical cold queries, one per never-trained key, each
   train once. ``cold_s`` sums each burst's time from its due time to
   its last answer; the per-layer ``serve.warm_p50_during_train_ms`` is
   the median latency of the warm queries due while a burst was training.

``paper_gap_pct`` is read afterwards from the service's store: the
GCoD-over-AWB-GCN speedup of all eleven keys' pipelines, none retrained.

Open-loop latencies are timed from each request's due time. Inputs from
the seed: the warm key mix, every arrival schedule, the bursts' order,
sizes and gaps. The server's context seed stays 0 and the key sets are
fixed, so the trained pipelines and answers do not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.common import (
    Ledger,
    canonical,
    digest,
    fresh_dir,
    median,
    metric,
    note,
    paper_gap_pct,
    peak_rss_mb,
    percentile,
    tree_bytes,
)
from perfbench.loadgen import (
    Conn,
    OpenLoop,
    Record,
    burst_plan,
    closed_loop,
    key_mix,
    poisson_offsets,
)

SCALES = "cora=0.1,citeseer=0.1,pubmed=0.02"
WARM_KEYS = (("cora", "gcn"), ("citeseer", "gcn"), ("pubmed", "gcn"),
             ("pubmed", "sage"), ("cora", "sage"))
#: One cold burst per key; together about nine seconds of training.
COLD_KEYS = (("cora", "gin"), ("pubmed", "gat"), ("citeseer", "sage"),
             ("cora", "gat"), ("pubmed", "gin"), ("citeseer", "gin"))
OUTSTANDING = 32
#: Share of --seconds each of the six warm-saturation windows runs for.
WARM_SHARE = 0.2
LADDER_RATES = (250, 500, 1000, 1500)
LADDER_REQUESTS = 1000
LATENCY_LIMIT_MS = 50.0
MIXED_RATE = 100.0


def phase_rng(seed: int, phase: str) -> random.Random:
    """Each phase draws from its own stream of the workload seed."""
    return random.Random(f"{seed}/{phase}")


class Server:
    """A ``repro serve`` subprocess; traced through the host script."""

    def __init__(self, root: str, work: str, store: str, cpu=None,
                 trace_out=None):
        cmd = [sys.executable, os.path.join(root, "perfbench", "serve_host.py")]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", "--cache-dir", store, "serve", "--port", "0",
                "--seed", "0", "--dataset-scale", SCALES]
        self.stderr = open(os.path.join(work, "server.log"), "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        addr = line.split("listening on", 1)[1].split()[0]
        self.host, _, port = addr.partition(":")
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self.stderr.close()


def _ok(rec: Record) -> bool:
    return rec.response is not None and rec.response.get("status") == "ok"


class Payloads:
    """Canonical answer bytes per key: repeated keys must answer identically."""

    def __init__(self) -> None:
        self.by_key: Dict[Tuple[str, str], bytes] = {}
        self.mismatches: List[str] = []

    def add(self, key, response: dict) -> None:
        blob = canonical(response.get("result"))
        first = self.by_key.setdefault(tuple(key), blob)
        if first != blob:
            self.mismatches.append("/".join(key))


def _phase(ledger: Ledger, name: str, records: Sequence[Record],
           payloads: Payloads, source: Optional[str]) -> dict:
    """Count sent/ok/failed; every ok answer feeds the payload check."""
    ok = 0
    for rec in records:
        good = _ok(rec) and (source is None
                             or rec.response.get("source") == source)
        ledger.op(good, f"{name}: {rec.key} answered "
                        f"{rec.response and rec.response.get('status')}")
        if good:
            ok += 1
            payloads.add(rec.key, rec.response)
    counts = {"sent": len(records), "ok": ok, "failed": len(records) - ok}
    note(f"serve-mixed: phase {name}: {counts}")
    return counts


def _ladder(conn: Conn, rng: random.Random, ledger: Ledger,
            payloads: Payloads, between) -> Tuple[float, List[Record]]:
    """The knee of the rate ladder; per-rate p50/p99 are diagnostic lines.

    ``between()`` runs after each rate: a warm-saturation window.
    """
    knee = 0.0
    records: List[Record] = []
    for rate in LADDER_RATES:
        offsets = poisson_offsets(rng, rate, LADDER_REQUESTS)
        keys = key_mix(rng, WARM_KEYS, LADDER_REQUESTS)
        loop = OpenLoop(conn, list(zip(offsets, keys)))
        loop.run()
        recs = list(loop.records.values())
        records += recs
        counts = _phase(ledger, f"ladder@{rate}", recs, payloads, "warm")
        lat = [1e3 * r.latency for r in recs if _ok(r)]
        p99 = percentile(lat, 99)
        if counts["failed"] == 0 and p99 is not None \
                and p99 <= LATENCY_LIMIT_MS:
            knee = float(rate)
        note(f"serve-mixed: ladder {rate}/s: n={len(lat)} "
             f"p50={percentile(lat, 50)} p99={p99} ms, late p99 "
             f"{percentile([1e3 * r.late for r in recs], 99)} ms")
        between()
    return knee, records


def _mixed(conn: Conn, rng: random.Random, ledger: Ledger,
           payloads: Payloads) -> dict:
    bursts = burst_plan(rng, COLD_KEYS)
    # Enough warm arrivals for far longer than the bursts can take.
    offsets = poisson_offsets(rng, MIXED_RATE, int(MIXED_RATE * 60))
    keys = key_mix(rng, WARM_KEYS, len(offsets))
    runs_before = conn.stats()["gcod_runs"]
    loop = OpenLoop(conn, list(zip(offsets, keys)), bursts)
    loop.run()
    runs = conn.stats()["gcod_runs"] - runs_before
    recs = list(loop.records.values())
    warm = [r for r in recs if r.kind == "warm"]
    counts = _phase(ledger, "mixed-warm", warm, payloads, "warm")
    cold_total = 0.0
    for k, (burst, (lo, hi)) in enumerate(zip(bursts, loop.burst_windows)):
        members = [r for r in recs if r.kind == f"burst{k}"]
        c = _phase(ledger, f"burst{k} {'/'.join(burst.key)}", members,
                   payloads, "cold")
        for key in ("sent", "ok", "failed"):
            counts[key] += c[key]
        batch_ids = {r.response.get("batch_id") for r in members if _ok(r)}
        ledger.check(f"burst {k} is answered by one training dispatch",
                     len(batch_ids) == 1 and len(members) == burst.size,
                     f"batch ids {sorted(batch_ids)}")
        cold_total += hi - lo
    ledger.check("one training per cold burst", runs == len(bursts),
                 f"{runs} trainings for {len(bursts)} bursts")
    during = [1e3 * r.latency for r in warm if _ok(r) and any(
        lo <= r.due <= hi for lo, hi in loop.burst_windows)]
    p50 = percentile(during, 50)
    ledger.check("enough warm samples during training for a p50",
                 p50 is not None, f"{len(during)} samples")
    note(f"serve-mixed: bursts {[(b.key, b.size, b.gap) for b in bursts]}, "
         f"windows {[round(hi - lo, 4) for lo, hi in loop.burst_windows]} s, "
         f"{len(during)} warm samples during training")
    late = [1e3 * r.late for r in recs]
    late_p99 = percentile(late, 99)
    return {
        "counts": counts,
        "cold_s": cold_total,
        "warm_p50_during_train_ms": p50 or 0.0,
        "trainings_per_burst": runs / len(bursts),
        "late_ms": max(late) if late_p99 is None else late_p99,
        "records": recs,
    }


def _warm(conn: Conn, rng: random.Random, seconds: float, ledger: Ledger,
          payloads: Payloads) -> Tuple[float, dict]:
    keys = iter(lambda: WARM_KEYS[rng.randrange(len(WARM_KEYS))], None)
    recs, window = closed_loop(conn, keys, OUTSTANDING, WARM_SHARE * seconds)
    counts = _phase(ledger, "warm-closed", recs, payloads, "warm")
    start = recs[0].sent
    done = sum(1 for r in recs if _ok(r) and r.recv <= start + window)
    qps = done / window
    note(f"serve-mixed: warm closed loop, {OUTSTANDING} outstanding: "
         f"{qps:.1f} q/s over {window:.2f}s")
    return qps, counts


def _prewarm(conn: Conn, ledger: Ledger, payloads: Payloads) -> None:
    for key in WARM_KEYS:
        response = conn.query(key)
        if ledger.op(response.get("status") == "ok",
                     f"prewarm {key}: {response.get('error')}"):
            payloads.add(key, response)


def _paper_gap(store: str, ledger: Ledger) -> float:
    """The paper gap of every key's pipeline, read from the service's store
    through a context built the way ``repro serve`` builds its own."""
    from dataclasses import replace

    from repro.evaluation import EvalContext
    from repro.runtime.counters import gcod_run_count
    from repro.runtime.store import ArtifactStore

    ctx = replace(EvalContext(profile="fast", store=ArtifactStore(store)),
                  dataset_scales={name: float(scale) for name, scale in (
                      part.split("=") for part in SCALES.split(","))},
                  seed=0)
    runs = gcod_run_count()
    gap = paper_gap_pct(ctx, [(ds, arch, ctx.gcod_workload(ds, arch))
                              for ds, arch in WARM_KEYS + COLD_KEYS],
                        "serve-mixed")
    ledger.check("the service's pipelines are read back, not retrained",
                 gcod_run_count() == runs,
                 f"{gcod_run_count() - runs} trainings")
    return gap


def run(root: str, work: str, seed: int, seconds: float, trace: bool,
        ledger: Ledger) -> Dict[str, dict]:
    store = fresh_dir(os.path.join(work, "store"))
    payloads = Payloads()
    # The service and the load generator get a CPU each, so the client
    # never competes with the service it measures.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[-1] if len(cpus) > 1 else None
    if server_cpu is not None:
        os.sched_setaffinity(0, set(cpus[:-1]))
        note(f"serve-mixed: service pinned to CPU {server_cpu}, load "
             f"generator to CPUs {cpus[:-1]}")

    start = time.perf_counter()
    server = Server(root, work, store, server_cpu)
    try:
        conn = Conn(server.host, server.port)
        _prewarm(conn, ledger, payloads)
        setup = time.perf_counter() - start
        written_before = tree_bytes(store)
        note(f"serve-mixed: set-up {setup:.4f}s (start + {len(WARM_KEYS)} "
             "prewarm trainings)")
        warm_rng = phase_rng(seed, "warm")
        windows = [_warm(conn, warm_rng, seconds, ledger, payloads)]
        if trace:
            # Same store, traced server: everything below is attributed.
            untraced_qps = windows[0][0]
            conn.close()
            server.stop()
            trace_out = os.path.join(work, "server-trace.json")
            server = Server(root, work, store, server_cpu, trace_out)
            conn = Conn(server.host, server.port)
            _prewarm(conn, ledger, payloads)
            warm_rng = phase_rng(seed, "warm")
            windows = [_warm(conn, warm_rng, seconds, ledger, payloads)]
        knee, ladder_recs = _ladder(
            conn, phase_rng(seed, "ladder"), ledger, payloads,
            lambda: windows.append(
                _warm(conn, warm_rng, seconds, ledger, payloads)))
        mixed = _mixed(conn, phase_rng(seed, "mixed"), ledger, payloads)
        windows.append(_warm(conn, warm_rng, seconds, ledger, payloads))
        warm_qps = median(qps for qps, _ in windows)
        for key in COLD_KEYS:  # now warm: same answer as the burst got
            response = conn.query(key)
            ledger.op(response.get("status") == "ok"
                      and response.get("source") == "warm",
                      f"re-query {key} after its burst")
            payloads.add(key, response)
        stats = conn.stats()
        rss = server.peak_rss_mb()
        written = tree_bytes(store) - written_before
        conn.close()
    finally:
        server.stop()

    ledger.check("repeated keys answer byte-identical payloads",
                 not payloads.mismatches, ", ".join(payloads.mismatches))
    ledger.check("every key answered", len(payloads.by_key)
                 == len(WARM_KEYS) + len(COLD_KEYS))
    blob = canonical({"/".join(k): json.loads(v)
                      for k, v in sorted(payloads.by_key.items())})
    note(f"digest serve-mixed {digest(blob)}")
    answers = [json.loads(v) for v in payloads.by_key.values()]
    accuracy = 100.0 * mean(a["accuracy_final"] for a in answers)
    backends = [r.response["kernel_backend"] for r in mixed["records"]
                if _ok(r)]

    if trace:
        with open(trace_out) as fh:
            traced = json.load(fh)
        for line in traced["table"]:
            note(line)
        out = dict(traced["per_layer"])
        sent = (sum(c["sent"] for _, c in windows) + len(ladder_recs)
                + mixed["counts"]["sent"])
        ok = (sum(c["ok"] for _, c in windows) + mixed["counts"]["ok"]
              + sum(1 for r in ladder_recs if _ok(r)))
        out.update({
            "serve.knee_qps": knee,
            "serve.warm_p50_during_train_ms":
                mixed["warm_p50_during_train_ms"],
            "serve.sent": float(sent),
            "serve.ok": float(ok),
            "serve.failed": float(sent - ok),
            "serve.warm_hits": float(stats["warm_hits"]),
            "serve.cold_misses": float(stats["cold_misses"]),
            "serve.batches": float(stats["batches"]),
            "serve.trainings_per_burst": mixed["trainings_per_burst"],
            "serve.gen_late_ms": mixed["late_ms"],
            "trace.overhead_pct": 100.0 * (untraced_qps / warm_qps - 1.0),
        })
        return {"per_layer": out, "backends": backends}

    return {
        "end_to_end": {
            "setup_s": metric(setup, "s"),
            "cold_s": metric(mixed["cold_s"], "s"),
            "warm_ops_per_s": metric(warm_qps, "1/s"),
            "paper_gap_pct": metric(_paper_gap(store, ledger), "%"),
            "gcod_accuracy_pct": metric(accuracy, "%"),
            "store_written_mb": metric(written / 2**20, "MB"),
            "peak_rss_mb": metric(rss, "MB"),
        },
        "backends": backends,
    }
