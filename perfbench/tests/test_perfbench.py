"""Tests of the benchmark's own logic (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import socketserver
import sys
import threading
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import dse_grid, layers, report_cold, serve_mixed  # noqa: E402
from perfbench.common import (  # noqa: E402
    Ledger,
    percentile,
    percentile_supported,
)
from perfbench.loadgen import (  # noqa: E402
    Burst,
    Conn,
    OpenLoop,
    burst_plan,
    key_mix,
    poisson_offsets,
)
from perfbench.tracing import (  # noqa: E402
    Tracer,
    covered_by_roots,
    rollup,
    self_times,
    union_length,
)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_same_seed_same_grid_and_different_seed_different_grid():
    assert dse_grid.grid_axes(7) == dse_grid.grid_axes(7)
    assert dse_grid.grid_axes(7) != dse_grid.grid_axes(8)
    axes = dse_grid.grid_axes(7)
    n = 1
    for values in axes.values():
        assert len(set(values)) == len(values)
        n *= len(values)
    assert n == 432


def test_same_seed_same_key_mix_schedule_and_bursts():
    def draw(seed):
        rng = serve_mixed.phase_rng(seed, "mixed")
        return (burst_plan(rng, serve_mixed.COLD_KEYS),
                poisson_offsets(rng, 100.0, 50),
                key_mix(rng, serve_mixed.WARM_KEYS, 50))

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    bursts, offsets, _ = draw(3)
    assert sorted(b.key for b in bursts) == sorted(serve_mixed.COLD_KEYS)
    assert all(4 <= b.size <= 8 for b in bursts)
    assert offsets == sorted(offsets) and offsets[0] > 0


def test_poisson_offsets_have_the_requested_rate():
    offsets = poisson_offsets(random.Random(1), 500.0, 5000)
    assert 450 < len(offsets) / offsets[-1] < 550


def test_report_order_is_a_seeded_permutation():
    assert report_cold.experiment_order(5) == report_cold.experiment_order(5)
    orders = {tuple(report_cold.experiment_order(s)) for s in range(20)}
    assert orders == {("tab06", "multi-tenant"), ("multi-tenant", "tab06")}


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([(3, 1)]) == 0
    assert union_length([]) == 0


def test_self_time_with_nested_children():
    spans = [
        ("root", 0.0, 10.0, None, 1),
        ("child", 1.0, 4.0, 0, 1),
        ("grandchild", 2.0, 3.0, 1, 1),
        ("child", 5.0, 6.0, 0, 1),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    table = rollup(spans)
    assert table["child"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    # Self times add up to the root's wall time: nothing counted twice.
    assert sum(self_times(spans)) == 10.0


def test_self_time_with_overlapping_and_overhanging_children():
    spans = [
        ("parent", 0.0, 10.0, None, 1),
        ("a", 1.0, 5.0, 0, 2),   # children on other threads overlap
        ("b", 3.0, 7.0, 0, 3),
        ("c", 9.0, 12.0, 0, 4),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_unattributed_time_is_what_no_root_span_covers():
    spans = [("a", 1.0, 3.0, None, 1), ("b", 2.0, 4.0, None, 2),
             ("c", 2.5, 3.5, 0, 1)]
    assert covered_by_roots(spans, 0.0, 10.0) == 3.0


def test_tracer_records_parents_per_thread_and_restores_originals():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original_outer = Box.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap_method(Box, "outer", "box.outer")
    tracer.wrap_method(Box, "inner", "box.inner",
                       lambda a, k, r: tracer.count("inner.calls", r))
    tracer.enabled = True
    assert Box().outer() == 2
    tracer.uninstall()
    assert Box.__dict__["outer"] is original_outer
    spans = tracer.finished_spans()
    assert [(s[0], s[3]) for s in spans] == [("box.outer", None),
                                             ("box.inner", 0)]
    assert tracer.counts["inner.calls"] == 1
    assert Box().outer() == 2 and len(tracer.finished_spans()) == 2


def test_layer_install_rebinds_everywhere_and_uninstall_restores():
    import repro.evaluation.context as context
    import repro.hardware as hardware
    import repro.hardware.workload as workload

    before = (workload.extract_workload, hardware.extract_workload,
              context.extract_workload)
    assert len(set(map(id, before))) == 1
    tracer = Tracer()
    layers.install(tracer)
    wrapped = (workload.extract_workload, hardware.extract_workload,
               context.extract_workload)
    assert len(set(map(id, wrapped))) == 1 and wrapped[0] is not before[0]
    tracer.uninstall()
    assert (workload.extract_workload, hardware.extract_workload,
            context.extract_workload) == before


# ----------------------------------------------------------------------
# percentiles and spread
# ----------------------------------------------------------------------
def test_percentiles_only_where_the_sample_count_supports_them():
    assert not percentile_supported(19, 50)
    assert percentile_supported(20, 50)
    assert not percentile_supported(999, 99)
    assert percentile_supported(1000, 99)
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(21)), 50) == 10
    assert percentile(list(range(999)), 99) is None
    assert percentile([float(i) for i in range(1001)], 99) == 990.0


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_a_failed_check_raises_the_failure_count():
    ledger = Ledger()
    ledger.op(True)
    assert ledger.check("fine", True)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 0, True)
    assert not ledger.check("digest", False, "a != b")
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 1, False)
    assert ledger.failures == ["check digest failed: a != b"]


def test_phase_counts_wrong_source_and_errors_as_failed():
    from perfbench.loadgen import Record

    recs = [Record("warm", ("cora", "gcn"), 0.0, response=r) for r in (
        {"status": "ok", "source": "warm", "result": {"x": 1}},
        {"status": "ok", "source": "cold", "result": {"x": 1}},
        {"status": "error", "error": "boom"},
    )] + [Record("warm", ("cora", "gcn"), 0.0)]
    ledger = Ledger()
    payloads = serve_mixed.Payloads()
    counts = serve_mixed._phase(ledger, "t", recs, payloads, "warm")
    assert counts == {"sent": 4, "ok": 1, "failed": 3}
    assert ledger.failed == 3
    payloads.add(("cora", "gcn"), {"result": {"x": 2}})
    assert payloads.mismatches == ["cora/gcn"]


# ----------------------------------------------------------------------
# the open-loop generator against a stand-in service
# ----------------------------------------------------------------------
class _FakeService(socketserver.StreamRequestHandler):
    """Warm keys answer at once; a cold key answers 50 ms after arrival."""

    def handle(self):
        for line in self.rfile:
            req = json.loads(line)
            cold = req["arch"] == "gin"
            if cold:
                time.sleep(0.05)
            self.wfile.write((json.dumps({
                "id": req["id"], "status": "ok",
                "source": "cold" if cold else "warm",
                "result": {"key": req["dataset"]}}) + "\n").encode())


def test_open_loop_times_from_due_and_chains_bursts():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _FakeService)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = Conn(*server.server_address)
        warm = [(0.002 * i, ("cora", "gcn")) for i in range(1, 2000)]
        bursts = [Burst(("cora", "gin"), 3, 0.05),
                  Burst(("pubmed", "gin"), 2, 0.05)]
        loop = OpenLoop(conn, warm, bursts, tail=0.05)
        loop.run(timeout=30)
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    recs = list(loop.records.values())
    assert all(r.response["status"] == "ok" for r in recs)
    assert all(r.sent >= r.due and r.recv >= r.sent for r in recs)
    assert [sum(r.kind == f"burst{k}" for r in recs) for k in (0, 1)] == [3, 2]
    (lo0, hi0), (lo1, hi1) = loop.burst_windows
    assert hi0 - lo0 >= 0.05 and lo1 >= hi0 + 0.05 - 1e-6
    # The warm stream stopped a tail after the last burst, not at 4 s.
    last_warm = max(r.due for r in recs if r.kind == "warm")
    assert last_warm <= hi1 + 0.05 + 1e-6


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
def test_every_workload_reports_every_per_layer_metric_of_the_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    names = {m["name"] for m in manifest["per_layer"]}
    # Each workload adds only the tracing overhead to the attribution, which
    # already holds a value (zero if unused) for every other layer metric.
    measured = set(layers.attribution([], {}, 0.0, 1.0)) | {
        "trace.overhead_pct"}
    assert measured == names
