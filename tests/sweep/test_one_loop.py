"""One executor loop: serial, pool and ledger sweeps drain alike.

Every training run and sweep point goes through
:func:`repro.runtime.runner.drain`. This tier drains one 4-point grid
three ways (``jobs=1``, ``jobs=2``, two ledger workers over a served
store) and asserts they render the same bytes, that the cooperative sides
split the grid exactly once, and that the serial path pays no claim or
extra store-membership traffic for it.
"""

import threading

from repro.evaluation import EvalContext
from repro.runtime.keys import KIND_CLAIM
from repro.runtime.runner import drain, pool_context
from repro.runtime.server import make_store_server
from repro.runtime.store import ArtifactStore
from repro.sweep import SweepSpec, plan_sweep, run_sweep, sweep_report_text
from repro.sweep.manifest import manifest_key

MICRO_SCALES = {"cora": 0.06}

#: 4 points, 2 unique training configs (bits is a platform axis).
SPEC = SweepSpec(
    name="one-loop-grid",
    title="one loop grid",
    axes={
        "C": (1, 2),
        "bits": (32, 8),
    },
)


def micro_ctx(store=None):
    ctx = EvalContext(profile="fast", store=store)
    ctx.dataset_scales = dict(MICRO_SCALES)
    return ctx


def test_drain_without_claims_works_every_item_once():
    worked = []
    count = drain({"a": 1, "b": 2, "c": 3}, lambda item: item == 2,
                  worked.append)
    assert count == 2 and worked == [1, 3]


def _ledger_worker(url, barrier, queue):
    ctx = micro_ctx(ArtifactStore(url))
    barrier.wait()
    report = run_sweep(ctx, SPEC)
    queue.put((report.points_evaluated,
               sweep_report_text(SPEC, report.results)))


def test_serial_pool_and_ledger_drain_to_identical_bytes(tmp_path,
                                                        pool_on_any_host):
    serial = run_sweep(micro_ctx(ArtifactStore(str(tmp_path / "serial"))),
                       SPEC, jobs=1)
    text = sweep_report_text(SPEC, serial.results)
    assert serial.points_evaluated == SPEC.num_points == 4

    pooled = run_sweep(micro_ctx(ArtifactStore(str(tmp_path / "pool"))),
                       SPEC, jobs=2)
    assert sweep_report_text(SPEC, pooled.results) == text
    # the children's worked counts sum to the grid: no point twice
    assert pooled.points_evaluated == 4

    server = make_store_server(str(tmp_path / "served"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        mp = pool_context()
        barrier = mp.Barrier(2)
        queue = mp.Queue()
        procs = [mp.Process(target=_ledger_worker,
                            args=(server.url, barrier, queue))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=300) for _ in procs]
        for proc in procs:
            proc.join(timeout=300)
            assert proc.exitcode == 0
        assert sum(worked for worked, _ in results) == 4
        assert [t for _, t in results] == [text, text]
        assert ArtifactStore(server.url).backend.list_names(KIND_CLAIM) == []
    finally:
        server.shutdown()
        server.server_close()


def test_serial_sweep_makes_no_claims_and_no_extra_contains(tmp_path,
                                                            monkeypatch):
    store = ArtifactStore(str(tmp_path))
    ctx = micro_ctx(store)
    contains_calls = []
    claims = []
    real_contains = ArtifactStore.contains

    def spy_contains(self, key):
        contains_calls.append(key.digest)
        return real_contains(self, key)

    monkeypatch.setattr(ArtifactStore, "contains", spy_contains)
    monkeypatch.setattr(ArtifactStore, "claim",
                        lambda self, name, payload: claims.append(name))
    report = run_sweep(ctx, SPEC, jobs=1)
    monkeypatch.undo()
    assert report.points_evaluated == 4
    assert claims == []
    assert store.backend.list_names(KIND_CLAIM) == []

    plan = plan_sweep(micro_ctx(store), SPEC)
    tasks = {task.key().digest
             for point in plan.points for task in point.gcod_tasks()}
    expected = ([key.digest for key in plan.keys] + sorted(tasks)
                + [manifest_key(ctx, SPEC).digest])
    # one membership check per planned point and task, one for the
    # manifest: the drain itself asks the store nothing
    assert sorted(contains_calls) == sorted(expected)


def test_pool_width_is_capped_at_the_usable_cpus(tmp_path, monkeypatch):
    """``jobs`` beyond the CPUs forks no more children than there are
    CPUs, the progress line names the width used, and on one CPU the
    points evaluate in this process."""
    import repro.runtime.runner as runner

    real_pool_context = runner.pool_context
    widths = []

    class RecordingContext:
        def Pool(self, processes):
            widths.append(processes)
            return real_pool_context().Pool(processes=processes)

    monkeypatch.setattr(runner, "pool_context", RecordingContext)
    texts = []
    for cpus in (2, 1):
        monkeypatch.setattr(runner, "effective_cpu_count", lambda: cpus)
        assert runner.pool_width(4) == cpus
        said = []
        report = run_sweep(
            micro_ctx(ArtifactStore(str(tmp_path / f"cpus{cpus}"))),
            SPEC, jobs=4, progress=said.append)
        assert report.points_evaluated == 4
        texts.append(sweep_report_text(SPEC, report.results))
        pooled = [m for m in said if m.startswith("evaluating")]
        if cpus > 1:
            assert pooled == ["evaluating 4 point(s) with jobs=2"]
        else:
            assert pooled == []
    # one training pool and one point pool, both two wide; none on 1 CPU
    assert widths == [2, 2]
    assert texts[0] == texts[1]
    assert runner.pool_width(0) == 1
