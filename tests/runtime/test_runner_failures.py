"""Runner failure paths: a dying worker must fail loudly and cleanly.

The contract under test: when a GCoD task raises mid-run — in a pool
worker or inline — the caller sees a :class:`GCoDTaskError` naming the
``(dataset, arch)`` task, the store holds *no partial entry* for the
failed run (atomic writes), and a rerun completes using whatever the
surviving workers finished.
"""

import os
import sys

import pytest

from repro.evaluation import EvalContext
from repro.evaluation.report import generate_report
from repro.runtime import counters
from repro.runtime.runner import (
    GCoDTaskError,
    build_task,
    plan_experiments,
    warm_tasks,
)
from repro.runtime.store import ArtifactStore

MICRO_SCALES = {"cora": 0.06, "citeseer": 0.05, "pubmed": 0.012}

#: fig04 depends on all three citation graphs — three pool tasks.
NAMES = ["fig04"]

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="failure injection relies on fork inheriting the monkeypatch",
)


def micro_ctx(store=None):
    ctx = EvalContext(profile="fast", store=store)
    ctx.dataset_scales = dict(MICRO_SCALES)
    return ctx


@pytest.fixture()
def explode_on_citeseer(monkeypatch):
    """Make run_gcod raise for citeseer only (inherited by forked workers).

    Every path trains through ``repro.runtime.runner.train_or_load``,
    which imports ``run_gcod`` from ``repro.algorithm`` per call.
    """
    import repro.algorithm

    real = repro.algorithm.run_gcod

    def exploding(graph, arch, config):
        if graph.name == "citeseer":
            raise ValueError("injected citeseer failure")
        return real(graph, arch, config)

    monkeypatch.setattr(repro.algorithm, "run_gcod", exploding)
    return monkeypatch


def _no_partial_files(root: str) -> bool:
    leftovers = []
    for dirpath, _dirs, files in os.walk(root):
        leftovers += [f for f in files if f.startswith(".tmp-")]
    return leftovers == []


def test_pool_worker_failure_surfaces_named_error(tmp_path,
                                                  explode_on_citeseer):
    store = ArtifactStore(str(tmp_path))
    ctx = micro_ctx(store)
    with pytest.raises(GCoDTaskError, match=r"\(citeseer, gcn\)"):
        generate_report(ctx, names=NAMES, jobs=2)

    # No partial entry under a valid name. (Orphaned .tmp-* files are
    # possible here — the pool terminates healthy workers mid-write when
    # one dies — and are reclaimed by `cache clear`; the inline test
    # below asserts the stricter no-temp-files property race-free.)
    assert not store.contains(ctx.gcod_store_key("citeseer", "gcn"))

    # the rerun completes from the surviving cache: citeseer retrains,
    # whatever the healthy workers stored is reused
    explode_on_citeseer.undo()
    plan = plan_experiments(micro_ctx(store), names=NAMES)
    assert ("citeseer", "gcn") in [(t.dataset, t.arch) for t in plan.tasks]
    counters.reset_counters()
    text = generate_report(micro_ctx(store), names=NAMES, jobs=1)
    assert counters.gcod_run_count() == len(plan.tasks) <= 3
    assert "Fig. 4" in text or "fig04" in text.lower()

    # ... and matches a from-scratch serial run byte for byte
    fresh = generate_report(micro_ctx(ArtifactStore(str(tmp_path / "f"))),
                            names=NAMES, jobs=1)
    assert text == fresh


def test_inline_failure_raises_original_error(tmp_path, explode_on_citeseer):
    """The serial path (no pool) propagates the underlying exception."""
    store = ArtifactStore(str(tmp_path))
    ctx = micro_ctx(store)
    with pytest.raises(ValueError, match="injected citeseer failure"):
        generate_report(ctx, names=NAMES, jobs=1)
    assert not store.contains(ctx.gcod_store_key("citeseer", "gcn"))
    assert _no_partial_files(store.root)


def test_warm_tasks_wraps_worker_errors(tmp_path, explode_on_citeseer):
    """Direct warm_tasks callers get the same named-task error."""
    ctx = micro_ctx(ArtifactStore(str(tmp_path)))
    tasks = [build_task(ctx, ds, "gcn") for ds in MICRO_SCALES]
    with pytest.raises(GCoDTaskError, match="citeseer"):
        warm_tasks(tasks, ctx, jobs=3)


def test_serial_warm_tasks_honors_custom_task_config(tmp_path):
    """A custom-config task trains *its* config, not the context's."""
    from dataclasses import replace

    store = ArtifactStore(str(tmp_path))
    ctx = micro_ctx(store)
    task = build_task(ctx, "cora", "gcn")
    custom = replace(
        task, config=replace(task.config, num_classes=3, num_subgraphs=5)
    )
    assert custom.key().digest != ctx.gcod_store_key("cora", "gcn").digest
    warm_tasks([custom], ctx, jobs=1)
    assert store.contains(custom.key())
    assert not store.contains(ctx.gcod_store_key("cora", "gcn"))
    result = store.get(custom.key())
    assert result.config.num_classes == 3
    # idempotent: a second serial warm is a store hit, not a retrain
    counters.reset_counters()
    warm_tasks([custom], ctx, jobs=1)
    assert counters.gcod_run_count() == 0


def test_serial_warm_tasks_honors_custom_task_scale(tmp_path):
    """A task at a different scale trains the graph *its* key names."""
    from dataclasses import replace

    from repro.runtime.keys import graph_key

    store = ArtifactStore(str(tmp_path))
    ctx = micro_ctx(store)
    divergent = replace(build_task(ctx, "cora", "gcn"), scale=0.05)
    assert divergent.scale != ctx.scale_for("cora")
    warm_tasks([divergent], ctx, jobs=1)
    # stored under the task's key, trained on the task's-scale graph
    # (exactly what a pool worker would have produced)
    assert store.contains(divergent.key())
    graph = store.get(graph_key("cora", 0.05, ctx.seed))
    assert graph is not None
    result = store.get(divergent.key())
    assert result.final_graph.num_nodes == graph.num_nodes


def test_task_error_pickles_cleanly():
    """The error type survives the pool's pickle round-trip."""
    import pickle

    err = GCoDTaskError("GCoD task (cora, gcn) failed: ValueError: x")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, GCoDTaskError)
    assert str(clone) == str(err)
