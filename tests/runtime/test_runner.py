"""Plan/execute runner: dedup, warm-cache zero-run guarantee, jobs parity.

These tests run real (micro-scale) GCoD pipelines, so they double as the
acceptance harness for the artifact store: a warm ``repro report`` performs
zero training runs, and a parallel cold run produces byte-identical output
to a serial one.
"""

import pytest

from repro.evaluation import EvalContext
from repro.evaluation.report import generate_report, report_results
from repro.runtime import counters
from repro.runtime.runner import build_task, plan_experiments
from repro.runtime.store import ArtifactStore

#: Tiny scales so each GCoD run trains in well under a second.
MICRO_SCALES = {"cora": 0.06, "citeseer": 0.05, "pubmed": 0.012}

#: Two experiments whose GCoD deps overlap on (cora, gcn): fig04 needs the
#: three citation graphs, reordering needs cora again.
NAMES = ["fig04", "reordering"]


def micro_ctx(store=None):
    ctx = EvalContext(profile="fast", store=store)
    ctx.dataset_scales = dict(MICRO_SCALES)
    return ctx


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def test_plan_deduplicates_union_of_deps(tmp_path):
    ctx = micro_ctx(ArtifactStore(str(tmp_path)))
    plan = plan_experiments(ctx, names=NAMES)
    assert plan.deps_total == 3  # cora shared between the two experiments
    assert [t.dataset for t in plan.tasks] == ["citeseer", "cora", "pubmed"]
    assert all(t.arch == "gcn" for t in plan.tasks)
    assert plan.cached == []


def test_task_key_matches_context_key(tmp_path):
    ctx = micro_ctx(ArtifactStore(str(tmp_path)))
    task = build_task(ctx, "cora", "gcn")
    assert task.key().digest == ctx.gcod_store_key("cora", "gcn").digest
    assert task.kernel_backend == "vectorized"  # resolved, never None


def test_plan_skips_stored_experiments_and_runs(tmp_path):
    store = ArtifactStore(str(tmp_path))
    generate_report(micro_ctx(store), names=NAMES, jobs=1)
    plan = plan_experiments(micro_ctx(store), names=NAMES)
    assert sorted(plan.cached) == sorted(NAMES)
    assert plan.tasks == []  # nothing left to train


# ----------------------------------------------------------------------
# the acceptance criteria: warm = zero runs, jobs parity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cold_store(tmp_path_factory):
    """A store warmed by one serial cold report, plus that report's text."""
    root = str(tmp_path_factory.mktemp("store-cold"))
    store = ArtifactStore(root)
    counters.reset_counters()
    text = generate_report(micro_ctx(store), names=NAMES, jobs=1)
    runs = counters.gcod_run_count()
    assert runs == 3  # the planner's three unique deps, trained once each
    return root, text


def test_warm_report_zero_gcod_runs_and_identical(cold_store):
    root, cold_text = cold_store
    ctx = micro_ctx(ArtifactStore(root))  # fresh context, warm store
    counters.reset_counters()
    warm_text = generate_report(ctx, names=NAMES, jobs=1)
    assert counters.gcod_run_count() == 0
    assert warm_text == cold_text


def test_warm_results_equal_fresh_results(cold_store):
    """Cached ExperimentResults are identical to freshly computed ones."""
    root, _ = cold_store
    warm = report_results(micro_ctx(ArtifactStore(root)), names=NAMES)
    assert sorted(warm.cache_hits) == sorted(NAMES)
    fresh = report_results(micro_ctx(store=None), names=NAMES)
    assert fresh.cache_hits == []
    for name in NAMES:
        w, f = warm.results[name], fresh.results[name]
        assert w.to_json() == f.to_json()
        assert w.render() == f.render()
        assert w.to_csv() == f.to_csv()


def test_parallel_jobs_byte_identical(cold_store, tmp_path):
    root, cold_text = cold_store
    store2 = ArtifactStore(str(tmp_path / "store-jobs2"))
    counters.reset_counters()
    text2 = generate_report(micro_ctx(store2), names=NAMES, jobs=2)
    # pool workers trained in their own processes; the parent ran nothing
    assert counters.gcod_run_count() == 0
    assert text2 == cold_text
    # ... and the structured JSON/CSV forms match the serial run's too
    serial = report_results(micro_ctx(ArtifactStore(root)), names=NAMES)
    parallel = report_results(micro_ctx(store2), names=NAMES)
    for name in NAMES:
        assert parallel.results[name].to_json() == \
            serial.results[name].to_json()
        assert parallel.results[name].to_csv() == \
            serial.results[name].to_csv()


def test_corrupted_gcod_entry_retrains_and_matches(cold_store):
    root, cold_text = cold_store
    store = ArtifactStore(root)
    ctx = micro_ctx(store)
    key = ctx.gcod_store_key("cora", "gcn")
    assert store.contains(key)
    with open(store._entry_path(key), "wb") as fh:
        fh.write(b"garbage")
    # the experiment results are themselves cached, so corrupting one GCoD
    # artifact only costs a retrain once something asks for that run:
    counters.reset_counters()
    result = ctx.gcod("cora", "gcn")
    assert counters.gcod_run_count() == 1
    assert result.final_graph.name == "cora"
    # ... and the store healed: a fresh context reads the rewritten entry.
    counters.reset_counters()
    assert micro_ctx(ArtifactStore(root)).gcod("cora", "gcn") is not None
    assert counters.gcod_run_count() == 0
    assert generate_report(micro_ctx(ArtifactStore(root)),
                           names=NAMES, jobs=1) == cold_text
