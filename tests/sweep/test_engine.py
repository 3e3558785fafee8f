"""Sweep engine: planning, caching, parity, and the acceptance criteria.

The heavyweight fixtures run real (micro-scale) GCoD pipelines; they are
the acceptance harness for the sweep engine: a warm sweep over a >= 24
point grid performs zero training runs (counter-asserted) and emits the
same bytes as a cold serial run, and ``jobs=2`` output is byte-identical
to ``jobs=1``.
"""

import pickle
from dataclasses import replace

import pytest

from repro.algorithm import run_gcod
from repro.evaluation import EvalContext
from repro.evaluation.context import ExperimentResult
from repro.evaluation.experiments import ablation_cs
from repro.hardware import extract_workload
from repro.runtime import counters
from repro.runtime.keys import KIND_GCOD, KIND_SWEEP
from repro.runtime.store import ArtifactStore
from repro.sweep import (
    SweepSpec,
    expand,
    pareto_frontier,
    plan_sweep,
    run_sweep,
    sweep_report_text,
)

#: Tiny scales so each GCoD run trains in well under a second.
MICRO_SCALES = {"cora": 0.06, "citeseer": 0.05}

#: The acceptance grid: 2 x 2 x 2 x 3 = 24 points, but only four unique
#: training configs — the platform axes (bits, hw_scale) share pipelines.
ACCEPTANCE_SPEC = SweepSpec(
    name="acceptance",
    title="acceptance grid",
    axes={
        "C": (1, 2),
        "S": (2, 3),
        "bits": (32, 8),
        "hw_scale": (0.5, 1.0, 2.0),
    },
)


def micro_ctx(store=None):
    ctx = EvalContext(profile="fast", store=store)
    ctx.dataset_scales = dict(MICRO_SCALES)
    return ctx


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def test_plan_dedups_training_across_platform_axes(tmp_path):
    plan = plan_sweep(micro_ctx(ArtifactStore(str(tmp_path))),
                      ACCEPTANCE_SPEC)
    assert len(plan.points) == 24
    assert plan.cached == []
    assert plan.deps_total == 4  # (C, S) combos; bits/hw_scale share runs
    assert len(plan.tasks) == 4


def test_plan_skips_stored_points_and_training(tmp_path):
    store = ArtifactStore(str(tmp_path))
    spec = SweepSpec(name="t", title="t", axes={"C": (1, 2)})
    run_sweep(micro_ctx(store), spec)
    plan = plan_sweep(micro_ctx(store), spec)
    assert plan.cached == [0, 1]
    assert plan.tasks == []


def test_storeless_sweep_still_runs(tmp_path):
    spec = SweepSpec(name="t", title="t", axes={"C": (1,), "S": (2,)})
    report = run_sweep(micro_ctx(store=None), spec, jobs=2)
    assert len(report.results) == 1
    assert report.points_evaluated == 1
    assert report.results[0].speedup_vs_awb > 0


# ----------------------------------------------------------------------
# acceptance: warm sweep = zero runs + identical bytes; jobs parity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cold_sweep(tmp_path_factory):
    """A store warmed by one serial cold sweep, plus that sweep's bytes."""
    root = str(tmp_path_factory.mktemp("sweep-cold"))
    counters.reset_counters()
    report = run_sweep(micro_ctx(ArtifactStore(root)), ACCEPTANCE_SPEC,
                       jobs=1)
    assert counters.gcod_run_count() == 4  # one per unique config
    assert counters.sweep_point_run_count() == 24
    text = sweep_report_text(ACCEPTANCE_SPEC, report.results)
    return root, text


def test_warm_sweep_zero_training_and_identical_bytes(cold_sweep):
    root, cold_text = cold_sweep
    counters.reset_counters()
    report = run_sweep(micro_ctx(ArtifactStore(root)), ACCEPTANCE_SPEC,
                       jobs=1)
    # every point loads from the store: no training, no point evaluation
    assert counters.gcod_run_count() == 0
    assert counters.sweep_point_run_count() == 0
    assert report.points_evaluated == 0
    assert len(report.cache_hits) == 24
    assert sweep_report_text(ACCEPTANCE_SPEC, report.results) == cold_text


def test_parallel_sweep_byte_identical_to_serial(cold_sweep, tmp_path):
    _, cold_text = cold_sweep
    store = ArtifactStore(str(tmp_path / "sweep-jobs4"))
    counters.reset_counters()
    report = run_sweep(micro_ctx(store), ACCEPTANCE_SPEC, jobs=4)
    # pool workers trained AND evaluated in their own processes; the
    # parent ran nothing and collected everything from the store.
    assert counters.gcod_run_count() == 0
    assert counters.sweep_point_run_count() == 0
    assert report.points_evaluated == 24  # aggregated from the workers
    assert sweep_report_text(ACCEPTANCE_SPEC, report.results) == cold_text


def test_sweep_survives_corrupted_point_entry(cold_sweep):
    root, cold_text = cold_sweep
    store = ArtifactStore(root)
    plan = plan_sweep(micro_ctx(store), ACCEPTANCE_SPEC)
    with open(store._entry_path(plan.keys[3]), "wb") as fh:
        fh.write(b"garbage")
    counters.reset_counters()
    report = run_sweep(micro_ctx(store), ACCEPTANCE_SPEC)
    # one point recomputed (from the cached pipeline: still no training)
    assert counters.gcod_run_count() == 0
    assert report.points_evaluated == 1
    assert sweep_report_text(ACCEPTANCE_SPEC, report.results) == cold_text


# ----------------------------------------------------------------------
# per-pipeline memoization: one extraction and one event-sim per input
# ----------------------------------------------------------------------
#: 2 pipelines x 2 bits x 2 hw_scale x 2 tech nodes: four PE counts per
#: pipeline, each shared by both tech nodes.
MEMO_SPEC = SweepSpec(
    name="memo",
    title="memo grid",
    axes={
        "C": (1, 2),
        "S": (2,),
        "bits": (32, 8),
        "hw_scale": (0.5, 2.0),
        "tech_node": (7, 28),
    },
)


def assert_memoized_evaluation(store, spec, monkeypatch):
    """Evaluate ``spec`` with a fresh evaluator per point, then with one
    shared evaluator; the results must be byte-identical, and the shared
    one must extract each pipeline (and each baseline) once and event-sim
    each distinct (pipeline, agg_dim, PE count) once.

    Returns the shared run's event-sim inputs.
    """
    import repro.hardware
    from repro.hardware import event_sim
    from repro.sweep.engine import _PointEvaluator

    real_extract = repro.hardware.extract_workload
    real_sim = event_sim.simulate_aggregation
    extracts, sims = [], []

    def counting_extract(graph, layout=None, *args, **kwargs):
        extracts.append(layout is not None)
        return real_extract(graph, layout, *args, **kwargs)

    def counting_sim(workload, agg_dim, total_pes, layout_tiles):
        sub_workloads, sub_classes = layout_tiles
        sims.append((workload.adjacency, agg_dim, total_pes,
                     tuple(sub_workloads), tuple(sub_classes)))
        return real_sim(workload, agg_dim=agg_dim, total_pes=total_pes,
                        layout_tiles=layout_tiles)

    points = expand(spec, micro_ctx(store))
    with monkeypatch.context() as patch:
        patch.setattr(repro.hardware, "extract_workload", counting_extract)
        patch.setattr(event_sim, "simulate_aggregation", counting_sim)
        # the fresh run goes first: it also warms the store's pipelines
        fresh = [pickle.dumps(_PointEvaluator(micro_ctx(store)).evaluate(p))
                 for p in points]
        needed_sims = set(sims)
        extracts.clear()
        sims.clear()
        evaluator = _PointEvaluator(micro_ctx(store))
        shared = [pickle.dumps(evaluator.evaluate(p)) for p in points]

    assert shared == fresh
    tasks = [task for p in points for task in p.gcod_tasks()]
    assert extracts.count(True) == len({t.key().digest for t in tasks})
    assert extracts.count(False) == len(
        {(t.dataset, t.arch, t.seed) for t in tasks}
    )
    assert len(sims) == len(needed_sims)
    assert set(sims) == needed_sims
    return sims


def test_shared_evaluator_derives_each_pipeline_once(cold_sweep,
                                                     monkeypatch):
    root, _ = cold_sweep
    sims = assert_memoized_evaluation(ArtifactStore(root), MEMO_SPEC,
                                      monkeypatch)
    # 2 pipelines x 4 PE counts; the tech nodes share every simulation
    assert len(sims) == 8
    assert len({pes for _, _, pes, _, _ in sims}) == 4


# ----------------------------------------------------------------------
# parity with the legacy hand-rolled ablation loop
# ----------------------------------------------------------------------
def legacy_ablation_cs(context, datasets, class_counts, subgraph_counts):
    """The pre-sweep-engine ablation_cs.run, verbatim (PR-3 state)."""
    plats = context.platforms()
    rows, speedups, bw_reductions = [], [], []
    for dataset in datasets:
        graph = context.graph(dataset)
        wl_base = context.baseline_workload(dataset, "gcn")
        awb = plats["awb-gcn"].run(wl_base)
        hygcn = plats["hygcn"].run(wl_base)
        for c in class_counts:
            for s in subgraph_counts:
                config = replace(
                    context.gcod_config(), num_classes=c,
                    num_subgraphs=max(s, c),
                )
                result = run_gcod(graph, "gcn", config)
                wl = extract_workload(
                    result.final_graph, result.layout, "gcn",
                    paper_scale=True
                )
                gcod = plats["gcod"].run(wl)
                speedup = awb.latency_s / gcod.latency_s
                bw_red = 1.0 - gcod.required_bandwidth_gbps / max(
                    hygcn.required_bandwidth_gbps, 1e-9
                )
                speedups.append(speedup)
                bw_reductions.append(bw_red)
                rows.append(
                    (
                        dataset, c, s, round(speedup, 2),
                        f"{bw_red * 100:.0f}%",
                        round(result.accuracy_final * 100, 1),
                        round(result.layout.balance_within_classes(
                            result.final_graph.adj), 3),
                    )
                )
    summary = (
        f"speedup over AWB-GCN in [{min(speedups):.2f}, "
        f"{max(speedups):.2f}] "
        f"(paper: [1.8, 2.8]); bandwidth reduction in "
        f"[{min(bw_reductions) * 100:.0f}%, "
        f"{max(bw_reductions) * 100:.0f}%] "
        f"(paper: [26%, 53%]). GCoD beats AWB-GCN at every design point."
    )
    return ExperimentResult(
        name="Ablation: C x S sweep (GCN)",
        headers=("dataset", "C", "S", "speedup vs awb",
                 "BW reduction vs hygcn", "accuracy %", "balance"),
        rows=rows,
        extra_text=summary,
    )


GRID = dict(datasets=("cora", "citeseer"), class_counts=(1, 2),
            subgraph_counts=(2, 3))


@pytest.fixture(scope="module")
def legacy_result():
    return legacy_ablation_cs(micro_ctx(), **GRID)


def test_sweep_ablation_matches_legacy_bytes(legacy_result, tmp_path):
    new = ablation_cs.run(micro_ctx(ArtifactStore(str(tmp_path))), **GRID)
    assert new.render() == legacy_result.render()
    assert new.to_json() == legacy_result.to_json()
    assert new.to_csv() == legacy_result.to_csv()


def test_sweep_ablation_jobs2_matches_legacy_bytes(legacy_result, tmp_path):
    new = ablation_cs.run(micro_ctx(ArtifactStore(str(tmp_path))),
                          jobs=2, **GRID)
    assert new.render() == legacy_result.render()
    assert new.to_json() == legacy_result.to_json()


def test_warm_ablation_rerun_trains_nothing(tmp_path):
    store = ArtifactStore(str(tmp_path))
    cold = ablation_cs.run(micro_ctx(store), **GRID)
    counters.reset_counters()
    warm = ablation_cs.run(micro_ctx(store), **GRID)
    assert counters.gcod_run_count() == 0
    assert warm.render() == cold.render()


# ----------------------------------------------------------------------
# failure paths: a dying point leaves no partial state behind
# ----------------------------------------------------------------------
def test_failed_point_leaves_no_store_entry(tmp_path, monkeypatch):
    store = ArtifactStore(str(tmp_path))
    spec = SweepSpec(name="t", title="t", axes={"C": (1, 2)})
    ctx = micro_ctx(store)

    import repro.algorithm

    real_run_gcod = repro.algorithm.run_gcod

    def exploding(graph, arch, config):
        if config.num_classes == 2:
            raise RuntimeError("boom at C=2")
        return real_run_gcod(graph, arch, config)

    monkeypatch.setattr(repro.algorithm, "run_gcod", exploding)
    # engine.py binds `from repro.algorithm import run_gcod` per call, so
    # the patch takes effect; the C=2 point dies mid-sweep.
    with pytest.raises(RuntimeError, match="boom at C=2"):
        run_sweep(ctx, spec)
    monkeypatch.undo()

    # the surviving C=1 artifacts are in the store, the failed point is not
    plan = plan_sweep(micro_ctx(store), spec)
    assert plan.cached == [0]
    assert len(plan.tasks) == 1
    kinds = {e.kind for e in store.entries()}
    assert KIND_SWEEP in kinds and KIND_GCOD in kinds
    assert sum(1 for e in store.entries(KIND_SWEEP)) == 1
    assert sum(1 for e in store.entries(KIND_GCOD)) == 1

    # a rerun completes from the surviving cache: only C=2 trains
    counters.reset_counters()
    report = run_sweep(micro_ctx(store), spec)
    assert counters.gcod_run_count() == 1
    assert len(report.results) == 2
    assert report.cache_hits == [0]


# ----------------------------------------------------------------------
# the Pareto frontier
# ----------------------------------------------------------------------
def test_pareto_frontier_drops_dominated_points(cold_sweep):
    root, _ = cold_sweep
    report = run_sweep(micro_ctx(ArtifactStore(root)), ACCEPTANCE_SPEC)
    frontier = pareto_frontier(report.results)
    assert 0 < len(frontier) <= len(report.results)
    # no frontier point dominates another frontier point
    for r in frontier:
        for q in frontier:
            assert not (
                q.speedup_vs_awb >= r.speedup_vs_awb
                and q.accuracy >= r.accuracy
                and (q.speedup_vs_awb > r.speedup_vs_awb
                     or q.accuracy > r.accuracy)
            )
    # every non-frontier point is dominated by some frontier point
    frontier_ids = {id(r) for r in frontier}
    for r in report.results:
        if id(r) in frontier_ids:
            continue
        assert any(
            q.speedup_vs_awb >= r.speedup_vs_awb
            and q.accuracy >= r.accuracy
            and (q.speedup_vs_awb > r.speedup_vs_awb
                 or q.accuracy > r.accuracy)
            for q in frontier
        )
    # deterministic walk: descending speedup
    speeds = [r.speedup_vs_awb for r in frontier]
    assert speeds == sorted(speeds, reverse=True)
