"""The ``seed`` and ``tech_node`` axes end-to-end through the engine.

A two-seed micro sweep is the acceptance harness for the variance
columns: every metric gets a mean/std pair, the two seeds really train
two pipelines (distinct artifacts), and the report stays byte-identical
across ``--jobs`` — the new axes must not perturb determinism.
"""

import pytest

from repro.evaluation import EvalContext
from repro.runtime.store import ArtifactStore
from repro.sweep import (
    VARIANCE_METRICS,
    SweepSpec,
    parse_grid,
    run_sweep,
    seed_variance_result,
    sweep_report_text,
)

MICRO_SCALES = {"cora": 0.06}


def micro_ctx(store=None):
    ctx = EvalContext(profile="fast", store=store)
    ctx.dataset_scales = dict(MICRO_SCALES)
    return ctx


def spec_for(grid):
    return SweepSpec(name="t", title="t", axes=parse_grid(grid))


@pytest.fixture(scope="module")
def seed_sweep(tmp_path_factory):
    import repro.graphs

    store = ArtifactStore(str(tmp_path_factory.mktemp("seed-sweep")))
    spec = spec_for("dataset=cora;C=1;S=2;seed=0,1")
    loads = []
    real_load = repro.graphs.load_dataset

    def counting_load(name, scale=None, seed=0):
        loads.append((name, seed))
        return real_load(name, scale=scale, seed=seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.graphs, "load_dataset", counting_load)
        report = run_sweep(micro_ctx(store), spec, jobs=1)
    # training and baselines share the context's graph memo: one
    # generation per distinct (dataset, seed)
    assert sorted(loads) == [("cora", 0), ("cora", 1)]
    return spec, report, store


def test_two_seeds_train_two_pipelines(seed_sweep):
    spec, report, _ = seed_sweep
    assert len(report.results) == 2
    assert report.tasks_executed == 2  # one training per seed
    a, b = report.results
    assert a.coord("seed") == 0 and b.coord("seed") == 1


def test_variance_table_covers_every_metric(seed_sweep):
    spec, report, _ = seed_sweep
    table = seed_variance_result(spec, report.results)
    assert table is not None
    # one group: the points differ only in seed
    assert len(table.rows) == 1
    row = dict(zip(table.headers, table.rows[0]))
    assert row["seeds"] == 2
    for stem, attr in VARIANCE_METRICS:
        values = [float(getattr(r, attr)) for r in report.results]
        mean = sum(values) / 2
        assert row[f"{stem} mean"] == f"{mean:.6g}"
        assert f"{stem} std" in row
    # analytic platform metrics are seed-invariant, so their std is 0 ...
    assert row["area_mm2 std"] == "0" and row["tdp_w std"] == "0"
    # ... and the table sits between the long form and the frontier
    text = sweep_report_text(spec, report.results)
    assert text.index("Sweep:") < text.index("Seed variance:") \
        < text.index("Pareto frontier:")


def test_seed_sweep_parallel_and_warm_runs_are_byte_identical(seed_sweep):
    spec, report, store = seed_sweep
    text = sweep_report_text(spec, report.results)
    warm = run_sweep(micro_ctx(store), spec, jobs=1)
    assert warm.tasks_executed == 0 and warm.cache_hits == [0, 1]
    assert sweep_report_text(spec, warm.results) == text
    jobs2 = run_sweep(micro_ctx(store), spec, jobs=2)
    assert sweep_report_text(spec, jobs2.results) == text


def test_single_seed_grid_emits_no_variance_table(tmp_path):
    spec = spec_for("dataset=cora;C=1;S=2")
    report = run_sweep(micro_ctx(ArtifactStore(str(tmp_path))), spec)
    assert seed_variance_result(spec, report.results) is None
    assert "Seed variance" not in sweep_report_text(spec, report.results)


# ----------------------------------------------------------------------
# tech_node through the engine
# ----------------------------------------------------------------------
def test_tech_node_axis_shares_training_and_scales_budget(tmp_path):
    spec = spec_for("dataset=cora;C=1;S=2;tech_node=7,16,28")
    report = run_sweep(micro_ctx(ArtifactStore(str(tmp_path))), spec)
    assert report.tasks_executed == 1  # silicon node is a platform knob
    by_node = {r.tech_node: r for r in report.results}
    assert sorted(by_node) == [7, 16, 28]
    n7, n16, n28 = by_node[7], by_node[16], by_node[28]
    assert n7.area_mm2 < n16.area_mm2 < n28.area_mm2
    assert n7.tdp_w < n16.tdp_w < n28.tdp_w
    assert n7.gcod_energy_j < n16.gcod_energy_j < n28.gcod_energy_j
    # the clock pins latency (and so speedup) across nodes
    assert n7.gcod_latency_s == n16.gcod_latency_s == n28.gcod_latency_s
    assert n7.speedup_vs_awb == n16.speedup_vs_awb == n28.speedup_vs_awb


def test_default_node_points_match_pre_budget_bytes(tmp_path):
    # a grid without the axis reports tech_node=16 and the same energy
    # numbers as an explicit 16 nm grid: the reference node is identity
    store = ArtifactStore(str(tmp_path))
    plain = run_sweep(micro_ctx(store), spec_for("dataset=cora;C=1;S=2"))
    pinned = run_sweep(micro_ctx(store),
                       spec_for("dataset=cora;C=1;S=2;tech_node=16"))
    a, b = plain.results[0], pinned.results[0]
    assert a.tech_node == b.tech_node == 16
    assert a.gcod_energy_j == b.gcod_energy_j
    assert a.area_mm2 == b.area_mm2 and a.tdp_w == b.tdp_w
