"""The ``workload`` sweep axis: expansion, keys, and engine parity.

The acceptance contract: a single-node workload point is byte-identical
(minus its grid coordinates) to the legacy ``dataset``/``arch`` point it
reduces to — and shares that point's training artifacts — while
``jobs=2`` output over a multi-model grid matches ``jobs=1`` exactly.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.evaluation import EvalContext
from repro.runtime import counters
from repro.runtime.store import ArtifactStore
from repro.sweep import (
    SweepSpec,
    expand,
    parse_grid,
    plan_sweep,
    run_sweep,
    sweep_report_text,
)
from tests.sweep.test_engine import assert_memoized_evaluation

MICRO_SCALES = {"cora": 0.06, "citeseer": 0.05}

PAIR = "cora/gcn+citeseer/gat"


def micro_ctx(store=None):
    ctx = EvalContext(profile="fast", store=store)
    ctx.dataset_scales = dict(MICRO_SCALES)
    return ctx


# ----------------------------------------------------------------------
# spec construction and expansion
# ----------------------------------------------------------------------
def test_workload_axis_canonicalizes_shorthand():
    spec = SweepSpec(name="t", title="t",
                     axes={"workload": (" Cora/GCN + citeseer/gat ",)})
    assert spec.axes == (("workload", (PAIR,)),)


def test_workload_axis_rejects_bad_shorthand():
    with pytest.raises(ConfigError, match="not of the form"):
        SweepSpec(name="t", title="t", axes={"workload": ("cora",)})
    with pytest.raises(ConfigError, match="invalid value"):
        SweepSpec(name="t", title="t", axes={"workload": (7,)})


def test_grid_parsing_survives_shorthand_punctuation():
    axes = parse_grid(f"workload={PAIR};bits=32,8")
    assert axes["workload"] == (PAIR,)
    assert axes["bits"] == (32, 8)


def test_workload_axis_excludes_dataset_and_arch():
    for clash in ("dataset", "arch"):
        spec = SweepSpec(
            name="t", title="t",
            axes={"workload": ("cora/gcn",), clash: ("cora",)
                  if clash == "dataset" else ("gcn",)},
        )
        with pytest.raises(ConfigError, match=f"drop the '{clash}' axis"):
            expand(spec, micro_ctx())


def test_expansion_resolves_primary_node_and_scales():
    spec = SweepSpec(name="t", title="t",
                     axes={"workload": (PAIR,), "bits": (32, 8)})
    points = expand(spec, micro_ctx())
    assert len(points) == 2
    for point in points:
        assert point.workload == PAIR
        # the primary (first) node names the point's dataset/arch
        assert point.dataset == "cora" and point.arch == "gcn"
        assert point.workload_scales == (
            ("citeseer", MICRO_SCALES["citeseer"]),
            ("cora", MICRO_SCALES["cora"]),
        )


def test_workload_point_keys_distinct_from_legacy_and_stable():
    ctx = micro_ctx()
    wl = expand(SweepSpec(name="t", title="t",
                          axes={"workload": ("cora/gcn",)}), ctx)[0]
    legacy = expand(SweepSpec(name="t", title="t",
                              axes={"dataset": ("cora",)}), ctx)[0]
    # same resolved model, but the coordinates (and the workload field)
    # must keep the stored artifacts apart
    assert wl.dataset == legacy.dataset and wl.arch == legacy.arch
    assert wl.key().digest != legacy.key().digest
    assert wl.key().digest == expand(
        SweepSpec(name="t", title="t",
                  axes={"workload": ("cora/gcn",)}), ctx)[0].key().digest


def test_gcod_tasks_cover_distinct_pairs_and_share_the_primary():
    ctx = micro_ctx()
    wl = expand(SweepSpec(name="t", title="t",
                          axes={"workload": (PAIR,)}), ctx)[0]
    legacy = expand(SweepSpec(name="t", title="t",
                              axes={"dataset": ("cora",)}), ctx)[0]
    tasks = wl.gcod_tasks()
    assert [(t.dataset, t.arch) for t in tasks] == \
        [("cora", "gcn"), ("citeseer", "gat")]
    # primary task digests identically to the legacy single-model task:
    # the training artifacts are shared between the two grids
    assert tasks[0].key().digest == legacy.gcod_task().key().digest
    assert tasks[1].scale == MICRO_SCALES["citeseer"]
    # duplicate pairs collapse to one training task
    dup = expand(SweepSpec(name="t", title="t",
                           axes={"workload": ("cora/gcn+cora/gcn",)}),
                 ctx)[0]
    assert len(dup.gcod_tasks()) == 1


def test_plan_counts_every_distinct_pair_as_a_dep(tmp_path):
    spec = SweepSpec(name="t", title="t",
                     axes={"workload": (PAIR,), "bits": (32, 8)})
    plan = plan_sweep(micro_ctx(ArtifactStore(str(tmp_path))), spec)
    assert len(plan.points) == 2
    assert plan.deps_total == 2  # two (dataset, arch) pairs, bits shared
    assert len(plan.tasks) == 2


# ----------------------------------------------------------------------
# engine parity
# ----------------------------------------------------------------------
def test_single_node_workload_point_matches_legacy_minus_axes(tmp_path):
    store = ArtifactStore(str(tmp_path))
    counters.reset_counters()
    wl_report = run_sweep(
        micro_ctx(store),
        SweepSpec(name="w", title="w", axes={"workload": ("cora/gcn",)}),
    )
    assert counters.gcod_run_count() == 1
    # the legacy grid reuses the workload grid's training artifact
    legacy_report = run_sweep(
        micro_ctx(store),
        SweepSpec(name="l", title="l", axes={"dataset": ("cora",)}),
    )
    assert counters.gcod_run_count() == 1
    a = dataclasses.asdict(wl_report.results[0])
    b = dataclasses.asdict(legacy_report.results[0])
    assert a.pop("axes") == (("workload", "cora/gcn"),)
    assert b.pop("axes") == (("dataset", "cora"),)
    assert a == b  # every metric byte-identical to the legacy path


def test_multi_model_jobs2_byte_identical_to_serial(tmp_path):
    spec = SweepSpec(name="mt", title="mt",
                     axes={"workload": (PAIR,), "bits": (32, 8)})
    counters.reset_counters()
    serial = run_sweep(micro_ctx(ArtifactStore(str(tmp_path / "s"))),
                       spec, jobs=1)
    assert counters.gcod_run_count() == 2  # one per distinct pair
    assert counters.sweep_point_run_count() == 2
    text = sweep_report_text(spec, serial.results)
    parallel = run_sweep(micro_ctx(ArtifactStore(str(tmp_path / "p"))),
                         spec, jobs=2)
    assert sweep_report_text(spec, parallel.results) == text
    # precision moves the merged numbers: the two points are distinct
    r32, r8 = serial.results
    assert r32.bits == 32 and r8.bits == 8
    assert r32.gcod_latency_s != r8.gcod_latency_s


def test_warm_workload_sweep_is_all_cache_hits(tmp_path):
    store = ArtifactStore(str(tmp_path))
    spec = SweepSpec(name="mt", title="mt", axes={"workload": (PAIR,)})
    cold = run_sweep(micro_ctx(store), spec)
    counters.reset_counters()
    warm = run_sweep(micro_ctx(store), spec)
    assert counters.gcod_run_count() == 0
    assert counters.sweep_point_run_count() == 0
    assert warm.points_evaluated == 0
    assert sweep_report_text(spec, warm.results) == \
        sweep_report_text(spec, cold.results)


def test_shared_evaluator_derives_each_dag_pipeline_once(tmp_path,
                                                         monkeypatch):
    # the layer-sliced DAG runs one pipeline at two aggregation widths
    spec = SweepSpec(
        name="memo", title="memo",
        axes={"workload": (PAIR, "cora/gcn/0-0+cora/gcn/1-1"),
              "bits": (32, 8), "hw_scale": (0.5, 2.0),
              "tech_node": (7, 28)},
    )
    sims = assert_memoized_evaluation(ArtifactStore(str(tmp_path)), spec,
                                      monkeypatch)
    assert len({agg_dim for _, agg_dim, _, _, _ in sims}) >= 2
