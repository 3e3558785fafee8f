"""Key building walks each payload once, and mints the same keys as before.

:func:`~repro.runtime.keys.gcod_key` and
:func:`~repro.runtime.keys.sweep_point_key` take a config payload that
:func:`~repro.runtime.keys.walk_config` already walked, and
:func:`~repro.sweep.engine.plan_sweep` walks each distinct config once.
The oracle below is the earlier path, which walked every point's config
and then walked the whole payload again: every digest and payload must
equal it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.algorithm import GCoDConfig  # noqa: E402
from repro.evaluation import EvalContext  # noqa: E402
from repro.runtime.keys import (  # noqa: E402
    CODE_SCHEMA_VERSION,
    KIND_GCOD,
    KIND_SWEEP,
    ArtifactKey,
    gcod_key,
    jsonable,
    stable_hash,
    sweep_point_key,
    walk_config,
)
from repro.sparse.kernels import get_backend  # noqa: E402
from repro.sweep.engine import plan_sweep  # noqa: E402
from repro.sweep.registry import all_sweeps  # noqa: E402
from repro.sweep.spec import SweepSpec, expand  # noqa: E402

from tests.runtime.test_keys_properties import CONFIG_FIELDS  # noqa: E402


# ----------------------------------------------------------------------
# the oracle: the double-walk key path
# ----------------------------------------------------------------------
def oracle_make_key(kind, **components):
    payload = dict(components)
    payload["kind"] = kind
    payload["schema"] = CODE_SCHEMA_VERSION
    payload = jsonable(payload)
    return ArtifactKey(kind=kind, digest=stable_hash(payload),
                       payload=payload)


def oracle_config_payload(config):
    config_payload = jsonable(config)
    if isinstance(config_payload, dict) and "kernel_backend" in config_payload:
        config_payload["kernel_backend"] = get_backend(
            config_payload["kernel_backend"]).name
    return config_payload


def oracle_gcod_key(dataset, scale, arch, config, kernel_backend, seed,
                    profile):
    return oracle_make_key(
        KIND_GCOD,
        dataset=dataset,
        scale=scale,
        arch=arch,
        config=oracle_config_payload(config),
        kernel_backend=get_backend(kernel_backend).name,
        seed=seed,
        profile=profile,
    )


def oracle_sweep_point_key(dataset, scale, arch, config, kernel_backend,
                           seed, profile, bits, hw_scale, tech_node, axes,
                           workload=None, workload_scales=()):
    return oracle_make_key(
        KIND_SWEEP,
        dataset=dataset,
        scale=scale,
        arch=arch,
        config=oracle_config_payload(config),
        kernel_backend=get_backend(kernel_backend).name,
        seed=seed,
        profile=profile,
        bits=bits,
        hw_scale=float(hw_scale),
        tech_node=int(tech_node),
        axes=dict(sorted(axes.items())),
        workload=workload,
        workload_scales=dict(sorted(dict(workload_scales).items())),
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
BACKENDS = st.sampled_from([None, "vectorized", "reference", "tiled"])


def numpy_or_plain(ints):
    """An int strategy, also drawn as numpy scalars of two widths."""
    return st.one_of(ints, ints.map(np.int64), ints.map(np.int32))


finite = st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False)
scales = st.one_of(st.none(), finite, finite.map(np.float64))
configs = st.builds(
    lambda kw, backend: GCoDConfig(kernel_backend=backend, **kw),
    st.fixed_dictionaries(CONFIG_FIELDS), BACKENDS,
)
axis_values = st.one_of(
    numpy_or_plain(st.integers(0, 64)), finite, finite.map(np.float32),
    st.sampled_from(["cora", "pubmed", "cora/gcn+citeseer/gat"]),
)
axes = st.dictionaries(
    st.sampled_from(["dataset", "C", "S", "sparsity", "bits", "hw_scale",
                     "tech_node", "seed", "workload", "kernel_backend"]),
    axis_values, max_size=6,
)
workloads = st.one_of(
    st.tuples(st.none(), st.just(())),
    st.tuples(
        st.sampled_from(["cora/gcn+citeseer/gat", "cora/gcn>pubmed/gin"]),
        st.lists(st.tuples(st.sampled_from(["cora", "citeseer", "pubmed"]),
                           scales),
                 max_size=3, unique_by=lambda pair: pair[0]).map(tuple),
    ),
)


def assert_same_key(key, oracle):
    assert key.kind == oracle.kind
    assert key.digest == oracle.digest
    assert key.payload == oracle.payload


@settings(max_examples=150, deadline=None)
@given(dataset=st.sampled_from(["cora", "reddit"]), scale=scales,
       arch=st.sampled_from(["gcn", "gat"]), config=configs,
       backend=BACKENDS, seed=numpy_or_plain(st.integers(0, 2**31 - 1)),
       profile=st.sampled_from(["fast", "paper"]))
def test_gcod_key_matches_the_double_walk(dataset, scale, arch, config,
                                          backend, seed, profile):
    args = (dataset, scale, arch, config, backend, seed, profile)
    oracle = oracle_gcod_key(*args)
    assert_same_key(gcod_key(*args), oracle)
    assert_same_key(gcod_key(*args, walked_config=walk_config(config)),
                    oracle)


@settings(max_examples=200, deadline=None)
@given(dataset=st.sampled_from(["cora", "reddit"]), scale=scales,
       arch=st.sampled_from(["gcn", "gat"]), config=configs,
       backend=BACKENDS, seed=numpy_or_plain(st.integers(0, 2**31 - 1)),
       bits=numpy_or_plain(st.sampled_from([8, 32])),
       hw_scale=st.one_of(finite, finite.map(np.float32),
                          st.integers(1, 4)),
       tech_node=numpy_or_plain(st.sampled_from([7, 16, 28])),
       axes=axes, workload=workloads)
def test_sweep_point_key_matches_the_double_walk(dataset, scale, arch,
                                                 config, backend, seed,
                                                 bits, hw_scale, tech_node,
                                                 axes, workload):
    args = (dataset, scale, arch, config, backend, seed, "fast", bits,
            hw_scale, tech_node, axes)
    shorthand, workload_scales = workload
    extra = dict(workload=shorthand, workload_scales=workload_scales)
    oracle = oracle_sweep_point_key(*args, **extra)
    assert_same_key(sweep_point_key(*args, **extra), oracle)
    assert_same_key(
        sweep_point_key(*args, walked_config=walk_config(config), **extra),
        oracle)


@pytest.mark.parametrize("config_backend", [None, "vectorized"])
@pytest.mark.parametrize("backend", [None, "vectorized"])
def test_default_backend_spellings_key_like_the_oracle(config_backend,
                                                       backend):
    config = GCoDConfig(kernel_backend=config_backend)
    args = ("cora", None, "gcn", config, backend, 0, "fast", 32, 1.0, 16,
            {"C": np.int64(2), "sparsity": np.float64(0.5)})
    assert_same_key(sweep_point_key(*args), oracle_sweep_point_key(*args))
    assert_same_key(gcod_key(*args[:7]), oracle_gcod_key(*args[:7]))


def test_plan_keys_equal_per_point_keys_over_every_registered_sweep():
    """The plan keys each point, and each training task of an uncached
    point, from one walk per config: every key equals the oracle's."""
    for spec in all_sweeps():
        plan = plan_sweep(EvalContext(profile="fast"), spec)
        assert plan.keys, spec.name
        for point, key in zip(plan.points, plan.keys):
            assert_same_key(key, point.key())
            assert_same_key(key, oracle_sweep_point_key(
                point.dataset, point.scale, point.arch, point.config,
                point.kernel_backend, point.seed, point.profile, point.bits,
                point.hw_scale, point.tech_node, dict(point.axes),
                workload=point.workload,
                workload_scales=point.workload_scales))
            for task in point.gcod_tasks():
                assert_same_key(task.key(), oracle_gcod_key(
                    task.dataset, task.scale, task.arch, task.config,
                    task.kernel_backend, task.seed, task.profile))
        assert {t.key().digest for t in plan.tasks} == {
            t.key().digest for p in plan.points for t in p.gcod_tasks()}


def test_points_over_one_pipeline_share_one_config():
    spec = SweepSpec(name="shared", title="shared", axes={
        "dataset": ("cora", "pubmed"), "C": (1, 2), "S": (1, 3),
        "bits": (32, 8), "hw_scale": (0.5, 1.0),
    })
    points = expand(spec, EvalContext(profile="fast"))
    configs = {id(p.config): p.config for p in points}
    # C=1,S=1 and C=1,S=3 stay apart; S is clamped up to C for C=2,S=1
    assert len(configs) == 4
    tasks = {p.gcod_task().key().digest for p in points}
    assert len(tasks) == 2 * len(configs)  # two datasets per config


def test_points_over_one_pipeline_share_one_task_object():
    """Each distinct training run is one object, so its key hashes once
    per plan however many points depend on it."""
    for spec in all_sweeps():
        points = expand(spec, EvalContext(profile="fast"))
        tasks = [t for p in points for t in p.gcod_tasks()]
        assert len({id(t) for t in tasks}) == \
            len({t.key().digest for t in tasks}), spec.name


def test_negative_zero_sparsity_keeps_its_own_config():
    spec = SweepSpec(name="zeros", title="zeros",
                     axes={"sparsity": (0.0, -0.0)})
    points = expand(spec, EvalContext(profile="fast"))
    assert [repr(p.config.prune_ratio) for p in points] == ["0.0", "-0.0"]
    plan = plan_sweep(EvalContext(profile="fast"), spec)
    assert plan.keys[0].digest != plan.keys[1].digest
    for point, key in zip(plan.points, plan.keys):
        assert_same_key(key, point.key())
