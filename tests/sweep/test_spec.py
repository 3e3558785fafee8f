"""SweepSpec construction, --grid parsing, and grid expansion."""

import pytest

from repro.errors import ConfigError, UnknownDatasetError, UnknownSweepError
from repro.evaluation import EvalContext
from repro.sweep import (
    AXES,
    SweepSpec,
    all_sweeps,
    expand,
    get_sweep,
    parse_grid,
    register_sweep,
)


def ctx():
    return EvalContext(profile="fast")


# ----------------------------------------------------------------------
# spec construction / validation
# ----------------------------------------------------------------------
def test_spec_normalizes_axes_and_counts_points():
    spec = SweepSpec(name="t", title="t",
                     axes={"dataset": ["cora"], "C": [1, 2], "S": (8, 12)})
    assert spec.axis_names == ("dataset", "C", "S")
    assert spec.num_points == 4
    assert spec.axes[1] == ("C", (1, 2))  # values coerced to tuples
    assert "4 points" in spec.describe()


def test_spec_rejects_unknown_axis_and_empty_values():
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        SweepSpec(name="t", title="t", axes={"chunkiness": (1,)})
    with pytest.raises(ConfigError, match="no values"):
        SweepSpec(name="t", title="t", axes={"C": ()})
    with pytest.raises(ConfigError, match="declares no axes"):
        SweepSpec(name="t", title="t", axes={})


def test_unknown_axis_error_suggests_near_miss():
    """Case slips and one-edit typos get a did-you-mean plus the full
    known-axis list — in parse_grid and SweepSpec construction alike."""
    from repro.sweep.spec import parse_grid

    with pytest.raises(ConfigError, match=r"did you mean 'C'\?"):
        parse_grid("c=1,2")
    with pytest.raises(ConfigError, match=r"did you mean 'hw_scale'\?"):
        parse_grid("hwscale=2")
    with pytest.raises(ConfigError, match=r"did you mean 'dataset'\?"):
        SweepSpec(name="t", title="t", axes={"DATASET": ("cora",)})
    # hopeless typos still list every known axis, without a bogus guess
    with pytest.raises(ConfigError, match="choose from dataset, arch, workload, C"):
        parse_grid("zzz=1")


def test_spec_validates_axis_values():
    with pytest.raises(ConfigError):
        SweepSpec(name="t", title="t", axes={"bits": (16,)})
    with pytest.raises(ConfigError):
        SweepSpec(name="t", title="t", axes={"sparsity": (1.5,)})
    with pytest.raises(ConfigError):
        SweepSpec(name="t", title="t", axes={"hw_scale": (0.0,)})
    with pytest.raises(ConfigError):
        SweepSpec(name="t", title="t", axes={"C": ("many",)})


def test_spec_is_hashable_and_immutable():
    spec = SweepSpec(name="t", title="t", axes={"C": (1, 2)})
    assert hash(spec) == hash(
        SweepSpec(name="t", title="t", axes={"C": (1, 2)})
    )
    with pytest.raises(AttributeError):
        spec.name = "other"


# ----------------------------------------------------------------------
# --grid parsing
# ----------------------------------------------------------------------
def test_parse_grid_roundtrip():
    axes = parse_grid("dataset=cora,reddit; C=1,2,3,4 ;S=8,12,16,20")
    assert axes == {
        "dataset": ("cora", "reddit"),
        "C": (1, 2, 3, 4),
        "S": (8, 12, 16, 20),
    }
    spec = SweepSpec(name="g", title="g", axes=axes)
    assert spec.num_points == 32


def test_parse_grid_coerces_types():
    axes = parse_grid("sparsity=0.1,0.2;bits=8,32;hw_scale=0.5,2")
    assert axes["sparsity"] == (0.1, 0.2)
    assert axes["bits"] == (8, 32)
    assert axes["hw_scale"] == (0.5, 2.0)
    assert all(isinstance(v, float) for v in axes["hw_scale"])


@pytest.mark.parametrize("bad", [
    "", "C", "C=", "nope=1", "C=1;C=2", "C=x", "bits=12",
])
def test_parse_grid_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_grid(bad)


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------
def test_expand_grid_order_is_product_order():
    spec = SweepSpec(name="t", title="t",
                     axes={"dataset": ("cora", "citeseer"), "C": (1, 2)})
    points = expand(spec, ctx())
    assert [p.axes for p in points] == [
        (("dataset", "cora"), ("C", 1)),
        (("dataset", "cora"), ("C", 2)),
        (("dataset", "citeseer"), ("C", 1)),
        (("dataset", "citeseer"), ("C", 2)),
    ]
    # context defaults flow in: scale, seed, profile, resolved backend
    assert points[0].scale == ctx().scale_for("cora")
    assert points[0].kernel_backend == "vectorized"
    assert points[0].bits == 32 and points[0].hw_scale == 1.0


def test_expand_clamps_subgraphs_to_classes():
    spec = SweepSpec(name="t", title="t", axes={"C": (4,), "S": (2,)})
    point = expand(spec, ctx())[0]
    assert point.config.num_classes == 4
    assert point.config.num_subgraphs == 4  # clamped up from S=2
    assert point.axes == (("C", 4), ("S", 2))  # raw coordinate preserved


def test_expand_clamps_default_subgraphs_when_only_c_sweeps():
    # default num_subgraphs is 8; C=12 alone must not build an invalid config
    spec = SweepSpec(name="t", title="t", axes={"C": (12,)})
    point = expand(spec, ctx())[0]
    assert point.config.num_subgraphs == 12


def test_expand_applies_sparsity_and_backend():
    spec = SweepSpec(
        name="t", title="t",
        axes={"sparsity": (0.3,), "kernel_backend": ("reference",)},
    )
    point = expand(spec, ctx())[0]
    assert point.config.prune_ratio == 0.3
    assert point.config.kernel_backend == "reference"
    assert point.kernel_backend == "reference"


def test_expand_rejects_unknown_dataset_eagerly():
    spec = SweepSpec(name="t", title="t", axes={"dataset": ("atlantis",)})
    with pytest.raises(UnknownDatasetError):
        expand(spec, ctx())


def test_expand_rejects_unknown_arch_eagerly():
    spec = SweepSpec(name="t", title="t", axes={"arch": ("gcn", "gcnn")})
    with pytest.raises(ConfigError, match="unknown architecture"):
        expand(spec, ctx())


def test_expand_normalizes_name_case():
    # "Cora"/"GCN" must share cache keys (and table cells) with the
    # lowercase spellings: load_dataset lowercases, so same numerics.
    upper = expand(SweepSpec(name="t", title="t",
                             axes={"dataset": ("Cora",), "arch": ("GCN",)}),
                   ctx())[0]
    lower = expand(SweepSpec(name="t", title="t",
                             axes={"dataset": ("cora",), "arch": ("gcn",)}),
                   ctx())[0]
    assert upper.dataset == "cora" and upper.arch == "gcn"
    assert upper.axes == lower.axes
    assert upper.key().digest == lower.key().digest
    assert upper.gcod_task().key().digest == lower.gcod_task().key().digest


def test_point_keys_distinct_across_grid_and_stable():
    spec = SweepSpec(name="t", title="t",
                     axes={"C": (1, 2), "S": (2, 4), "bits": (8, 32)})
    points = expand(spec, ctx())
    digests = [p.key().digest for p in points]
    assert len(set(digests)) == len(points)
    assert digests == [p.key().digest for p in expand(spec, ctx())]


def test_clamped_duplicate_configs_still_get_distinct_keys():
    # (C=4, S=2) and (C=4, S=4) resolve to the same config; the raw
    # coordinates keep their stored results distinct.
    spec = SweepSpec(name="t", title="t", axes={"C": (4,), "S": (2, 4)})
    a, b = expand(spec, ctx())
    assert a.config == b.config
    assert a.gcod_task().key().digest == b.gcod_task().key().digest
    assert a.key().digest != b.key().digest


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_builtin_sweeps_are_registered():
    assert {"ablation-cs", "tab05-scale", "fig12-energy"} <= \
        {s.name for s in all_sweeps()}
    assert get_sweep("ablation-cs").num_points == 32
    assert get_sweep("tab05-scale").num_points == 6
    assert get_sweep("fig12-energy").num_points == 20
    assert all(isinstance(s, SweepSpec) for s in all_sweeps())


def test_unknown_sweep_raises_with_choices():
    with pytest.raises(UnknownSweepError, match="choose from"):
        get_sweep("nope")
    with pytest.raises(UnknownSweepError, match="did you mean 'tab05-scale'"):
        get_sweep("tab05scale")


def test_duplicate_sweep_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_sweep(SweepSpec(name="ablation-cs", title="dup",
                                 axes={"C": (1,)}))


# ----------------------------------------------------------------------
# axis-coercion diagnostics and the budget/seed axes
# ----------------------------------------------------------------------
def test_coerce_errors_name_value_and_type():
    """Both failure paths — uncastable and out-of-range — use the one
    message format naming the offending value *and its type* (a list and
    its string spelling render identically under !r alone)."""
    with pytest.raises(ConfigError,
                       match=r"axis 'C': invalid value 'x' of type str"):
        parse_grid("C=x")
    with pytest.raises(ConfigError,
                       match=r"axis 'bits': invalid value '12' of type "
                             r"str \(platform precision: 8 or 32\)"):
        parse_grid("bits=12")
    with pytest.raises(ConfigError,
                       match=r"axis 'bits': invalid value \[8\] of type "
                             r"list"):
        SweepSpec(name="t", title="t", axes={"bits": ([8],)})
    with pytest.raises(ConfigError,
                       match=r"invalid value 1.5 of type float"):
        SweepSpec(name="t", title="t", axes={"sparsity": (1.5,)})


def test_tech_node_axis_parses_and_expands():
    axes = parse_grid("tech_node=7,16,28")
    assert axes["tech_node"] == (7, 16, 28)
    points = expand(SweepSpec(name="t", title="t", axes=axes), ctx())
    assert [p.tech_node for p in points] == [7, 16, 28]
    # without the axis every point sits at the 16 nm reference
    default = expand(SweepSpec(name="t", title="t", axes={"C": (1,)}),
                     ctx())[0]
    assert default.tech_node == 16
    with pytest.raises(ConfigError, match=r"axis 'tech_node'"):
        parse_grid("tech_node=10")


def test_tech_node_axis_matches_budget_registry():
    # the axis validator spells the node set literally (to stay
    # import-light); it must never drift from the budget models'
    from repro.hardware.budget import TECH_NODES

    ok = [nm for nm in (5, 7, 10, 12, 16, 22, 28, 45)
          if nm in TECH_NODES]
    axis = AXES["tech_node"]
    assert [nm for nm in (5, 7, 10, 12, 16, 22, 28, 45)
            if axis.validate(nm)] == ok


def test_seed_axis_varies_training_seed_and_key():
    axes = parse_grid("C=1;seed=0,1")
    points = expand(SweepSpec(name="t", title="t", axes=axes), ctx())
    assert [p.seed for p in points] == [0, 1]
    assert [p.config.seed for p in points] == [0, 1]
    assert points[0].key().digest != points[1].key().digest
    assert points[0].gcod_task().key().digest != \
        points[1].gcod_task().key().digest
    with pytest.raises(ConfigError, match=r"axis 'seed'"):
        parse_grid("seed=-1")


def test_tech_node_changes_point_key_not_training_key():
    # silicon node is a platform knob: same trained pipeline, new point
    a, b = expand(SweepSpec(name="t", title="t",
                            axes={"tech_node": (7, 28)}), ctx())
    assert a.gcod_task().key().digest == b.gcod_task().key().digest
    assert a.key().digest != b.key().digest
