"""Satellite: the schema-drift golden-fingerprint rule, end to end.

Mutating a serialized dataclass in a scratch copy must fail lint until
``CODE_SCHEMA_VERSION`` is bumped — and after the bump, the golden file
itself must be regenerated before the tree lints clean again.
"""

from __future__ import annotations

import json

from repro.analysis import LintContext, lint_tree
from repro.analysis.rules.schema_drift import (
    collect_shapes,
    fingerprint,
    write_golden,
)
from repro.runtime.keys import CODE_SCHEMA_VERSION

from tests.analysis.conftest import append_to, bump_schema_version, rewrite


def drift_findings(tree):
    report = lint_tree(root=str(tree), rules=["schema-drift"])
    return report.findings


def add_result_field(tree):
    """Grow SweepPointResult by one serialized field."""
    rewrite(
        tree / "sweep" / "engine.py",
        "    agg_dma_utilization: float",
        "    agg_dma_utilization: float\n"
        "    new_metric: float = 0.0",
    )


def test_pristine_tree_matches_golden(scratch_tree):
    assert drift_findings(scratch_tree) == []


def test_shape_change_without_bump_is_drift(scratch_tree):
    add_result_field(scratch_tree)
    hits = drift_findings(scratch_tree)
    assert len(hits) == 1
    hit = hits[0]
    assert hit.rule == "schema-drift"
    assert hit.path == "runtime/keys.py"
    assert "without a CODE_SCHEMA_VERSION bump" in hit.message
    # the diff names the class and the new field
    assert "SweepPointResult" in hit.message
    assert "+new_metric" in hit.message
    assert "bump CODE_SCHEMA_VERSION" in hit.hint


def test_bump_trades_drift_for_stale_golden(scratch_tree):
    """The version bump clears schema-drift, but the golden file now
    records the *old* shapes under the old version — a second change
    could ride the same bump forever. schema-golden-stale closes that
    loophole."""
    add_result_field(scratch_tree)
    bump_schema_version(scratch_tree)
    hits = drift_findings(scratch_tree)
    assert len(hits) == 1
    hit = hits[0]
    assert hit.rule == "schema-golden-stale"
    assert hit.path == "analysis/schema_golden.json"
    assert f"({CODE_SCHEMA_VERSION} -> {CODE_SCHEMA_VERSION + 1})" in hit.message
    assert "--write-golden" in hit.hint


def test_write_golden_completes_the_cycle(scratch_tree):
    add_result_field(scratch_tree)
    bump_schema_version(scratch_tree)
    path = write_golden(LintContext(str(scratch_tree)))
    assert path is not None
    golden = json.loads(open(path).read())
    assert golden["schema_version"] == CODE_SCHEMA_VERSION + 1
    assert "new_metric" in json.dumps(golden["shapes"]["SweepPointResult"])
    assert drift_findings(scratch_tree) == []


def test_missing_golden_is_reported(scratch_tree):
    (scratch_tree / "analysis" / "schema_golden.json").unlink()
    hits = drift_findings(scratch_tree)
    assert len(hits) == 1
    assert hits[0].rule == "schema-golden-stale"
    assert "missing" in hits[0].message


def test_annotation_change_alone_is_drift(scratch_tree):
    # not just field adds: retyping a field changes unpickle semantics
    rewrite(
        scratch_tree / "sweep" / "engine.py",
        "    gcod_dram_bytes: float",
        "    gcod_dram_bytes: int",
    )
    hits = drift_findings(scratch_tree)
    assert len(hits) == 1
    assert hits[0].rule == "schema-drift"
    assert "annotations/defaults changed" in hits[0].message


def test_unserialized_helpers_do_not_trip_the_rule(scratch_tree):
    # a new module-level helper dataclass is not in SERIALIZED_SHAPES
    append_to(scratch_tree / "sweep" / "engine.py", (
        "\n\nimport dataclasses as _dc\n\n"
        "@_dc.dataclass\n"
        "class _ScratchHelper:\n"
        "    x: int = 0\n"
    ))
    assert drift_findings(scratch_tree) == []


def test_fingerprint_is_stable_across_reparse(scratch_tree):
    a = collect_shapes(LintContext(str(scratch_tree)))
    b = collect_shapes(LintContext(str(scratch_tree)))
    assert a is not None and fingerprint(a) == fingerprint(b)


def test_golden_matches_shipped_sources():
    """The checked-in golden must describe the tree as shipped —
    otherwise every fresh clone starts dirty."""
    from repro.analysis import default_lint_root
    from repro.analysis.rules.schema_drift import golden_path

    ctx = LintContext(default_lint_root())
    shapes = collect_shapes(ctx)
    assert shapes is not None
    golden = json.loads(open(golden_path(ctx)).read())
    assert golden["fingerprint"] == fingerprint(shapes)
    assert golden["schema_version"] == CODE_SCHEMA_VERSION
