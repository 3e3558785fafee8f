"""CLI surface of ``repro lint``: exit codes, formats, baseline, golden."""

from __future__ import annotations

import json

from repro.cli import build_parser, main
from repro.runtime.keys import CODE_SCHEMA_VERSION

from tests.analysis.conftest import append_to


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seed_violation(tree):
    append_to(tree / "runtime" / "keys.py",
              "\nimport time\nV = time.time()\n")


def test_parser_knows_lint():
    parser = build_parser()
    args = parser.parse_args(["lint"])
    assert args.command == "lint" and args.path is None
    args = parser.parse_args(["lint", "src/repro", "--format", "json",
                              "--rules", "determinism,store-write"])
    assert args.path == "src/repro"
    assert args.format == "json"
    assert args.rules == "determinism,store-write"


def test_shipped_tree_exits_0(capsys):
    code, out, _ = run_cli(["lint"], capsys)
    assert code == 0
    assert "clean" in out


def test_seeded_violation_exits_1_naming_rule_file_line(scratch_tree,
                                                        capsys):
    seed_violation(scratch_tree)
    code, out, _ = run_cli(["lint", str(scratch_tree)], capsys)
    assert code == 1
    assert "runtime/keys.py:" in out
    assert "[determinism]" in out
    assert "time.time" in out
    assert "hint:" in out


def test_unknown_rule_exits_2_with_suggestion(capsys):
    code, _, err = run_cli(["lint", "--rules", "determinsm"], capsys)
    assert code == 2
    assert "unknown lint rule" in err
    assert "did you mean 'determinism'?" in err


def test_bad_root_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["lint", str(tmp_path / "nope")], capsys)
    assert code == 2
    assert "not a directory" in err


def test_json_format_is_machine_readable(scratch_tree, capsys):
    seed_violation(scratch_tree)
    code, out, _ = run_cli(
        ["lint", str(scratch_tree), "--format", "json"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["exit_code"] == 1
    assert payload["rules"] == [
        "determinism", "key-coverage", "schema-drift", "store-write",
        "except-swallow", "registry-sync", "orphan",
    ]
    (finding,) = payload["findings"]
    assert finding["rule"] == "determinism"
    assert finding["path"] == "runtime/keys.py"
    assert finding["line"] > 0
    assert "time.time" in finding["message"]


def test_json_clean_run(scratch_tree, capsys):
    code, out, _ = run_cli(
        ["lint", str(scratch_tree), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == [] and payload["exit_code"] == 0


def test_update_baseline_then_clean(scratch_tree, tmp_path, capsys):
    seed_violation(scratch_tree)
    baseline = tmp_path / "baseline.json"

    code, _, err = run_cli(
        ["lint", str(scratch_tree), "--baseline", str(baseline),
         "--update-baseline"],
        capsys,
    )
    assert code == 0
    assert "baselined 1 finding(s)" in err
    assert json.loads(baseline.read_text())["findings"]

    # grandfathered: exit 0, but the suppression is announced
    code, out, _ = run_cli(
        ["lint", str(scratch_tree), "--baseline", str(baseline)], capsys
    )
    assert code == 0
    assert "1 baselined finding(s) suppressed" in out

    # a new violation on top of the baseline still fails
    append_to(scratch_tree / "runtime" / "keys.py",
              "import os\nW = os.urandom(4)\n")
    code, out, _ = run_cli(
        ["lint", str(scratch_tree), "--baseline", str(baseline)], capsys
    )
    assert code == 1
    assert "os.urandom" in out


def test_write_golden_refreshes_then_lints(scratch_tree, capsys):
    from tests.analysis.conftest import bump_schema_version, rewrite

    rewrite(
        scratch_tree / "sweep" / "engine.py",
        "    agg_dma_utilization: float",
        "    agg_dma_utilization: float\n    new_metric: float = 0.0",
    )
    bump_schema_version(scratch_tree)
    # stale golden: fails without the refresh ...
    code, out, _ = run_cli(["lint", str(scratch_tree)], capsys)
    assert code == 1 and "schema-golden-stale" in out
    # ... --write-golden regenerates and the same run comes back clean
    code, out, err = run_cli(
        ["lint", str(scratch_tree), "--write-golden"], capsys
    )
    assert code == 0
    assert "wrote" in err
    golden = json.loads(
        (scratch_tree / "analysis" / "schema_golden.json").read_text()
    )
    assert golden["schema_version"] == CODE_SCHEMA_VERSION + 1


def test_lint_help_lists_rules():
    # the CLI docstring/help should not drift from the rule set
    from repro.analysis import rule_ids

    assert list(rule_ids()) == [
        "determinism", "key-coverage", "schema-drift", "store-write",
        "except-swallow", "registry-sync", "orphan",
    ]
