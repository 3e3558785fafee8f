"""CLI and report-generator tests."""

import pytest

from repro.cli import build_parser, main
from repro.runtime.registry import all_experiments


def test_parser_knows_all_commands():
    parser = build_parser()
    args = parser.parse_args(["experiment", "tab04"])
    assert args.command == "experiment"
    args = parser.parse_args(["train", "cora", "--arch", "gat"])
    assert args.arch == "gat"
    args = parser.parse_args(["report", "-o", "out.md"])
    assert args.output == "out.md"


def test_experiment_registry_matches_modules():
    assert {"fig04", "fig09", "fig10", "fig11", "fig12", "tab03", "tab04",
            "tab05", "tab06", "tab07", "ablation-cs", "ablation-design",
            "training-cost", "reordering",
            "multi-tenant"} == {spec.name for spec in all_experiments()}


def test_cli_static_experiment(capsys):
    assert main(["experiment", "tab04"]) == 0
    out = capsys.readouterr().out
    assert "GCN" in out and "ResGCN" in out


def test_cli_unknown_experiment(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_report_sections_come_from_registry():
    # shape_checks needs trained graphs for five datasets: too slow here.
    # Instead verify the report discovers its sections from the registry.
    from repro.runtime.registry import all_experiments

    specs = all_experiments()
    assert len(specs) == 15
    titles = [s.title for s in specs]
    assert any("Tab. VI" in t for t in titles)
    assert any("Fig. 11" in t for t in titles)
