"""The benchmark comparator reproduces the checked-in summaries.

Every ``BENCH_*.json`` at the repository root carries a ``summary`` block
next to its raw runs; ``benchmarks/bench_compare.py`` must recompute it
exactly from the runs. Synthetic files pin its verdicts: a change median
worse than its bound exits 1, an unpaired run exits 2.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "benchmarks" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_bench_files_found():
    assert any(path.name == "BENCH_23.json" for path in BENCH_FILES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_reproduces_the_checked_in_summary(path):
    bench = json.loads(path.read_text())
    assert bench_compare.summarise(bench, METRICS) == bench["summary"]


def test_summary_flag_prints_the_checked_in_block(capsys):
    path = ROOT / "BENCH_23.json"
    assert bench_compare.main([str(path), "--summary"]) == 0
    assert json.loads(capsys.readouterr().out) == \
        json.loads(path.read_text())["summary"]


def test_traced_runs_print_per_layer_metrics_side_by_side(capsys):
    assert bench_compare.main([str(ROOT / "BENCH_24.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    start = out.index("dse-grid seed 1 traced (--trace 1)")
    rows = {}
    for line in out[start + 2:]:
        if not line.startswith("  "):
            break
        rows[line.split()[0]] = line.split()[1:]
    assert rows["store.put_s"] == ["0.198428", "0.178118"]
    assert rows["store.puts"] == ["434", "434"]
    # Metrics that read zero on both sides (nothing trains here) are left out.
    assert "nn.train_s" not in rows
    assert "report-cold seed 1 traced (--trace 1)" in out
    assert "serve-mixed seed 1 traced (--trace 1)" in out


def test_traced_run_missing_on_one_side_prints_a_dash(capsys):
    bench = json.loads((ROOT / "BENCH_24.json").read_text())
    runs = [r for r in bench["runs"]
            if r["trace"] == 1 and r["workload"] == "dse-grid"]
    lines = bench_compare.trace_table(
        [r for r in runs if r["side"] == "change"],
        [{"name": "store.put_s"}, {"name": "nn.train_s"}])
    assert lines[0] == "dse-grid seed 1 traced (--trace 1)"
    assert lines[2].split() == ["store.put_s", "-", "0.178118"]
    assert len(lines) == 3


def _bench(parent_cold, change_cold):
    """A one-group file: paired dse-grid runs differing only in cold_s."""
    base = json.loads((ROOT / "BENCH_23.json").read_text())
    template = next(r for r in base["runs"] if r["trace"] == 0)
    runs = []
    for pair, (p, c) in enumerate(zip(parent_cold, change_cold), 1):
        for side, cold in (("parent", p), ("change", c)):
            run = copy.deepcopy(template)
            run.update(workload="dse-grid", seed=1, pair=pair, side=side)
            run["result"]["metrics"]["cold_s"]["value"] = cold
            runs.append(run)
    return {"runs": runs}


def _main(tmp_path, bench):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(bench))
    return bench_compare.main([str(path)])


def test_change_inside_its_bound_passes(tmp_path, capsys):
    bench = _bench([1.0, 1.0, 1.0], [1.2, 1.2, 1.2])
    assert _main(tmp_path, bench) == 0
    out = capsys.readouterr().out
    assert "dse-grid seed 1 (3 pairs)" in out
    assert "cold_s" in out and "WORSE" not in out


def test_change_beyond_its_bound_fails(tmp_path, capsys):
    bench = _bench([1.0, 1.0, 1.0], [1.0, 1.3, 1.3])
    summary = bench_compare.summarise(bench, METRICS)
    row = summary[0]["metrics"]["cold_s"]
    assert row["change_q1_median_q3"] == [1.15, 1.3, 1.3]
    assert row["change_wins"] == 0
    assert _main(tmp_path, bench) == 1
    assert "WORSE BEYOND BOUND: dse-grid seed 1 cold_s: 1 -> 1.3" in \
        capsys.readouterr().out


def test_unpaired_run_is_refused(tmp_path, capsys):
    bench = _bench([1.0, 1.0], [1.0, 1.0])
    bench["runs"].pop()
    assert _main(tmp_path, bench) == 2
    assert "pair 2: only parent" in capsys.readouterr().err


def test_pair_on_different_machines_is_refused(tmp_path, capsys):
    bench = _bench([1.0], [1.0])
    bench["runs"][1]["fingerprint"]["effective_cpu_count"] = 64
    assert _main(tmp_path, bench) == 2
    assert "different fingerprints" in capsys.readouterr().err
