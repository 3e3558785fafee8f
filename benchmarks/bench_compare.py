#!/usr/bin/env python
"""Compare the parent and change runs recorded in one ``BENCH_*.json``.

A ``BENCH_*.json`` holds perfbench result lines for a parent commit and a
change, run in alternated pairs. This script groups the ``--trace 0`` runs
by (workload, seed) and, for every end-to-end metric in
``BENCHMARK.json``, prints the parent's and the change's quartiles
(numpy's default linear interpolation) and how many pairs the change won
(strictly better; ties win nothing). It exits 1 when some change median
is worse than the parent median by more than the metric's bound, relative
to the parent median, and 2 when the file cannot be compared: a pair
with one side missing, or a pair whose two fingerprints differ in more
than the code under test (commit and schema version).

After the table it prints, per (workload, seed), the ``--trace 1`` run's
per-layer metrics (``per_layer`` in ``BENCHMARK.json``), parent beside
change, leaving out those that read zero on both sides. The traced runs
time the layers, not the workload, so they feed no verdict.

``--summary`` prints the per-group numbers as the JSON ``summary`` block
a ``BENCH_*.json`` carries, instead of both tables.

Usage::

    python benchmarks/bench_compare.py BENCH_24.json
    python benchmarks/bench_compare.py BENCH_24.json --summary
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
#: Fingerprint fields that name the code under test; the two sides of a
#: pair may differ only in these.
CODE_FIELDS = ("git_commit", "code_schema_version")


class CompareError(ValueError):
    """The runs in the file cannot be paired up."""


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median and Q3, linearly interpolated, rounded to 4 places."""
    return [round(float(q), 4) for q in np.percentile(values, (25, 50, 75))]


def _pairs(runs: Sequence[dict]) -> Dict[Tuple[str, int], list]:
    """``--trace 0`` runs as {(workload, seed): [(parent, change), ...]},
    pairs in pair order."""
    sides: Dict[Tuple[str, int, int], Dict[str, dict]] = defaultdict(dict)
    for run in runs:
        if run["trace"] == 0:
            sides[(run["workload"], run["seed"], run["pair"])][
                run["side"]] = run
    groups: Dict[Tuple[str, int], list] = defaultdict(list)
    for (workload, seed, pair), by_side in sorted(sides.items()):
        if set(by_side) != set(SIDES):
            raise CompareError(f"{workload} seed {seed} pair {pair}: only "
                               f"{', '.join(sorted(by_side))}")
        parent, change = (by_side[side] for side in SIDES)
        prints = [{k: v for k, v in run["fingerprint"].items()
                   if k not in CODE_FIELDS} for run in (parent, change)]
        if prints[0] != prints[1]:
            raise CompareError(f"{workload} seed {seed} pair {pair}: the "
                               "two sides ran on different fingerprints")
        groups[(workload, seed)].append((parent, change))
    return groups


def summarise(bench: dict, metrics: Sequence[dict]) -> List[dict]:
    """The ``summary`` block of ``bench``: per (workload, seed), each
    metric's parent and change quartiles and the change's pair wins."""
    out = []
    for (workload, seed), pairs in sorted(_pairs(bench["runs"]).items()):
        block = {}
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            values = [
                [run["result"]["metrics"][name]["value"] for run in pair]
                for pair in pairs
            ]
            block[name] = {
                "parent_q1_median_q3": quartiles([p for p, _ in values]),
                "change_q1_median_q3": quartiles([c for _, c in values]),
                "change_wins": sum(sign * (c - p) > 0 for p, c in values),
            }
        out.append({"workload": workload, "seed": seed,
                    "pairs": len(pairs), "metrics": block})
    return out


def regressions(summary: Sequence[dict], metrics: Sequence[dict]) -> List[str]:
    """One line per metric whose change median is worse than the parent
    median by more than its bound."""
    bounds = {m["name"]: m for m in metrics}
    out = []
    for group in summary:
        for name, row in group["metrics"].items():
            m = bounds[name]
            parent = row["parent_q1_median_q3"][1]
            change = row["change_q1_median_q3"][1]
            worse = change - parent if m["better"] == "lower" \
                else parent - change
            if worse > m["bound"] * abs(parent):
                out.append(f"{group['workload']} seed {group['seed']} "
                           f"{name}: {parent:g} -> {change:g} "
                           f"(bound {m['bound']:.0%})")
    return out


def table(summary: Sequence[dict]) -> List[str]:
    lines = []
    for group in summary:
        lines.append(f"{group['workload']} seed {group['seed']} "
                     f"({group['pairs']} pairs)")
        lines.append(f"  {'metric':<18} {'parent q1/median/q3':>30}  "
                     f"{'change q1/median/q3':>30}  {'wins':>5}")
        for name, row in group["metrics"].items():
            cells = ["/".join(f"{v:g}" for v in row[side])
                     for side in ("parent_q1_median_q3",
                                  "change_q1_median_q3")]
            lines.append(f"  {name:<18} {cells[0]:>30}  {cells[1]:>30}  "
                         f"{row['change_wins']:>2}/{group['pairs']:<2}")
    return lines


def trace_table(runs: Sequence[dict], per_layer: Sequence[dict]) -> List[str]:
    """The ``--trace 1`` runs' per-layer metrics, parent beside change;
    ``-`` marks a side with no traced run."""
    traced: Dict[Tuple[str, int], Dict[str, dict]] = defaultdict(dict)
    for run in runs:
        if run["trace"] == 1:
            traced[(run["workload"], run["seed"])][run["side"]] = \
                run["result"]["metrics"]
    lines = []
    for (workload, seed), by_side in sorted(traced.items()):
        lines.append(f"{workload} seed {seed} traced (--trace 1)")
        lines.append(f"  {'per-layer metric':<32} {'parent':>12}  "
                     f"{'change':>12}")
        for m in per_layer:
            values = [by_side[side][m["name"]]["value"]
                      if side in by_side else None for side in SIDES]
            if not any(values):
                continue
            cells = ["-" if v is None else f"{v:.0f}" if v == int(v)
                     else f"{v:.6g}" for v in values]
            lines.append(f"  {m['name']:<32} {cells[0]:>12}  {cells[1]:>12}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", help="a BENCH_*.json file")
    parser.add_argument("--summary", action="store_true",
                        help="print the summary block as JSON")
    args = parser.parse_args(argv)
    with open(args.bench) as fh:
        bench = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    metrics = declared["end_to_end"]
    try:
        summary = summarise(bench, metrics)
    except CompareError as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    if args.summary:
        print(json.dumps(summary, indent=2))
    else:
        print("\n".join(table(summary)
                        + trace_table(bench["runs"], declared["per_layer"])))
    worse = regressions(summary, metrics)
    for line in worse:
        print(f"WORSE BEYOND BOUND: {line}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
