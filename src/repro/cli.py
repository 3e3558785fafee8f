"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment <name>``
    Run one paper experiment (names come from the runtime registry:
    ``fig04``, ``fig09``, ``fig10``, ``fig11``, ``fig12``, ``tab03``,
    ``tab04``, ``tab05``, ``tab06``, ``tab07``, ``ablation-cs``,
    ``ablation-design``, ``training-cost``, ``reordering``) and print the
    regenerated table/figure.
``train <dataset>``
    Run the full GCoD pipeline on one dataset and print the summary.
``simulate <dataset>``
    Map a GCoD-trained graph onto every platform and print the speedups.
``report``
    Run every experiment (``--experiments a,b`` to select) and write a
    combined report. ``--jobs N`` trains the de-duplicated GCoD
    dependencies across a process pool; ``--format json --out DIR`` writes
    machine-readable per-experiment files instead of markdown.
``sweep``
    Run a design-space sweep: a registered grid (``repro sweep
    ablation-cs``; bare ``repro sweep`` lists them) or an ad-hoc one
    (``--grid "dataset=cora;C=1,2,3,4;S=8,12,16,20"``). Cached points are
    skipped, unique training runs *and* the analytic point evaluations
    pool across ``--jobs N``, and the output is a long-form table plus a
    Pareto frontier over selectable objectives (``--objectives
    speedup,energy,dram``; default speedup,accuracy). An interrupted sweep
    resumes from its stored manifest with ``--resume``, re-running only
    the missing points (``--format json|csv --out DIR`` for
    machine-readable files).
``workload``
    Evaluate a multi-model workload DAG on one shared GCoD accelerator:
    ``--workload "cora/gcn+citeseer/gat"`` (shorthand: ``+`` joins
    concurrent nodes time-slicing the PE array, ``>`` joins sequential
    phases, each node is ``dataset/arch[/layers][@share]``) or ``--file
    graph.json`` for arbitrary DAGs. Per-node extraction reuses the
    store-backed GCoD training artifacts; the output is a per-node
    latency/PE table plus the contention-merged totals (``--format
    json`` for machines). The same shorthand is a sweep axis:
    ``repro sweep --grid "workload=cora/gcn+cora/gat;bits=8,32"``.
``cache``
    Inspect the persistent artifact store: ``ls``, ``stats``, ``clear``.
``store serve``
    Expose one local store root over HTTP so many sweep workers — on this
    host or others — share a single artifact store. Workers point
    ``--store-url http://host:port`` (or ``$REPRO_STORE_URL``) at it; the
    sweep engine then coordinates through the store's work ledger, so N
    workers running the same grid split the points with zero duplicate
    evaluations (``--stats-out`` writes each worker's counters as JSON).
``serve``
    Run the batched inference service: clients send line-delimited JSON
    graph queries (dataset / arch / kernel backend) over TCP; queries
    already in the artifact store answer warm (no training), cold ones
    micro-batch per (dataset, arch, backend) inside a ``--max-batch`` /
    ``--max-wait-ms`` window so one training dispatch serves every
    identical query in the window. See :mod:`repro.serve`.
``lint``
    Run the AST-based invariant checker (:mod:`repro.analysis`) over the
    installed ``repro`` source tree (or an explicit path): determinism,
    cache-key coverage, schema drift, store-write discipline, exception
    hygiene, registry consistency. ``--format json`` for machines,
    ``--rules a,b`` for a subset, ``--update-baseline``/``--write-golden``
    to refresh the checked-in state. Exits 0 clean / 1 new findings /
    2 usage.

All commands share ``--profile``, ``--kernel-backend``, and the artifact
store flags: results persist under ``--cache-dir`` (default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-gcod``) so a second invocation
reuses every trained pipeline; ``--store-url URL`` (or
``$REPRO_STORE_URL``) swaps the local directory for a served store;
``--no-cache`` disables persistence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from repro.errors import (
    ConfigError,
    KernelError,
    UnknownDatasetError,
    UnknownExperimentError,
    UnknownSweepError,
)
from repro.evaluation import EvalContext
from repro.runtime import CODE_SCHEMA_VERSION
from repro.runtime.registry import experiment_names, get_experiment
from repro.runtime.keys import ALL_KINDS
from repro.runtime.store import ArtifactStore, default_cache_dir
from repro.sparse.kernels import backend_choices, set_default_backend


def _cmd_experiment(args, ctx: EvalContext) -> int:
    # an unknown name raises UnknownExperimentError; main() turns it into
    # a clear message and exit code 2
    result = get_experiment(args.name).runner(ctx)
    print(result.render())
    return 0


def _cmd_train(args, ctx: EvalContext) -> int:
    result = ctx.gcod(args.dataset, args.arch)
    print(result.summary())
    print(f"early-bird epoch: {result.early_bird_epoch}")
    print(result.layout.describe())
    return 0


def _cmd_simulate(args, ctx: EvalContext) -> int:
    from repro.utils.ascii_plot import bar_chart

    platforms = list(ctx.platforms())
    speedups = ctx.speedups_over_cpu(args.dataset, args.arch, platforms)
    print(bar_chart(platforms, [speedups[p] for p in platforms],
                    title=f"{args.dataset}/{args.arch}: speedup over PyG-CPU"))
    return 0


def _cmd_report(args, ctx: EvalContext) -> int:
    from repro.evaluation.report import (
        generate_report,
        report_results,
        shape_checks,
    )

    names = None
    if args.experiments:
        # dedup, preserving order: a repeated name would execute (and
        # render) the experiment twice on a store-less run
        names = list(dict.fromkeys(
            n.strip() for n in args.experiments.split(",") if n.strip()
        ))
        if not names:
            print("--experiments selected nothing", file=sys.stderr)
            return 2
        try:
            for name in names:
                get_experiment(name)
        except UnknownExperimentError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    progress = (lambda msg: print(msg, file=sys.stderr)) if not args.quiet \
        else None
    t0 = time.perf_counter()

    if args.format == "markdown":
        if args.out:
            print("--out is for --format json/csv; markdown wants "
                  "--output FILE", file=sys.stderr)
            return 2
        text = generate_report(ctx, names=names, jobs=args.jobs,
                               progress=progress)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0

    # json / csv: one machine-readable file per experiment under --out
    # (never --output: that names the markdown file, not a directory).
    if args.output:
        print(f"--output is for markdown; --format {args.format} wants "
              "--out DIR", file=sys.stderr)
        return 2
    out_dir = args.out
    if not out_dir:
        print(f"--format {args.format} requires --out DIR", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    run = report_results(ctx, names=names, jobs=args.jobs, progress=progress)
    written = []
    for name, result in run.results.items():
        ext = "json" if args.format == "json" else "csv"
        path = os.path.join(out_dir, f"{name}.{ext}")
        with open(path, "w") as fh:
            fh.write(result.to_json() if args.format == "json"
                     else result.to_csv())
        written.append(path)
    shape_lines = shape_checks(ctx) if names is None else None
    from repro.sparse.kernels import get_backend

    index = {
        "profile": ctx.profile,
        # resolved name, matching the cache-key normalization: a default
        # run and an explicit --kernel-backend vectorized run are the
        # same series
        "kernel_backend": get_backend(ctx.kernel_backend).name,
        "seed": ctx.seed,
        "schema": CODE_SCHEMA_VERSION,
        "experiments": list(run.results),
        "cache_hits": run.cache_hits,
        # parent-process training runs; with --jobs N the pool workers do
        # the cold-run training, which tasks_executed counts.
        "gcod_runs_in_parent": run.gcod_runs,
        "gcod_tasks_executed": run.tasks_executed,
        "timings_s": {k: round(v, 4) for k, v in run.timings.items()},
        # captured after the shape checks so the index reflects the full
        # invocation cost (CI charts warm/cold trajectories off this)
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    if shape_lines is not None:
        index["shape_checks"] = shape_lines
    index_path = os.path.join(out_dir, "report.json")
    with open(index_path, "w") as fh:
        json.dump(index, fh, indent=2)
    print(f"wrote {len(written)} experiment files + report.json to {out_dir}")
    return 0


def _cmd_sweep(args, ctx: EvalContext) -> int:
    from repro.sweep import (
        SweepSpec,
        all_sweeps,
        get_sweep,
        long_form_result,
        pareto_result,
        parse_grid,
        resolve_constraints,
        resolve_objectives,
        run_sweep,
        seed_variance_result,
        sweep_report_text,
    )

    # An unknown --objectives name or --constrain metric is a usage error
    # (exit 2 via main's ConfigError handler) — caught before any
    # planning or training.
    objectives = resolve_objectives(args.objectives)
    constraints = resolve_constraints(args.constrain)

    if args.name is None and not args.grid:
        print("registered sweeps (run one, or pass --grid):")
        for spec in all_sweeps():
            print(f"  {spec.name:<14} {spec.num_points:>4} points  "
                  f"{spec.title}")
        return 0
    if args.name is not None and args.grid:
        print("pass a registered sweep name OR --grid, not both",
              file=sys.stderr)
        return 2
    if args.name is not None:
        spec = get_sweep(args.name)  # UnknownSweepError -> exit 2 in main()
    else:
        spec = SweepSpec(name="custom", title="Custom grid",
                         axes=parse_grid(args.grid))

    # Validate the output plumbing *before* the sweep runs: a flag mixup
    # must not cost a full grid of training runs.
    if args.format == "markdown" and args.out:
        print("--out is for --format json/csv; markdown wants "
              "--output FILE", file=sys.stderr)
        return 2
    if args.format != "markdown":
        if args.output:
            print(f"--output is for markdown; --format {args.format} wants "
                  "--out DIR", file=sys.stderr)
            return 2
        if not args.out:
            print(f"--format {args.format} requires --out DIR",
                  file=sys.stderr)
            return 2

    progress = (lambda msg: print(msg, file=sys.stderr)) if not args.quiet \
        else None
    from repro.runtime import counters

    skips_before = counters.sweep_point_skip_count()
    report = run_sweep(ctx, spec, jobs=args.jobs, progress=progress,
                       resume=args.resume, ledger=args.ledger)
    if progress:
        progress(
            f"{len(report.results)} points in {report.wall_s:.2f}s "
            f"({len(report.cache_hits)} cached, "
            f"{report.points_evaluated} evaluated, "
            f"{report.tasks_executed} GCoD runs scheduled)"
        )

    if args.stats_out:
        # Per-worker accounting for multi-host runs: CI sums
        # sweep_point_runs across workers and asserts it equals the grid
        # size (exactly-once), and that skips account for the rest.
        stats = {
            "sweep": spec.name,
            "store": ctx.store.root if ctx.store is not None else None,
            "worker": report.worker,
            "points_total": len(report.results),
            "points_evaluated": report.points_evaluated,
            "cache_hits": len(report.cache_hits),
            "sweep_point_runs": report.points_evaluated,
            "sweep_point_skips":
                counters.sweep_point_skip_count() - skips_before,
            "gcod_runs": report.gcod_runs,
            "tasks_executed": report.tasks_executed,
            "wall_s": round(report.wall_s, 4),
            "ledger": report.ledger_stats,
        }
        with open(args.stats_out, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
        if progress:
            progress(f"wrote worker stats to {args.stats_out}")

    if args.format == "markdown":
        text = sweep_report_text(spec, report.results,
                                 objectives=objectives,
                                 constraints=constraints)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"wrote {args.output}")
        else:
            print(text, end="")
        return 0

    os.makedirs(args.out, exist_ok=True)
    table = long_form_result(spec, report.results, constraints=constraints)
    pareto = pareto_result(spec, report.results, objectives=objectives,
                           constraints=constraints)
    variance = seed_variance_result(spec, report.results)
    written = []
    if args.format == "json":
        # One document holding the grid, the tidy table, and the frontier.
        # Deliberately free of wall times and cache accounting: a warm
        # rerun must emit byte-identical files (progress goes to stderr).
        payload = {
            "sweep": spec.name,
            "title": spec.title,
            "axes": {name: list(values) for name, values in spec.axes},
            "objectives": [o.name for o in objectives],
            "constraints": [c.describe() for c in constraints],
            "profile": ctx.profile,
            "seed": ctx.seed,
            "schema": CODE_SCHEMA_VERSION,
            "table": table.to_jsonable(),
            "pareto": pareto.to_jsonable(),
        }
        if variance is not None:
            payload["variance"] = variance.to_jsonable()
        path = os.path.join(args.out, f"{spec.name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        written.append(path)
    else:
        outputs = [("", table), ("_pareto", pareto)]
        if variance is not None:
            outputs.append(("_variance", variance))
        for suffix, result in outputs:
            path = os.path.join(args.out, f"{spec.name}{suffix}.csv")
            with open(path, "w") as fh:
                fh.write(result.to_csv())
            written.append(path)
    print(f"wrote {', '.join(written)}")
    return 0


def _cmd_workload(args, ctx: EvalContext) -> int:
    from repro.hardware.pipeline import (
        PipelineSettings,
        evaluate_workload,
        parse_workload,
        workload_from_json,
    )

    if bool(args.workload) == bool(args.file):
        print("pass --workload SHORTHAND or --file JSON (exactly one)",
              file=sys.stderr)
        return 2
    if args.workload:
        graph = parse_workload(args.workload)
    else:
        try:
            with open(args.file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot read workload JSON {args.file!r}: {exc}"
            ) from None
        graph = workload_from_json(data)

    settings = PipelineSettings(
        bits=args.bits, hw_scale=args.hw_scale, tech_node=args.tech_node
    )
    report = evaluate_workload(graph, ctx, settings)

    if args.format == "json":
        json.dump(report.to_jsonable(), sys.stdout, indent=2)
        print()
        return 0

    merged = report.merged()
    node_pes = dict(report.node_pes)
    print(f"workload {graph.name!r} on {report.platform} "
          f"({int(report.notes['levels'])} level(s), "
          f"{sum(node_pes.values())} PEs allocated)")
    print(f"  {'node':<24} {'PEs':>6} {'latency':>12} {'energy':>10} "
          f"{'DRAM':>10}")
    for name, node_report in report.node_reports:
        print(f"  {name:<24} {node_pes[name]:>6} "
              f"{node_report.latency_s * 1e3:>10.3f}ms "
              f"{node_report.energy.total_j * 1e3:>8.3f}mJ "
              f"{_human_bytes(node_report.offchip_bytes):>10}")
    print(f"  {'merged':<24} {'':>6} {merged.latency_s * 1e3:>10.3f}ms "
          f"{merged.energy.total_j * 1e3:>8.3f}mJ "
          f"{_human_bytes(merged.offchip_bytes):>10}")
    print(f"  required bandwidth: {merged.required_bandwidth_gbps:.2f} "
          f"GB/s")
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}GB"


def _cmd_cache(args, ctx: EvalContext) -> int:
    if ctx.store is None:
        # --no-cache promises not to touch on-disk artifacts; refusing is
        # safer than silently operating on the default store.
        print("cache commands need a store; drop --no-cache",
              file=sys.stderr)
        return 2
    store = ctx.store
    if args.action == "clear":
        removed = store.clear(kind=args.kind)
        print(f"removed {removed} entries from {store.root}")
        return 0
    if args.action == "stats":
        stats = store.stats()
        print(f"artifact store: {store.root}")
        for kind in sorted(k for k in stats if k not in ("total", "tmp")):
            row = stats[kind]
            print(f"  {kind:<12} {int(row['entries']):>5} entries  "
                  f"{_human_bytes(row['bytes'])}")
        total = stats["total"]
        print(f"  {'total':<12} {int(total['entries']):>5} entries  "
              f"{_human_bytes(total['bytes'])}")
        if "tmp" in stats:
            # crash debris still younger than the stale threshold; older
            # temps were already swept when this store opened.
            tmp = stats["tmp"]
            print(f"  in-flight temp files: {int(tmp['entries'])} "
                  f"({_human_bytes(tmp['bytes'])})")
        if store.reclaimed_tmp:
            print(f"  reclaimed on open: {store.reclaimed_tmp} stale temp "
                  f"file(s), {_human_bytes(store.reclaimed_tmp_bytes)}")
        return 0
    # ls
    count = 0
    for entry in store.entries(kind=args.kind):
        summary = entry.meta.get("summary", {})
        extras = ""
        if summary:
            bits = [
                f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(summary.items())
                if isinstance(v, (str, int, float))
            ][:6]
            extras = "  " + " ".join(bits)
        stamp = time.strftime("%Y-%m-%d %H:%M",
                              time.localtime(entry.created))
        print(f"{entry.kind:<12} {entry.digest[:12]}  "
              f"{_human_bytes(entry.size_bytes):>9}  {stamp}{extras}")
        count += 1
    if count == 0:
        print(f"(empty store at {store.root})")
    return 0


def _cmd_lint(args, ctx: EvalContext) -> int:
    from repro.analysis import lint_tree, write_baseline
    from repro.analysis.rules.schema_drift import write_golden as \
        regenerate_golden
    from repro.analysis.core import LintContext

    root = args.path  # None -> the installed repro package
    if args.write_golden:
        # Regenerate the schema fingerprint first so the run below
        # reports the post-refresh state, not the stale golden.
        from repro.analysis.lint import default_lint_root

        target = os.path.abspath(root or default_lint_root())
        written = regenerate_golden(LintContext(target))
        if written is None:
            print("cannot regenerate the schema golden: the tree is "
                  "missing declared shape modules", file=sys.stderr)
            return 2
        print(f"wrote {written}", file=sys.stderr)
    report = lint_tree(
        root=root,
        rules=args.rules,
        baseline=args.baseline,
        use_baseline=not args.update_baseline,
    )
    if args.update_baseline:
        from repro.analysis.baseline import default_baseline_path

        path = args.baseline or default_baseline_path(report.root)
        write_baseline(path, report.findings)
        print(f"baselined {len(report.findings)} finding(s) into {path}",
              file=sys.stderr)
        return 0
    print(report.render(args.format), end="")
    return report.exit_code


def _parse_scales(text: Optional[str]) -> dict:
    """Parse ``--dataset-scale "cora=0.1,nell=0.02"`` into a dict."""
    scales: dict = {}
    if not text:
        return scales
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep or not name.strip():
            raise ConfigError(
                f"--dataset-scale wants name=scale pairs, got {part!r}"
            )
        try:
            scales[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(
                f"--dataset-scale {name.strip()!r} wants a number, "
                f"got {value!r}"
            ) from None
    return scales


def _cmd_serve(args, ctx: EvalContext) -> int:
    from dataclasses import replace as dc_replace

    from repro.serve import ServeSettings, run_serve

    scales = _parse_scales(args.dataset_scale)
    if scales or args.seed is not None:
        ctx = dc_replace(
            ctx,
            dataset_scales=scales or ctx.dataset_scales,
            seed=args.seed if args.seed is not None else ctx.seed,
        )
    settings = ServeSettings(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, workers=args.workers,
        verbose=args.verbose,
    )
    return run_serve(ctx, settings)


def _cmd_store(args, ctx: EvalContext) -> int:
    from repro.runtime.server import serve_store

    root = args.root
    if root is None:
        if ctx.store is None or ctx.store.is_remote:
            print("store serve needs a local root: pass --root DIR (or "
                  "--cache-dir, and drop --no-cache/--store-url)",
                  file=sys.stderr)
            return 2
        root = ctx.store.root
    return serve_store(root, host=args.host, port=args.port,
                       verbose=args.verbose)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GCoD (HPCA 2022) reproduction toolkit",
    )
    parser.add_argument("--profile", choices=("fast", "full"), default="fast",
                        help="experiment scale profile")
    # Choices come from the kernel registry, so an unregistered name
    # exits 2 here instead of failing mid-run.
    parser.add_argument("--kernel-backend", choices=backend_choices(),
                        default=None,
                        help="SpMM kernel backend for all numerics "
                             "(default: vectorized)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact store location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-gcod)")
    parser.add_argument("--store-url", default=None,
                        help="shared artifact store URL from `repro store "
                             "serve` (default: $REPRO_STORE_URL; mutually "
                             "exclusive with --cache-dir)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not persist/reuse artifacts on disk")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run one paper experiment")
    p_exp.add_argument("name", help=", ".join(experiment_names()))
    p_exp.set_defaults(func=_cmd_experiment)

    p_train = sub.add_parser("train", help="run the GCoD pipeline")
    p_train.add_argument("dataset")
    p_train.add_argument("--arch", default="gcn")
    p_train.set_defaults(func=_cmd_train)

    p_sim = sub.add_parser("simulate", help="simulate all platforms")
    p_sim.add_argument("dataset")
    p_sim.add_argument("--arch", default="gcn")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("report", help="run everything, write a report")
    p_rep.add_argument("--output", "-o", default=None,
                       help="markdown output file (default: stdout)")
    p_rep.add_argument("--format", choices=("markdown", "json", "csv"),
                       default="markdown",
                       help="output format (json/csv write per-experiment "
                            "files under --out)")
    p_rep.add_argument("--out", default=None,
                       help="output directory for --format json/csv")
    p_rep.add_argument("--jobs", "-j", type=int, default=1,
                       help="process-pool width for GCoD training runs")
    p_rep.add_argument("--experiments", default=None,
                       help="comma-separated experiment subset (default: all)")
    p_rep.add_argument("--quiet", action="store_true",
                       help="suppress progress lines on stderr")
    p_rep.set_defaults(func=_cmd_report)

    p_sw = sub.add_parser("sweep", help="run a design-space sweep")
    p_sw.add_argument("name", nargs="?", default=None,
                      help="registered sweep name (bare `repro sweep` "
                           "lists them)")
    p_sw.add_argument("--grid", default=None,
                      help="ad-hoc grid, e.g. "
                           "\"dataset=cora;C=1,2,3,4;S=8,12,16,20\"")
    p_sw.add_argument("--jobs", "-j", type=int, default=1,
                      help="process-pool width for GCoD training runs "
                           "AND the analytic point evaluations")
    p_sw.add_argument("--objectives", default=None,
                      help="comma-separated Pareto objectives, e.g. "
                           "\"speedup,energy,dram\" (default: "
                           "speedup,accuracy; also: latency, bandwidth, "
                           "power, area)")
    p_sw.add_argument("--constrain", default=None, metavar="BOUNDS",
                      help="budget constraints the frontier must satisfy, "
                           "e.g. \"power<=5,area<=40,dram<=2e9\" "
                           "(metrics: power, area, energy, dram, latency, "
                           "bandwidth; infeasible points stay in the long "
                           "form, flagged in a `feasible` column)")
    p_sw.add_argument("--resume", action="store_true",
                      help="resume an interrupted sweep from its stored "
                           "manifest (only missing points evaluate)")
    p_sw.add_argument("--ledger", action="store_true", default=None,
                      help="coordinate with peer workers through the "
                           "store's work ledger (default: automatic when "
                           "--store-url points at a shared store; pass "
                           "explicitly for a shared --cache-dir on a "
                           "common filesystem)")
    p_sw.add_argument("--stats-out", default=None, metavar="FILE",
                      help="write this worker's evaluation/ledger "
                           "counters as JSON (multi-worker accounting)")
    p_sw.add_argument("--format", choices=("markdown", "json", "csv"),
                      default="markdown",
                      help="output format (json/csv write files under "
                           "--out)")
    p_sw.add_argument("--out", default=None,
                      help="output directory for --format json/csv")
    p_sw.add_argument("--output", "-o", default=None,
                      help="markdown output file (default: stdout)")
    p_sw.add_argument("--quiet", action="store_true",
                      help="suppress progress lines on stderr")
    p_sw.set_defaults(func=_cmd_sweep)

    p_wl = sub.add_parser("workload",
                          help="evaluate a multi-model workload DAG")
    p_wl.add_argument("--workload", "-w", default=None, metavar="SHORTHAND",
                      help="workload DAG shorthand, e.g. "
                           "\"cora/gcn+citeseer/gat\" (`+` concurrent, "
                           "`>` sequential, node = "
                           "dataset/arch[/layers][@share])")
    p_wl.add_argument("--file", "-f", default=None, metavar="JSON",
                      help="workload DAG as a JSON file (arbitrary "
                           "dependencies; see the README's schema)")
    p_wl.add_argument("--bits", type=int, choices=(8, 32), default=32,
                      help="platform precision (default: 32)")
    p_wl.add_argument("--hw-scale", type=float, default=1.0,
                      help="PE-array multiplier on the shared accelerator "
                           "(default: 1.0)")
    p_wl.add_argument("--tech-node", type=int, choices=(7, 16, 28),
                      default=16,
                      help="logic technology node in nm (default: 16)")
    p_wl.add_argument("--format", choices=("table", "json"),
                      default="table", help="output format")
    p_wl.set_defaults(func=_cmd_workload)

    p_cache = sub.add_parser("cache", help="inspect the artifact store")
    p_cache.add_argument("action", choices=("ls", "stats", "clear"))
    # choices derive from the kind constants so the CLI can never drift
    # from the store layout (the old hand-written help text omitted
    # `claim`); `repro lint`'s registry-sync rule enforces this.
    p_cache.add_argument("--kind", default=None, choices=ALL_KINDS,
                         help="restrict to one artifact kind")
    p_cache.set_defaults(func=_cmd_cache)

    p_srv = sub.add_parser("serve", help="batched inference service")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8731,
                       help="bind port (default: 8731; 0 picks a free "
                            "port, reported on the listening line)")
    p_srv.add_argument("--max-batch", type=int, default=16,
                       help="flush a cold micro-batch at this many "
                            "requests (default: 16)")
    p_srv.add_argument("--max-wait-ms", type=float, default=5.0,
                       help="flush a cold micro-batch this many ms after "
                            "its first request (default: 5)")
    p_srv.add_argument("--workers", type=int, default=1,
                       help="training executor width (default: 1 = "
                            "dispatches serialize)")
    p_srv.add_argument("--seed", type=int, default=None,
                       help="context seed (default: 0)")
    p_srv.add_argument("--dataset-scale", default=None, metavar="SPEC",
                       help="override generation scales, e.g. "
                            "\"cora=0.1,nell=0.02\" (keys into the same "
                            "cache series as any other context using "
                            "those scales)")
    p_srv.add_argument("--verbose", action="store_true",
                       help="log batch dispatches on stderr")
    p_srv.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser("lint", help="AST-based invariant checker")
    p_lint.add_argument("path", nargs="?", default=None,
                        help="package directory to lint (default: the "
                             "installed repro package)")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text", help="finding output format")
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated rule subset (default: all; "
                             "ids: determinism, key-coverage, "
                             "schema-drift, store-write, except-swallow, "
                             "registry-sync)")
    p_lint.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of grandfathered findings "
                             "(default: analysis/lint_baseline.json in "
                             "the linted tree)")
    p_lint.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with the current "
                             "findings instead of failing on them")
    p_lint.add_argument("--write-golden", action="store_true",
                        help="regenerate the schema-drift golden "
                             "fingerprint from the current tree")
    p_lint.set_defaults(func=_cmd_lint)

    p_store = sub.add_parser("store", help="shared artifact-store server")
    p_store.add_argument("action", choices=("serve",))
    p_store.add_argument("--root", default=None,
                         help="store root directory to serve (default: "
                              "the --cache-dir/default store)")
    p_store.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_store.add_argument("--port", type=int, default=8750,
                         help="bind port (default: 8750; 0 picks a free "
                              "port)")
    p_store.add_argument("--verbose", action="store_true",
                         help="log every request")
    p_store.set_defaults(func=_cmd_store)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.kernel_backend is not None:
        # Make the choice process-wide so even code paths that never see the
        # context (direct GraphOps construction, the emulator) honor it.
        set_default_backend(args.kernel_backend)
    if args.store_url and args.cache_dir:
        print("--store-url and --cache-dir name different stores; pass "
              "one or the other", file=sys.stderr)
        return 2
    store = None
    if not args.no_cache:
        # Explicit flags beat the environment; default_cache_dir() itself
        # honors $REPRO_STORE_URL over $REPRO_CACHE_DIR.
        locator = args.store_url or args.cache_dir or default_cache_dir()
        store = ArtifactStore(locator)
    ctx = EvalContext(profile=args.profile, kernel_backend=args.kernel_backend,
                      store=store)
    try:
        return args.func(args, ctx)
    except (UnknownDatasetError, UnknownExperimentError, UnknownSweepError,
            ConfigError, KernelError) as exc:
        # Bad names and malformed --grid strings are usage errors: one
        # clear line on stderr and exit code 2, not a traceback.
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
