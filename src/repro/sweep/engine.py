"""Store-backed sweep execution: plan, warm, evaluate (in parallel), resume.

The engine mirrors the plan/execute split of :mod:`repro.runtime.runner`:

1. **Plan** — expand the :class:`~repro.sweep.spec.SweepSpec` into points,
   check which already have a :class:`SweepPointResult` in the artifact
   store (those are *skipped*, counter-assertably), and de-duplicate the
   remaining points' GCoD training dependencies — points that differ only
   in platform axes (``bits``, ``hw_scale``) or report coordinates share
   one trained pipeline.
2. **Execute** — warm the unique training runs into the store, then
   drain the pending points through the one executor loop
   (:func:`~repro.runtime.runner.drain`) with one work function, a
   :class:`_PointEvaluator`: in this process, across ``--jobs N`` pool
   children (:func:`~repro.runtime.runner.drain_pool`; each persists its
   results straight into the store), or under the claims of a shared
   store's :class:`~repro.sweep.ledger.WorkLedger`. One collection loop
   then takes every point in grid order from this process's results,
   else from the store, and evaluates inline only when both miss — so
   ``--jobs N`` and a worker fleet render byte-identical output to a
   serial run. A :class:`~repro.sweep.manifest.SweepManifest` opened at
   execute time records planned/done point keys; an interrupted sweep
   (a :class:`GCoDTaskError`, SIGINT) resumes with ``repro sweep
   --resume``, re-running only the missing points.

Per-point metrics are multi-objective, following Figs. 10-12: speedup over
AWB-GCN and bandwidth reduction vs HyGCN on the same (paper-scale)
workload, plus accuracy, intra-class balance, latency, the full per-phase
energy breakdown (:mod:`repro.hardware.energy`), total DRAM traffic, and
the event-driven aggregation schedule's cycle count and DMA-channel
utilization (:mod:`repro.hardware.event_sim`) of the GCoD variant selected
by the ``bits``/``hw_scale`` axes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.hardware.energy import EnergyBreakdown
from repro.runtime import counters
from repro.runtime.keys import ArtifactKey, walk_config
from repro.runtime.runner import (
    GCoDTask,
    GCoDTaskError,
    _never_done,
    drain,
    drain_pool,
    failure,
    pool_width,
    train_or_load,
    warm_tasks,
)
from repro.runtime.store import ArtifactStore
from repro.sweep.ledger import WorkLedger
from repro.sweep.manifest import (
    SweepManifest,
    begin_manifest,
    load_manifest,
    write_manifest,
)
from repro.sweep.spec import SweepPoint, SweepSpec, expand


@dataclass
class SweepPointResult:
    """Metrics of one evaluated design point (the stored artifact)."""

    #: raw grid coordinates, in axis order — e.g. (("dataset", "cora"),
    #: ("C", 2), ("S", 8)).
    axes: Tuple[Tuple[str, Any], ...]
    dataset: str
    arch: str
    num_classes: int
    num_subgraphs: int
    prune_ratio: float
    bits: int
    hw_scale: float
    #: logic technology node (nm) the budget models cost the design at.
    tech_node: int
    kernel_backend: str
    speedup_vs_awb: float
    bw_reduction_vs_hygcn: float
    accuracy: float
    balance: float
    gcod_latency_s: float
    awb_latency_s: float
    gcod_required_bw_gbps: float
    hygcn_required_bw_gbps: float
    gcod_energy_j: float
    #: total off-chip (DRAM) traffic of one GCoD inference, in bytes.
    gcod_dram_bytes: float
    #: silicon cost of the selected platform variant (bits x hw_scale x
    #: tech_node) from :class:`~repro.hardware.budget.AreaPowerModel` —
    #: what ``--constrain "power<=5,area<=40"`` budgets against.
    area_mm2: float
    tdp_w: float
    #: per-phase energy breakdowns (compute/on-chip/off-chip joules), the
    #: way Fig. 12 splits them.
    comb_energy: EnergyBreakdown
    agg_energy: EnergyBreakdown
    #: event-driven aggregation schedule: total cycles and the fraction of
    #: them the shared DMA channel was busy (per-tile accounting).
    agg_sim_cycles: float
    agg_dma_utilization: float

    def coord(self, axis: str, default: Any = None) -> Any:
        for name, value in self.axes:
            if name == axis:
                return value
        return default

    def to_summary_dict(self) -> Dict[str, Any]:
        """Scalar summary for cache-entry metadata (``repro cache ls``)."""
        return {
            "dataset": self.dataset,
            "arch": self.arch,
            "speedup_vs_awb": round(float(self.speedup_vs_awb), 4),
            "accuracy": round(float(self.accuracy), 4),
            "energy_mj": round(float(self.gcod_energy_j) * 1e3, 4),
            "dram_mb": round(float(self.gcod_dram_bytes) / 2**20, 4),
            "bits": self.bits,
            "hw_scale": self.hw_scale,
            "tech_node": self.tech_node,
            "area_mm2": round(float(self.area_mm2), 4),
            "tdp_w": round(float(self.tdp_w), 4),
        }


@dataclass
class SweepPlan:
    """What a sweep invocation is about to do."""

    spec: SweepSpec
    points: List[SweepPoint]
    keys: List[ArtifactKey]
    #: grid indices whose result is already stored.
    cached: List[int]
    #: unique GCoD training runs that must actually execute.
    tasks: List[GCoDTask]
    #: unique training dependencies before store filtering.
    deps_total: int = 0

    def describe(self) -> str:
        return (
            f"sweep {self.spec.name}: {len(self.points)} points "
            f"({len(self.cached)} cached), {self.deps_total} unique GCoD "
            f"deps ({len(self.tasks)} to run)"
        )


@dataclass
class SweepRunReport:
    """Everything ``execute_sweep`` did."""

    spec: SweepSpec
    results: List[SweepPointResult] = field(default_factory=list)
    cache_hits: List[int] = field(default_factory=list)
    points_evaluated: int = 0
    deps_total: int = 0
    tasks_executed: int = 0
    gcod_runs: int = 0
    wall_s: float = 0.0
    #: set when the sweep ran through the shared work ledger: this
    #: worker's id and its claim accounting (claimed/lost/stale/waited).
    worker: Optional[str] = None
    ledger_stats: Optional[Dict[str, float]] = None


def plan_sweep(context, spec: SweepSpec) -> SweepPlan:
    """Phase 1: expand the grid, find cached points, dedupe training."""
    points = expand(spec, context)
    # expand shares one config object among the points over one
    # pipeline; walk each once. ``points`` keeps every config alive, so
    # its id() is stable for this call.
    walked: Dict[int, Any] = {}
    configs = []
    for point in points:
        config = walked.get(id(point.config))
        if config is None:
            config = walked[id(point.config)] = walk_config(point.config)
        configs.append(config)
    keys = [point.key(config) for point, config in zip(points, configs)]
    store: Optional[ArtifactStore] = context.store
    cached = [
        i for i, key in enumerate(keys)
        if store is not None and store.contains(key)
    ]
    cached_set = set(cached)

    deps: Dict[str, GCoDTask] = {}
    for i, point in enumerate(points):
        if i in cached_set:
            continue  # its metrics are stored; no training needed
        for task in point.gcod_tasks():
            # every node of a workload-DAG point is a dependency; the
            # primary node's task digests identically to the legacy
            # single-model task, so mixed grids share training runs.
            # Every node trains under the point's config.
            deps.setdefault(task.key(configs[i]).digest, task)
    tasks = [
        task for digest, task in deps.items()
        if store is None or not store.contains(task.key())
    ]
    return SweepPlan(
        spec=spec,
        points=points,
        keys=keys,
        cached=cached,
        tasks=tasks,
        deps_total=len(deps),
    )


@dataclass
class _Pipeline:
    """One trained pipeline and what every point over it shares.

    Points over one pipeline differ only in platform axes (``bits``,
    ``hw_scale``, ``tech_node``), none of which changes the extracted
    workload or the layout tiles — so both are derived once, here.
    """

    #: the GCoD task digest the pipeline is stored (and memoized) under.
    digest: str
    result: Any  # GCoDResult
    #: the pipeline model's paper-scale :class:`GCNWorkload`.
    workload: Any
    #: the event simulator's layout tiles: per-subgraph diagonal-block nnz
    #: and each subgraph's class id.
    tiles: Tuple[Any, List[int]]


class _PointEvaluator:
    """Evaluates points with per-sweep caches; called on an ``(index,
    point, key)`` item, it is the one point work function.

    The serial path, each pool child and each ledger worker run it alike.
    Memoized for the evaluator's lifetime (one sweep, or one pool child's
    share of it): baselines per (dataset, arch, seed), platform variants
    per (bits, hw_scale, tech_node), one :class:`_Pipeline` per trained
    pipeline, and aggregation event-sims per (pipeline, agg_dim, PE
    count).
    """

    def __init__(self, context, say=None, total: int = 0):
        self.context = context
        self.say = say or (lambda msg: None)
        self.total = total
        #: what this process evaluated, by grid index.
        self.results: Dict[int, SweepPointResult] = {}
        self._pipelines: Dict[str, _Pipeline] = {}
        self._sims: Dict[Tuple[str, int, int], Any] = {}
        self._baselines: Dict[Tuple[str, str, int], Tuple] = {}
        self._platforms: Dict[Tuple[int, float, int], object] = {}

    def _baseline_reports(self, dataset: str, arch: str, seed: int):
        """AWB-GCN and HyGCN on the untreated (paper-scale) workload.

        The models come from ``context.platforms()`` — the same memoized
        registry every experiment uses — so a platform-construction
        change can never apply to experiments but not to sweeps. Keyed
        by seed too: a seed-axis point compares GCoD against baselines
        running the *same* generated graph.
        """
        from repro.hardware import extract_workload

        key = (dataset, arch, seed)
        if key not in self._baselines:
            ctx = self.context
            plats = ctx.platforms()
            graph = ctx.graph_at(dataset, ctx.scale_for(dataset), seed)
            wl_base = extract_workload(graph, None, arch, paper_scale=True)
            self._baselines[key] = (
                plats["awb-gcn"].run(wl_base), plats["hygcn"].run(wl_base)
            )
        return self._baselines[key]

    def _gcod_platform(self, bits: int, hw_scale: float, tech_node: int):
        """The GCoD accelerator variant for (bits, hw_scale, tech_node)."""
        key = (bits, hw_scale, tech_node)
        if key not in self._platforms:
            from repro.hardware.accelerators.gcod import (
                GCoDAccelerator,
                gcod_pe_count,
            )

            self._platforms[key] = GCoDAccelerator(
                bits=bits, num_pes=gcod_pe_count(bits, hw_scale),
                tech_node=tech_node,
            )
        return self._platforms[key]

    def _pipeline(self, task: GCoDTask) -> _Pipeline:
        """Train-or-load the pipeline of ``task`` (store-backed)."""
        from repro.hardware import extract_workload

        digest = task.key().digest
        if digest in self._pipelines:
            return self._pipelines[digest]
        result = train_or_load(task, self.context.store,
                               self.context.graph_at)
        layout, adj = result.layout, result.final_graph.adj
        pipeline = self._pipelines[digest] = _Pipeline(
            digest=digest,
            result=result,
            workload=extract_workload(
                result.final_graph, layout, task.arch, paper_scale=True
            ),
            tiles=(
                layout.subgraph_workloads(adj),
                [s.class_id for s in layout.spans],
            ),
        )
        return pipeline

    def _simulate_aggregation(self, pipeline: _Pipeline, workload,
                              total_pes: int):
        """Event-sim the aggregation schedule of the point's own layout.

        The tiles are the layout's measured per-subgraph workloads —
        per-tile DMA/MAC accounting, not the analytic closed form — run at
        the PE count the ``bits``/``hw_scale`` axes selected (or, for a
        workload-DAG node, its allocated slice of the shared array).
        The simulator reads only the workload's adjacency (shared by
        every layer slice of the pipeline's workload), the aggregation
        width, the PE count and the tiles, so the memo key is exact.
        """
        from repro.hardware.event_sim import simulate_aggregation

        agg_dim = next(
            (layer.aggregation_dim for layer in workload.layers
             if layer.aggregate),
            0,
        )
        key = (pipeline.digest, agg_dim, total_pes)
        if key not in self._sims:  # `in`: a cached None is a hit too
            # no aggregation phase (agg_dim 0): nothing to schedule
            self._sims[key] = simulate_aggregation(
                workload,
                agg_dim=agg_dim,
                total_pes=total_pes,
                layout_tiles=pipeline.tiles,
            ) if agg_dim else None
        return self._sims[key]

    def __call__(self, item: Tuple[int, SweepPoint, ArtifactKey]) -> None:
        """Evaluate the item's point, persist it, keep the result."""
        i, point, key = item
        try:
            result = self.evaluate(point)
        except GCoDTaskError:
            raise
        except Exception as exc:
            raise failure(f"sweep point ({point.label()})", exc) from exc
        if self.context.store is not None:
            self.context.store.put(key, result,
                                   summary=result.to_summary_dict())
        self.results[i] = result
        self.say(f"  [{i + 1}/{self.total}] {point.label()}: "
                 f"{result.speedup_vs_awb:.2f}x vs AWB-GCN")

    def evaluate(self, point: SweepPoint) -> SweepPointResult:
        """Compute one point's metrics (the expensive, counted path).

        Every point is a workload DAG: a single-model point is the
        one-node DAG ``dataset/arch``, and every reduction below is a
        float identity for one node (``sum([x]) == x``). Per-node
        extraction goes through the store-backed :meth:`_pipeline`
        records; :func:`~repro.hardware.pipeline.evaluate_workload` merges
        the node reports with PE time-slicing. Baselines run every
        distinct (dataset, arch) pair serially on the monolithic
        AWB-GCN/HyGCN platforms — the
        multi-tenant framing: one shared GCoD accelerator vs a baseline
        running the models back to back.
        """
        from repro.hardware.pipeline import (
            PipelineSettings,
            evaluate_workload,
            parse_workload,
            slice_workload,
        )

        counters.record_sweep_point_run()
        graph = parse_workload(point.workload
                               or f"{point.dataset}/{point.arch}")
        tasks = {(t.dataset, t.arch): t for t in point.gcod_tasks()}

        def pair_pipeline(dataset: str, arch: str) -> _Pipeline:
            return self._pipeline(tasks[(dataset, arch)])

        def extract_fn(node, _context):
            return pair_pipeline(node.dataset, node.arch).workload

        settings = PipelineSettings(
            bits=point.bits,
            hw_scale=point.hw_scale,
            tech_node=point.tech_node,
            extract_fn=extract_fn,
        )
        wg_report = evaluate_workload(graph, self.context, settings)
        merged = wg_report.merged()

        pairs = list(dict.fromkeys(
            (n.dataset, n.arch) for n in graph.nodes
        ))
        baselines = [
            self._baseline_reports(ds, arch, point.seed)
            for ds, arch in pairs
        ]
        awb_latency = sum(awb.latency_s for awb, _ in baselines)
        hygcn_streamed = sum(h.streamed_bytes for _, h in baselines)
        hygcn_latency = sum(h.latency_s for _, h in baselines)
        hygcn_bw = hygcn_streamed / max(hygcn_latency, 1e-30) / 1e9

        speedup = awb_latency / merged.latency_s
        bw_red = 1.0 - merged.required_bandwidth_gbps / max(hygcn_bw, 1e-9)
        accuracy = sum(
            float(pair_pipeline(ds, arch).result.accuracy_final)
            for ds, arch in pairs
        ) / len(pairs)
        balance = sum(
            float(pair_pipeline(ds, arch).workload.adjacency.class_balance)
            for ds, arch in pairs
        ) / len(pairs)

        # Event-sim each node's aggregation at its allocated PE slice;
        # cycles sum, utilization is the cycle-weighted mean.
        node_pes = dict(wg_report.node_pes)
        sims = []
        for node in graph.nodes:
            pipeline = pair_pipeline(node.dataset, node.arch)
            sim = self._simulate_aggregation(
                pipeline, slice_workload(pipeline.workload, node),
                node_pes[node.name],
            )
            if sim is not None:
                sims.append(sim)
        sim_cycles = sum(float(s.cycles) for s in sims)
        if len(sims) == 1:
            dma_util = float(sims[0].dma_utilization)
        elif sim_cycles > 0:
            dma_util = sum(
                float(s.cycles) * float(s.dma_utilization) for s in sims
            ) / sim_cycles
        else:
            dma_util = 0.0

        budget = self._gcod_platform(
            point.bits, point.hw_scale, point.tech_node
        ).budget()
        return SweepPointResult(
            axes=point.axes,
            dataset=point.dataset,
            arch=point.arch,
            num_classes=point.config.num_classes,
            num_subgraphs=point.config.num_subgraphs,
            prune_ratio=point.config.prune_ratio,
            bits=point.bits,
            hw_scale=point.hw_scale,
            tech_node=point.tech_node,
            kernel_backend=point.kernel_backend,
            speedup_vs_awb=float(speedup),
            bw_reduction_vs_hygcn=float(bw_red),
            accuracy=float(accuracy),
            balance=float(balance),
            gcod_latency_s=float(merged.latency_s),
            awb_latency_s=float(awb_latency),
            gcod_required_bw_gbps=float(merged.required_bandwidth_gbps),
            hygcn_required_bw_gbps=float(hygcn_bw),
            gcod_energy_j=float(merged.energy.total_j),
            gcod_dram_bytes=float(merged.offchip_bytes),
            area_mm2=float(budget.area_mm2),
            tdp_w=float(budget.tdp_w),
            comb_energy=merged.combination.energy,
            agg_energy=merged.aggregation.energy,
            agg_sim_cycles=sim_cycles,
            agg_dma_utilization=dma_util,
        )


def _resolve_ledger(ledger, store: Optional[ArtifactStore]):
    """The :class:`WorkLedger` to use, or ``None`` for single-host mode.

    ``ledger`` may be ``None`` (auto: on iff the store is shared across
    hosts — an ``http(s)://`` locator), a bool (force on/off), or an
    already-built :class:`WorkLedger` (tests tune TTL/poll).
    """
    if isinstance(ledger, WorkLedger):
        return ledger
    if ledger is None:
        ledger = store is not None and store.is_remote
    if not ledger:
        return None
    if store is None:
        raise ConfigError(
            "the shared work ledger needs an artifact store; drop "
            "--no-cache (and point --store-url at a served store)"
        )
    return WorkLedger(store)


def execute_sweep(
    plan: SweepPlan,
    context,
    jobs: int = 1,
    progress=None,
    ledger=None,
) -> SweepRunReport:
    """Phase 2: warm training runs, drain the pending points, collect
    every point in grid order.

    With ``ledger`` active (default whenever the context's store is a
    shared/served one) training runs and points are claimed through the
    store's work ledger, so any number of workers on any number of hosts
    can run this same call concurrently: each item is worked exactly once
    among live workers, dead workers' claims expire, and every worker's
    collection loop aggregates the full grid from store contents.
    """
    t0 = time.perf_counter()
    runs_before = counters.gcod_run_count()
    say = progress or (lambda msg: None)
    store: Optional[ArtifactStore] = context.store
    report = SweepRunReport(
        spec=plan.spec,
        deps_total=plan.deps_total,
        tasks_executed=len(plan.tasks),
    )
    work_ledger = _resolve_ledger(ledger, store)
    cached_set = set(plan.cached)

    manifest: Optional[SweepManifest] = None
    if store is not None:
        # The ledger resume reads: written before any evaluation, so even
        # a sweep killed at point 1 of N leaves its plan behind.
        manifest = begin_manifest(
            store, context, plan.spec, plan.points, plan.keys, cached_set
        )
        # What the store now holds; the finally below writes only if the
        # sweep changed it (refresh rebinds ``done`` and derives
        # ``complete`` from it).
        begun = manifest.done

    if work_ledger is not None and jobs > 1:
        say(f"shared work ledger active: jobs={jobs} applies per "
            "worker fleet, training through claims")
    # pool children hand results back through the store
    width = pool_width(jobs) if store is not None else 1
    if work_ledger is not None or width > 1:
        # Every training run lands in the store before any point needs
        # it, or processes sharing a pipeline would race to train it.
        warm_tasks(plan.tasks, context, jobs, progress, claims=work_ledger)
    elif plan.tasks:
        # Serially each pipeline trains when its first point needs it, so
        # a failing training still leaves every earlier point stored.
        say(f"{len(plan.tasks)} GCoD run(s) will train inline")

    work = _PointEvaluator(context, say, len(plan.points))
    items = {"point-" + key.digest: (i, point, key)
             for i, (point, key) in enumerate(zip(plan.points, plan.keys))
             if i not in cached_set}
    try:
        if work_ledger is not None:
            say(f"evaluating {len(items)} point(s) through the shared work "
                f"ledger (worker {work_ledger.worker})")
            report.points_evaluated = drain(
                items, lambda item: store.contains(item[2]), work,
                claims=work_ledger)
        elif width > 1 and len(items) > 1:
            say(f"evaluating {len(items)} point(s) with jobs={width}")
            report.points_evaluated = drain_pool(
                items, context, width, _PointEvaluator,
                ((ds, point.seed) for _, point, _ in items.values()
                 for ds in [point.dataset]
                 + [d for d, _ in point.workload_scales]))
        else:
            report.points_evaluated = drain(items, _never_done, work)

        # Collect in grid order: this process's results, then the store's
        # (cached points, pool children's and peers' results); a point
        # only evaluates here when both miss (a corrupted entry).
        for i, point in enumerate(plan.points):
            result = work.results.get(i)
            if result is None and store is not None:
                result = store.get(plan.keys[i])
                if result is not None and i in cached_set:
                    report.cache_hits.append(i)
                    counters.record_sweep_point_skip()
            if result is None:
                work((i, point, plan.keys[i]))
                result = work.results[i]
                report.points_evaluated += 1
            report.results.append(result)
    finally:
        # A re-read that took every point from the store leaves the
        # manifest as begun: complete, and nothing adds to a whole grid.
        if manifest is not None and \
                len(report.cache_hits) < len(plan.points):
            # Recompute from store membership: workers may have completed
            # points this process never collected before an interruption.
            manifest.refresh(store)
            if manifest.done != begun:
                write_manifest(store, context, plan.spec, manifest)

    if work_ledger is not None:
        report.worker = work_ledger.worker
        report.ledger_stats = work_ledger.stats.to_dict()
    report.gcod_runs = counters.gcod_run_count() - runs_before
    report.wall_s = time.perf_counter() - t0
    return report


def run_sweep(
    context,
    spec: SweepSpec,
    jobs: int = 1,
    progress=None,
    resume: bool = False,
    ledger=None,
) -> SweepRunReport:
    """Plan then execute in one call; the ``repro sweep`` entry point.

    ``resume=True`` requires a stored manifest for this (context, grid):
    the sweep then evaluates exactly the manifest's missing points (the
    plan's store check skips everything already done). Without a manifest
    — or without a store — resume refuses loudly rather than silently
    starting a fresh sweep.
    """
    say = progress or (lambda msg: None)
    if resume:
        store: Optional[ArtifactStore] = context.store
        if store is None:
            raise ConfigError(
                "--resume needs the artifact store; drop --no-cache"
            )
        manifest = load_manifest(store, context, spec)
        if manifest is None:
            raise ConfigError(
                f"nothing to resume: no manifest for sweep {spec.name!r} "
                f"in {store.root} (run it once without --resume first)"
            )
        missing = manifest.missing_indices(store)
        say(
            f"resuming sweep {spec.name}: "
            f"{len(manifest.planned) - len(missing)}/"
            f"{len(manifest.planned)} points done, "
            f"{len(missing)} to evaluate"
        )
    plan = plan_sweep(context, spec)
    if resume and plan.keys and [k.digest for k in plan.keys] != \
            manifest.planned:
        raise ConfigError(
            f"the stored manifest for sweep {spec.name!r} names different "
            "points than this invocation plans (code, schema, or context "
            "changed); rerun without --resume"
        )
    if progress:
        progress(plan.describe())
    return execute_sweep(plan, context, jobs=jobs, progress=progress,
                         ledger=ledger)
