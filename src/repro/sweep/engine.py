"""Store-backed sweep execution: plan, warm, evaluate (in parallel), resume.

The engine mirrors the plan/execute split of :mod:`repro.runtime.runner`:

1. **Plan** — expand the :class:`~repro.sweep.spec.SweepSpec` into points,
   check which already have a :class:`SweepPointResult` in the artifact
   store (those are *skipped*, counter-assertably), and de-duplicate the
   remaining points' GCoD training dependencies — points that differ only
   in platform axes (``bits``, ``hw_scale``) or report coordinates share
   one trained pipeline.
2. **Execute** — warm the unique training runs (across the process pool
   when ``jobs > 1``), then evaluate the points. With ``jobs > 1`` and a
   store attached the *point evaluations themselves* fan out across the
   pool: each is a pure function of stored artifacts (the trained
   pipeline, the generated graph, the analytic platform models), workers
   persist their results straight into the store, and the parent collects
   in grid order — so ``--jobs N`` output is byte-identical to serial,
   just faster. A :class:`~repro.sweep.manifest.SweepManifest` opened at
   execute time records planned/done point keys; an interrupted sweep
   (worker :class:`GCoDTaskError`, SIGINT) resumes with ``repro sweep
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
from repro.runtime.keys import ArtifactKey
from repro.runtime.runner import (
    GCoDTask,
    GCoDTaskError,
    _execute_task_inline,
    _task_error,
    pool_context,
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
    keys = [p.key() for p in points]
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
            deps.setdefault(task.key().digest, task)
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
    """Evaluates points with per-sweep caches.

    Memoized for the evaluator's lifetime (one sweep, or one pool
    worker's share of it): baselines per (dataset, arch, seed), platform
    variants per (bits, hw_scale, tech_node), one :class:`_Pipeline` per
    trained pipeline, and aggregation event-sims per (pipeline, agg_dim,
    PE count).
    """

    def __init__(self, context):
        self.context = context
        self._pipelines: Dict[str, _Pipeline] = {}
        self._sims: Dict[Tuple[str, int, int], Any] = {}
        self._graphs: Dict[Tuple[str, int], object] = {}
        self._baselines: Dict[Tuple[str, str, int], Tuple] = {}
        self._platforms: Dict[Tuple[int, float, int], object] = {}

    def _graph(self, dataset: str, seed: int):
        """The dataset graph at an explicit seed (store-backed).

        The context memoizes graphs at *its own* seed; a ``seed`` sweep
        axis needs the same dataset regenerated per point seed — under
        the same :func:`~repro.runtime.keys.graph_key` the training
        tasks use, so the inline path and the warmed pool path train on
        identical (store-round-tripped) inputs.
        """
        if seed == self.context.seed:
            return self.context.graph(dataset)
        memo = (dataset, seed)
        if memo not in self._graphs:
            from repro.graphs import load_dataset
            from repro.runtime.keys import graph_key

            scale = self.context.scale_for(dataset)
            key = graph_key(dataset, scale, seed)
            store: Optional[ArtifactStore] = self.context.store
            graph = store.get(key) if store is not None else None
            if graph is None:
                graph = load_dataset(dataset, scale=scale, seed=seed)
                if store is not None:
                    store.put(key, graph)
            self._graphs[memo] = graph
        return self._graphs[memo]

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
            plats = self.context.platforms()
            wl_base = extract_workload(
                self._graph(dataset, seed), None, arch, paper_scale=True
            )
            self._baselines[key] = (
                plats["awb-gcn"].run(wl_base), plats["hygcn"].run(wl_base)
            )
        return self._baselines[key]

    def _gcod_platform(self, bits: int, hw_scale: float, tech_node: int):
        """The GCoD accelerator variant for (bits, hw_scale, tech_node)."""
        key = (bits, hw_scale, tech_node)
        if key not in self._platforms:
            from repro.hardware.accelerators import GCoDAccelerator
            from repro.hardware.accelerators.gcod import DEFAULT_PES

            num_pes = None
            if hw_scale != 1.0:
                num_pes = max(1, int(round(DEFAULT_PES[bits] * hw_scale)))
            self._platforms[key] = GCoDAccelerator(
                bits=bits, num_pes=num_pes, tech_node=tech_node
            )
        return self._platforms[key]

    def _pipeline(self, point: SweepPoint) -> _Pipeline:
        """Train-or-load the pipeline behind ``point`` (store-backed)."""
        from repro.algorithm import run_gcod
        from repro.hardware import extract_workload

        key = point.gcod_task().key()
        if key.digest in self._pipelines:
            return self._pipelines[key.digest]
        store: Optional[ArtifactStore] = self.context.store
        result = store.get(key) if store is not None else None
        if result is None:
            result = run_gcod(
                self._graph(point.dataset, point.seed), point.arch,
                point.config,
            )
            if store is not None:
                store.put(key, result, summary=result.to_summary_dict())
        layout, adj = result.layout, result.final_graph.adj
        pipeline = self._pipelines[key.digest] = _Pipeline(
            digest=key.digest,
            result=result,
            workload=extract_workload(
                result.final_graph, layout, point.arch, paper_scale=True
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

    def _evaluate_workload_point(self, point: SweepPoint) -> SweepPointResult:
        """Metrics for a workload-DAG point (shared-accelerator merge).

        Per-node extraction goes through the same store-backed
        :meth:`_pipeline` records the single-model grid uses (the primary
        node digests identically, so artifacts and memos are shared); the
        staged pipeline merges the node reports with PE time-slicing.
        Baselines run every distinct (dataset, arch) pair serially on the
        monolithic AWB-GCN/HyGCN platforms — the multi-tenant framing:
        one shared GCoD accelerator vs a baseline running the models back
        to back. Every reduction below is a float identity for a
        single-node DAG (``sum([x]) == x``), keeping byte parity with
        the legacy path.
        """
        import dataclasses

        from repro.hardware.pipeline import (
            PipelineSettings,
            evaluate_workload,
            parse_workload,
            slice_workload,
        )

        graph = parse_workload(point.workload)
        scales = dict(point.workload_scales)
        pipelines: Dict[Tuple[str, str], _Pipeline] = {}

        def pair_pipeline(dataset: str, arch: str) -> _Pipeline:
            pair = (dataset, arch)
            if pair not in pipelines:
                node_point = dataclasses.replace(
                    point, dataset=dataset, arch=arch,
                    scale=scales.get(dataset, point.scale),
                )
                pipelines[pair] = self._pipeline(node_point)
            return pipelines[pair]

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

    def evaluate(self, point: SweepPoint) -> SweepPointResult:
        """Compute one point's metrics (the expensive, counted path)."""
        counters.record_sweep_point_run()
        if point.workload is not None:
            return self._evaluate_workload_point(point)
        awb, hygcn = self._baseline_reports(
            point.dataset, point.arch, point.seed
        )
        pipeline = self._pipeline(point)
        result, wl = pipeline.result, pipeline.workload
        platform = self._gcod_platform(
            point.bits, point.hw_scale, point.tech_node
        )
        report = platform.run(wl)
        budget = platform.budget()
        sim = self._simulate_aggregation(pipeline, wl,
                                         platform.pes.num_pes)
        speedup = awb.latency_s / report.latency_s
        bw_red = 1.0 - report.required_bandwidth_gbps / max(
            hygcn.required_bandwidth_gbps, 1e-9
        )
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
            accuracy=float(result.accuracy_final),
            balance=float(wl.adjacency.class_balance),
            gcod_latency_s=float(report.latency_s),
            awb_latency_s=float(awb.latency_s),
            gcod_required_bw_gbps=float(report.required_bandwidth_gbps),
            hygcn_required_bw_gbps=float(hygcn.required_bandwidth_gbps),
            gcod_energy_j=float(report.energy.total_j),
            gcod_dram_bytes=float(report.offchip_bytes),
            area_mm2=float(budget.area_mm2),
            tdp_w=float(budget.tdp_w),
            comb_energy=report.combination.energy,
            agg_energy=report.aggregation.energy,
            agg_sim_cycles=float(sim.cycles) if sim is not None else 0.0,
            agg_dma_utilization=(
                float(sim.dma_utilization) if sim is not None else 0.0
            ),
        )


def _point_error(point: SweepPoint, exc: Exception) -> GCoDTaskError:
    """The one wrapping for point-evaluation failures (tests match on it)."""
    return GCoDTaskError(
        f"sweep point ({point.label()}) failed: "
        f"{type(exc).__name__}: {exc}"
    )


#: Per-process evaluator cache for pool workers, keyed by the context
#: signature. A worker evaluates many points of one sweep; rebuilding the
#: evaluator per point would re-unpickle the trained pipeline and redo
#: its workload extraction, layout tiles, event-sims and baselines every
#: time — the memoized evaluator derives each once per worker, so the
#: worker's marginal per-point cost equals the serial path's.
_WORKER_EVALUATORS: Dict[tuple, "_PointEvaluator"] = {}


def _worker_evaluator(root, profile, seed, backend, scales):
    from repro.evaluation.context import EvalContext

    signature = (root, profile, seed, backend, tuple(sorted(scales.items())))
    evaluator = _WORKER_EVALUATORS.get(signature)
    if evaluator is None:
        ctx = EvalContext(
            profile=profile, seed=seed, kernel_backend=backend,
            store=ArtifactStore(root),
        )
        ctx.dataset_scales = dict(scales)
        evaluator = _WORKER_EVALUATORS[signature] = _PointEvaluator(ctx)
    return evaluator


def _evaluate_point_worker(payload) -> Tuple[str, bool]:
    """Pool worker: evaluate one design point and persist it to the store.

    Points are pure functions of stored artifacts — the warmed pipeline,
    the generated graph, the deterministic platform models — so a worker
    computes exactly the result the serial path would. Returns the point
    label and whether it actually evaluated (a stored entry is skipped, so
    a resumed pooled sweep never re-runs a finished point).
    """
    root, profile, seed, backend, scales, point = payload
    from repro.sparse.kernels import set_default_backend

    try:
        # Resolved in the parent; pin it process-wide so a spawn-started
        # worker sees the same default-backend environment a fork child
        # inherits.
        set_default_backend(backend)
        evaluator = _worker_evaluator(root, profile, seed, backend, scales)
        store: ArtifactStore = evaluator.context.store
        key = point.key()
        if store.contains(key):
            return point.label(), False
        result = evaluator.evaluate(point)
        store.put(key, result, summary=result.to_summary_dict())
    except GCoDTaskError:
        raise
    except Exception as exc:
        raise _point_error(point, exc) from exc
    return point.label(), True


def _evaluate_points_pooled(
    plan: SweepPlan,
    context,
    pending: List[int],
    jobs: int,
    report: SweepRunReport,
    say,
) -> None:
    """Fan the pending point evaluations across a process pool."""
    store: ArtifactStore = context.store
    backend = context._backend_name()
    # Pre-warm the graphs every pending point's baselines need: otherwise
    # each worker sharing a dataset would race the store miss and
    # regenerate the same graph. Keyed per (dataset, seed) — a seed axis
    # means the same dataset exists at several generation seeds.
    prewarmer = _PointEvaluator(context)
    for dataset, seed in dict.fromkeys(
        (ds, plan.points[i].seed)
        for i in pending
        for ds in dict.fromkeys(
            [plan.points[i].dataset]
            + [d for d, _ in plan.points[i].workload_scales]
        )
    ):
        prewarmer._graph(dataset, seed)
    payloads = [
        (
            store.root,
            context.profile,
            context.seed,
            backend,
            dict(context.dataset_scales),
            plan.points[i],
        )
        for i in pending
    ]
    say(f"evaluating {len(pending)} point(s) with jobs={jobs}")
    processes = min(jobs, len(pending))
    # Contiguous chunks: grid order keeps platform-axis variants of one
    # trained pipeline adjacent, so chunking bounds how many stored
    # GCoDResults each worker must unpickle (the dominant per-worker
    # cost at real graph scales).
    chunksize = max(1, -(-len(payloads) // processes))
    with pool_context().Pool(processes=processes) as pool:
        for label, evaluated in pool.imap_unordered(
            _evaluate_point_worker, payloads, chunksize=chunksize
        ):
            if evaluated:
                report.points_evaluated += 1
                say(f"  evaluated ({label})")


def _warm_tasks_ledger(plan: SweepPlan, context, ledger: WorkLedger,
                       say) -> None:
    """Warm the unique training runs through shared-store claims.

    Each worker claims a task, trains it inline, and persists the result;
    peers sharing the store observe membership and skip. Exactly one
    worker trains each pipeline — the multi-host counterpart of the
    process-pool dedupe in :func:`~repro.runtime.runner.warm_tasks`.
    """
    if not plan.tasks:
        return
    store: ArtifactStore = context.store
    say(f"warming {len(plan.tasks)} GCoD run(s) through the shared "
        f"work ledger (worker {ledger.worker})")

    def is_done(task: GCoDTask) -> bool:
        return store.contains(task.key())

    def work(task: GCoDTask) -> None:
        try:
            _execute_task_inline(context, task)
        except GCoDTaskError:
            raise
        except Exception as exc:
            raise _task_error(task, exc) from exc
        say(f"  trained ({task.dataset}, {task.arch})")

    ledger.drain(
        {"gcod-" + task.key().digest: task for task in plan.tasks},
        is_done, work,
    )


def _evaluate_points_ledger(
    plan: SweepPlan,
    context,
    pending: List[int],
    ledger: WorkLedger,
    report: SweepRunReport,
    say,
) -> Dict[int, SweepPointResult]:
    """Evaluate the pending points cooperatively via shared-store claims.

    Every worker runs this same loop against the same store; the claim
    protocol partitions the grid among them at point granularity, stale
    claims of dead workers expire, and the loop only returns once *every*
    pending point has a stored result — so any worker can then run the
    final aggregation from store contents, byte-identical to a
    single-host serial sweep. Returns the results this worker computed
    (kept locally so a store whose writes degrade cannot stall the loop).
    """
    store: ArtifactStore = context.store
    evaluator = _PointEvaluator(context)
    local: Dict[int, SweepPointResult] = {}
    total = len(plan.points)

    def is_done(i: int) -> bool:
        return i in local or store.contains(plan.keys[i])

    def work(i: int) -> None:
        point = plan.points[i]
        try:
            result = evaluator.evaluate(point)
        except GCoDTaskError:
            raise
        except Exception as exc:
            raise _point_error(point, exc) from exc
        local[i] = result
        store.put(plan.keys[i], result, summary=result.to_summary_dict())
        report.points_evaluated += 1
        say(f"  [{i + 1}/{total}] {point.label()}: "
            f"{result.speedup_vs_awb:.2f}x vs AWB-GCN (claimed)")

    say(f"evaluating {len(pending)} point(s) through the shared work "
        f"ledger (worker {ledger.worker})")
    ledger.drain(
        {"point-" + plan.keys[i].digest: i for i in pending},
        is_done, work,
    )
    return local


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
    """Phase 2: warm training runs, evaluate every point in grid order.

    With ``ledger`` active (default whenever the context's store is a
    shared/served one) the missing points are claimed through the store's
    work ledger, so any number of workers on any number of hosts can run
    this same call concurrently: each point is evaluated exactly once
    among live workers, dead workers' claims expire, and every worker's
    final collection pass aggregates the full grid from store contents.
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
    if work_ledger is not None:
        report.worker = work_ledger.worker

    cached_set = set(plan.cached)
    pending = [i for i in range(len(plan.points)) if i not in cached_set]
    pool_points = (jobs > 1 and store is not None and len(pending) > 1
                   and work_ledger is None)

    manifest: Optional[SweepManifest] = None
    if store is not None:
        # The ledger resume reads: written before any evaluation, so even
        # a sweep killed at point 1 of N leaves its plan behind.
        manifest = begin_manifest(
            store, context, plan.spec, plan.points, plan.keys
        )

    if work_ledger is not None:
        # Multi-worker mode: training dedupes through claims, not the
        # process pool (each worker stays serial; parallelism is the
        # worker fleet itself).
        if jobs > 1:
            say(f"shared work ledger active: jobs={jobs} applies per "
                "worker fleet, training through claims")
        _warm_tasks_ledger(plan, context, work_ledger, say)
    elif jobs > 1 and store is not None:
        # warm_tasks is task-faithful on every path; pooling it here is
        # purely a parallelism win. It must cover *all* tasks before a
        # pooled evaluation starts, or workers sharing a pipeline would
        # race to train it.
        warm_tasks(plan.tasks, context, jobs=jobs, progress=progress)
    elif plan.tasks:
        say(f"{len(plan.tasks)} GCoD run(s) will train inline")

    ledger_results: Dict[int, SweepPointResult] = {}
    try:
        if pool_points:
            _evaluate_points_pooled(plan, context, pending, jobs, report, say)
        if work_ledger is not None and pending:
            ledger_results = _evaluate_points_ledger(
                plan, context, pending, work_ledger, report, say
            )

        evaluator = _PointEvaluator(context)
        fetch_all = pool_points or work_ledger is not None
        for i, point in enumerate(plan.points):
            result = ledger_results.get(i)
            if result is None and store is not None and \
                    (i in cached_set or fetch_all):
                result = store.get(plan.keys[i])
                if result is not None and i in cached_set:
                    report.cache_hits.append(i)
                    counters.record_sweep_point_skip()
                # a corrupted/missing entry degrades to a recompute below
            if result is None:
                try:
                    result = evaluator.evaluate(point)
                except GCoDTaskError:
                    raise
                except Exception as exc:
                    raise _point_error(point, exc) from exc
                report.points_evaluated += 1
                if store is not None:
                    store.put(plan.keys[i], result,
                              summary=result.to_summary_dict())
                say(f"  [{i + 1}/{len(plan.points)}] {point.label()}: "
                    f"{result.speedup_vs_awb:.2f}x vs AWB-GCN")
            if manifest is not None and plan.keys[i].digest not in \
                    manifest.done:
                manifest.done.append(plan.keys[i].digest)
            report.results.append(result)
    finally:
        if manifest is not None:
            # Recompute from store membership: workers may have completed
            # points this process never collected before an interruption.
            manifest.refresh(store)
            write_manifest(store, context, plan.spec, manifest)

    if work_ledger is not None:
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
