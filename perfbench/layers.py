"""Which entry points of which layer the traced run wraps, and the rollup.

Span names are ``<layer>.<part>``; the per-layer metrics are named after
them (``nn.train_s`` is the self time of the ``nn.train`` spans). The
*training* layers are the ones a cold report pays for and a design-space
sweep over warm pipelines must not; the *model* layers are the reverse.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Dict, List, Optional, Sequence

from perfbench.common import median
from perfbench.tracing import Span, Tracer, covered_by_roots, rollup

#: Span names whose self time is training work.
TRAINING_SPANS = ("graphs.load", "partition.partition", "nn.train",
                  "kernels.spmm", "algorithm.admm", "algorithm.structural",
                  "algorithm.pipeline")
#: Span-name prefixes whose self time is accelerator-model/sweep work.
MODEL_PREFIXES = ("hardware.", "sweep.", "keys.")

#: The experiments the report-cold workload renders (fixed metric names).
REPORT_EXPERIMENTS = ("tab06", "multi-tenant")

_KERNEL_METHODS = ("spmm_row_product", "spmm_column_product", "spmm_batch",
                   "coo_spmm", "segment_sum", "segment_max")


def _nnz(a) -> int:
    """Stored entries of a sparse operand (scipy or this package's)."""
    return int(getattr(a, "nnz", None) or len(a.data))


def _kernel_nnz(method: str, args: tuple) -> int:
    """Entries a kernel call streams; ``args[0]`` is the backend."""
    if method == "spmm_batch":
        return sum(_nnz(a) for a in args[1])
    if method == "coo_spmm":
        return len(args[1])  # one weight per edge
    if method in ("segment_sum", "segment_max"):
        return len(args[2])  # one segment id per value row
    return _nnz(args[1])


def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every layer's entry points; ``serve`` adds the service's."""
    mod = importlib.import_module
    # Import everything first so wrap_function finds every rebinding.
    for name in ("repro.evaluation.report", "repro.sweep", "repro.serve",
                 "repro.evaluation.experiments", "repro.hardware.pipeline",
                 "repro.sparse.kernels.reference", "repro.sparse.kernels.tiled"):
        mod(name)

    count = tracer.count
    fn = tracer.wrap_function
    meth = tracer.wrap_method

    # graphs
    fn(mod("repro.graphs.datasets"), "load_dataset", "graphs.load",
       lambda a, k, r: count("graphs.loads"))

    # partition
    layout_mod = mod("repro.partition.layout")
    fn(layout_mod, "partition_graph", "partition.partition")
    for attr in ("split", "dense_fraction", "class_block_workloads",
                 "subgraph_workloads", "balance_within_classes",
                 "diagonal_mask"):
        meth(layout_mod.BlockLayout, attr, "partition.layout",
             lambda a, k, r: count("partition.layout_calls"))

    # nn
    fn(mod("repro.nn.training"), "train_model", "nn.train",
       lambda a, k, r: count("nn.epochs", r.epochs_run))

    # sparse.kernels
    for cls in (mod("repro.sparse.kernels.reference").ReferenceBackend,
                mod("repro.sparse.kernels.vectorized").VectorizedBackend,
                mod("repro.sparse.kernels.tiled").TiledBackend):
        for attr in _KERNEL_METHODS:
            def hook(a, k, r, attr=attr):
                count("kernels.spmm_calls")
                count("kernels.spmm_nnz", _kernel_nnz(attr, a))
            meth(cls, attr, "kernels.spmm", hook)

    # algorithm
    fn(mod("repro.algorithm.admm"), "admm_sparsify_polarize",
       "algorithm.admm")
    fn(mod("repro.algorithm.structural"), "structural_sparsify",
       "algorithm.structural")

    def pipeline_hook(a, k, r):
        count("algorithm.pipelines")
        count("algorithm.edges_kept", 1.0 - r.total_edge_reduction)
    meth(mod("repro.algorithm.pipeline").GCoDTrainer, "run",
         "algorithm.pipeline", pipeline_hook)

    # hardware
    seen_inputs = set()

    def extract_hook(a, k, r):
        graph = a[0] if a else k.get("graph")
        layout = a[1] if len(a) > 1 else k.get("layout")
        rest = tuple(a[2:]) + tuple(sorted(k.items()))
        key = (id(graph), id(layout), repr(rest))
        count("hardware.extract_calls")
        if key not in seen_inputs:
            seen_inputs.add(key)
            count("hardware.extract_distinct")
    fn(mod("repro.hardware.workload"), "extract_workload",
       "hardware.extract", extract_hook)
    accel = mod("repro.hardware.accelerators")
    for cls in (accel.GCoDAccelerator, accel.AWBGCN, accel.HyGCN,
                accel.SoftwarePlatform, accel.DeepburningGL):
        meth(cls, "run", "hardware.analytic",
             lambda a, k, r: count("hardware.analytic_calls"))
    event_sim = mod("repro.hardware.event_sim")
    fn(event_sim, "simulate_aggregation", "hardware.event_sim")
    meth(event_sim.EventDrivenAggregator, "run", "hardware.event_sim",
         lambda a, k, r: count("hardware.event_sim_tiles", len(a[1])))
    functional = mod("repro.hardware.functional")
    fn(functional, "execute_layer", "hardware.functional")
    fn(functional, "execute_gcn", "hardware.functional")
    fn(mod("repro.hardware.pipeline"), "evaluate_workload",
       "hardware.pipeline")

    # runtime: store and keys
    store_mod = mod("repro.runtime.store")

    def get_hook(a, k, r):
        count("store.gets")
        if r is not None:
            count("store.hits")
    meth(store_mod.ArtifactStore, "get", "store.get", get_hook)
    meth(store_mod.ArtifactStore, "contains", "store.get",
         lambda a, k, r: count("store.contains"))
    meth(store_mod.ArtifactStore, "put", "store.put",
         lambda a, k, r: count("store.puts"))
    backends = mod("repro.runtime.backends")
    meth(backends.LocalDirBackend, "read", None,
         lambda a, k, r: count("store.read_bytes", len(r or b"")))
    meth(backends.LocalDirBackend, "write", None,
         lambda a, k, r: count("store.write_bytes", len(a[3])))
    fn(mod("repro.runtime.keys"), "stable_hash", "keys.hash",
       lambda a, k, r: count("keys.hashes"))
    runner = mod("repro.runtime.runner")
    fn(runner, "plan_experiments", "runner.plan")
    fn(runner, "execute_plan", "runner.execute")

    # evaluation: each experiment's runner, as the registry hands it out
    registry = mod("repro.runtime.registry")

    def resolve_experiments(names=None, _resolve=registry.resolve_experiments):
        return [dataclasses.replace(spec, runner=tracer.wrapper(
                    spec.runner, f"evaluation.{spec.name}"))
                for spec in _resolve(names)]
    tracer.rebind(registry, "resolve_experiments", resolve_experiments)

    # sweep
    engine = mod("repro.sweep.engine")
    fn(engine, "plan_sweep", "sweep.plan")
    fn(engine, "execute_sweep", "sweep.execute")
    meth(engine._PointEvaluator, "evaluate", "sweep.evaluate")
    aggregate = mod("repro.sweep.aggregate")
    fn(aggregate, "pareto_frontier", "sweep.pareto")
    fn(aggregate, "sweep_report_text", "sweep.aggregate")

    if serve:
        _install_serve(tracer)
    tracer.enabled = True


def _install_serve(tracer: Tracer) -> None:
    """Service-side spans: lookups, summaries, trainings, executor waits."""
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.algorithm.pipeline import GCoDResult
    from repro.evaluation.context import EvalContext
    from repro.serve.service import InferenceService

    class TimedExecutor(ThreadPoolExecutor):
        """Records how long each submitted call waited for a worker."""

        def submit(self, fn, *args, **kwargs):
            queued = time.perf_counter()

            def timed(*a, **kw):
                tracer.sample(f"serve.queue_wait.{fn.__name__}",
                              time.perf_counter() - queued)
                return fn(*a, **kw)
            return super().submit(timed, *args, **kwargs)

    original_init = InferenceService.__init__

    def init(self, ctx, settings):
        original_init(self, ctx, settings)
        self._executor.shutdown(wait=False)  # never started a thread
        self._executor = TimedExecutor(
            max_workers=max(1, settings.workers),
            thread_name_prefix="repro-serve")
    tracer.patch(InferenceService, "__init__", init)

    tracer.wrap_method(EvalContext, "has_gcod", "serve.lookup")
    tracer.wrap_method(EvalContext, "gcod", "serve.lookup")
    tracer.wrap_method(GCoDResult, "to_summary_dict", "serve.summary")
    tracer.wrap_method(InferenceService, "_warm_summary", "serve.warm")
    tracer.wrap_method(InferenceService, "_train_summary", "serve.train")


#: Client-side serve metrics (counted by the load generator and read from
#: the service's ``stats`` op); zero on workloads that start no service.
SERVE_CLIENT_METRICS = ("serve.sent", "serve.ok", "serve.failed",
                        "serve.warm_hits", "serve.cold_misses",
                        "serve.batches", "serve.trainings_per_burst",
                        "serve.gen_late_ms", "serve.knee_qps",
                        "serve.warm_p50_during_train_ms")


def attribution(spans: Sequence[Span], counts: Dict[str, float],
                lo: float, hi: float,
                samples: Optional[Dict[str, List[float]]] = None
                ) -> Dict[str, float]:
    """The per-layer metrics of one traced window ``[lo, hi]``."""
    table = rollup(spans)

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def c(name: str) -> float:
        return float(counts.get(name, 0.0))

    total_self = sum(row["self_s"] for row in table.values())
    training = sum(self_s(n) for n in TRAINING_SPANS)
    model = sum(row["self_s"] for n, row in table.items()
                if n.startswith(MODEL_PREFIXES))
    gets = c("store.gets")
    extracts = c("hardware.extract_calls")
    pipelines = c("algorithm.pipelines")
    out = {
        "graphs.load_s": self_s("graphs.load"),
        "graphs.loads": c("graphs.loads"),
        "partition.partition_s": self_s("partition.partition"),
        "partition.layout_s": self_s("partition.layout"),
        "partition.layout_calls": c("partition.layout_calls"),
        "nn.train_s": self_s("nn.train"),
        "nn.epochs": c("nn.epochs"),
        "kernels.spmm_s": self_s("kernels.spmm"),
        "kernels.spmm_calls": c("kernels.spmm_calls"),
        "kernels.spmm_nnz": c("kernels.spmm_nnz"),
        "algorithm.admm_s": self_s("algorithm.admm"),
        "algorithm.structural_s": self_s("algorithm.structural"),
        "algorithm.pipeline_s": self_s("algorithm.pipeline"),
        "algorithm.pipelines": pipelines,
        "algorithm.edges_kept_pct": (
            100.0 * c("algorithm.edges_kept") / pipelines if pipelines
            else 0.0),
        "hardware.extract_s": self_s("hardware.extract"),
        "hardware.extract_calls": extracts,
        "hardware.extract_distinct_ratio": (
            c("hardware.extract_distinct") / extracts if extracts else 0.0),
        "hardware.analytic_s": self_s("hardware.analytic"),
        "hardware.analytic_calls": c("hardware.analytic_calls"),
        "hardware.event_sim_s": self_s("hardware.event_sim"),
        "hardware.event_sim_tiles": c("hardware.event_sim_tiles"),
        "hardware.functional_s": self_s("hardware.functional"),
        "hardware.pipeline_s": self_s("hardware.pipeline"),
        "store.get_s": self_s("store.get"),
        "store.gets": gets,
        "store.hit_ratio": c("store.hits") / gets if gets else 0.0,
        "store.read_mb": c("store.read_bytes") / 2**20,
        "store.put_s": self_s("store.put"),
        "store.puts": c("store.puts"),
        "store.write_mb": c("store.write_bytes") / 2**20,
        "keys.hash_s": self_s("keys.hash"),
        "keys.hashes": c("keys.hashes"),
        "sweep.plan_s": self_s("sweep.plan"),
        "sweep.evaluate_s": self_s("sweep.evaluate"),
        "sweep.pareto_s": self_s("sweep.pareto"),
        "sweep.aggregate_s": self_s("sweep.aggregate"),
        # The sweep's own counts (SweepRunReport); set by dse-grid.
        "sweep.points_evaluated": 0.0,
        "sweep.cache_hits": 0.0,
        "runner.execute_s": self_s("runner.execute") + self_s("runner.plan"),
        "trace.spans": float(len(spans)),
        "trace.unattributed_s": max(
            (hi - lo) - covered_by_roots(spans, lo, hi), 0.0),
        "trace.training_self_pct": (
            100.0 * training / total_self if total_self else 0.0),
        "trace.model_self_pct": (
            100.0 * model / total_self if total_self else 0.0),
    }
    for name in REPORT_EXPERIMENTS:
        out[f"evaluation.{name}_s"] = self_s(f"evaluation.{name}")
    waits = samples or {}
    out.update({
        # The lookup's own time; a cold lookup's training is its child.
        "serve.lookup_s": self_s("serve.lookup"),
        # The whole summary, including the layout work it triggers.
        "serve.summary_s": table.get("serve.summary", {}).get("total_s", 0.0),
        "serve.queue_wait_ms": 1e3 * median(
            waits.get("serve.queue_wait._warm_summary") or [0.0]),
        "serve.train_queue_wait_ms": 1e3 * median(
            waits.get("serve.queue_wait._train_summary") or [0.0]),
    })
    out.update(dict.fromkeys(SERVE_CLIENT_METRICS, 0.0))
    return out


def layer_table(spans: Sequence[Span]) -> List[str]:
    """Printable attribution lines, largest self time first."""
    table = rollup(spans)
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = []
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<24} self {row['self_s']:9.4f}s "
                     f"({100 * row['self_s'] / total:5.1f}%)  "
                     f"total {row['total_s']:9.4f}s  calls {int(row['calls'])}")
    return lines
