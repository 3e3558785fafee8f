"""Plan/execute experiment runner with process-pool GCoD warming.

The runner splits a report into two phases:

1. **Plan** — resolve the requested experiment specs, check which already
   have a rendered result in the artifact store, and collect the *union* of
   the remaining experiments' declared ``(dataset, arch)`` GCoD
   dependencies. The union is de-duplicated (Fig. 9, Fig. 11, Tab. VI and
   friends all want ``(cora, gcn)``; it is trained once) and filtered
   against the store, leaving only the runs that truly must execute.
2. **Execute** — run the unique GCoD tasks, either inline or across a
   process pool (``jobs > 1``), each worker writing its result straight
   into the shared on-disk store; then render every experiment in report
   order in the parent, where each ``context.gcod(...)`` call now hits the
   warmed store. Rendered results are themselves persisted, so the next
   invocation skips straight to phase 2's final step.

Determinism: every task carries its full config (seed included) and a
*resolved* kernel-backend name, and workers run exactly the same
:func:`train_or_load` the serial path runs — so ``--jobs 8`` produces
byte-identical reports (markdown/JSON/CSV) to ``--jobs 1``, just faster.
The stored artifacts are semantically identical too (every field compares
equal); only their pickle framing may differ, because workers train on a
store-round-tripped graph object while the serial path trains on the
freshly generated one.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.runtime.keys import ArtifactKey, gcod_key, graph_key
from repro.runtime.registry import (
    ExperimentSpec,
    resolve_experiments,
)
from repro.runtime.store import ArtifactStore, get_or_compute
from repro.runtime import counters


class GCoDTaskError(ReproError, RuntimeError):
    """A GCoD training task failed (in a pool worker or inline).

    Carries one human-readable message naming the ``(dataset, arch)`` task,
    so the parent process of a ``--jobs N`` run reports *which* run died
    rather than surfacing a bare worker traceback. Single-argument by
    construction: multiprocessing pickles the exception across the pool
    boundary, and single-message exceptions round-trip reliably.
    """


@dataclass(frozen=True)
class GCoDTask:
    """One self-contained GCoD training run (picklable, deterministic)."""

    dataset: str
    arch: str
    scale: Optional[float]
    seed: int
    profile: str
    #: resolved backend *name* (never None), so worker processes — whose
    #: process-wide default backend is freshly initialised — run the same
    #: kernels the parent would.
    kernel_backend: str
    config: object  # GCoDConfig; typed loosely to keep imports light

    def key(self) -> ArtifactKey:
        return self._key

    @cached_property
    def _key(self) -> ArtifactKey:
        # Hashed once per task: the fields are frozen, so the key is too.
        return gcod_key(
            self.dataset,
            self.scale,
            self.arch,
            self.config,
            self.kernel_backend,
            self.seed,
            self.profile,
        )


@dataclass
class ExperimentPlan:
    """What a report invocation is about to do."""

    specs: List[ExperimentSpec]
    #: experiment name -> store key, for every requested experiment.
    experiment_keys: Dict[str, ArtifactKey]
    #: names whose rendered result is already stored.
    cached: List[str]
    #: unique GCoD tasks that must actually execute.
    tasks: List[GCoDTask]
    #: unique (dataset, arch) dependency count before store filtering.
    deps_total: int = 0

    def describe(self) -> str:
        return (
            f"{len(self.specs)} experiments ({len(self.cached)} cached), "
            f"{self.deps_total} unique GCoD deps "
            f"({len(self.tasks)} to run)"
        )


@dataclass
class RunReport:
    """Everything ``execute_plan`` did, with timings for benchmarking."""

    results: "OrderedDict[str, object]" = field(default_factory=OrderedDict)
    timings: Dict[str, float] = field(default_factory=dict)
    cache_hits: List[str] = field(default_factory=list)
    deps_total: int = 0
    tasks_executed: int = 0
    gcod_runs: int = 0
    wall_s: float = 0.0


def build_task(context, dataset: str, arch: str) -> GCoDTask:
    """The task ``context.gcod(dataset, arch)`` would execute, as data.

    The backend name is resolved (same numerics), so the stored artifact
    is byte-identical whether the context or a pool worker — which must
    resolve eagerly — produced it.
    """
    from repro.sparse.kernels import get_backend

    backend = get_backend(context.kernel_backend).name
    config = replace(context.gcod_config_for(arch), kernel_backend=backend)
    return GCoDTask(
        dataset=dataset,
        arch=arch,
        scale=context.scale_for(dataset),
        seed=context.seed,
        profile=context.profile,
        kernel_backend=backend,
        config=config,
    )


def plan_experiments(
    context,
    names: Optional[Sequence[str]] = None,
    extra_deps: Sequence[Tuple[str, str]] = (),
) -> ExperimentPlan:
    """Phase 1: resolve specs, find cached results, dedupe GCoD deps."""
    specs = resolve_experiments(names)
    store: Optional[ArtifactStore] = context.store
    experiment_keys = {
        spec.name: context.experiment_store_key(spec.name) for spec in specs
    }
    cached = [
        spec.name
        for spec in specs
        if store is not None and store.contains(experiment_keys[spec.name])
    ]

    deps: "OrderedDict[Tuple[str, str], None]" = OrderedDict()
    for dataset, arch in extra_deps:
        deps[(dataset, arch)] = None
    for spec in specs:
        if spec.name in cached:
            continue  # its result is already rendered; no training needed
        for dep in spec.deps(context):
            deps[dep] = None

    tasks = [
        context.gcod_task(dataset, arch)
        for dataset, arch in sorted(deps)
        if not context.has_gcod(dataset, arch)  # not in memory or on disk
    ]
    return ExperimentPlan(
        specs=specs,
        experiment_keys=experiment_keys,
        cached=cached,
        tasks=tasks,
        deps_total=len(deps),
    )


def pool_context() -> mp.context.BaseContext:
    """The multiprocessing context every runtime pool uses.

    fork is cheap (no re-import) but only safe on Linux; macOS system
    frameworks and BLAS are fork-unsafe (why CPython's macOS default moved
    to spawn). Shared by the GCoD warming pool and the sweep engine's
    point-evaluation pool so the two can never drift in start-method
    semantics.
    """
    use_fork = (sys.platform.startswith("linux")
                and "fork" in mp.get_all_start_methods())
    return mp.get_context("fork" if use_fork else "spawn")


def dataset_graph(store: Optional[ArtifactStore], dataset: str,
                  scale: Optional[float], seed: int):
    """The generated graph for (dataset, scale, seed): the one graph
    producer, store-backed under :func:`~repro.runtime.keys.graph_key`."""
    from repro.graphs import load_dataset

    return get_or_compute(
        store, graph_key(dataset, scale, seed),
        lambda: load_dataset(dataset, scale=scale, seed=seed),
    )


def train_or_load(task: GCoDTask, store: Optional[ArtifactStore],
                  graphs: Optional[Callable] = None):
    """The trained pipeline of ``task``: the one ``GCoDTask -> GCoDResult``
    producer, store-backed under ``task.key()``.

    The graph is lazy: only a miss calls ``graphs(dataset, scale, seed)``
    (default: the bare :func:`dataset_graph`), so a store hit loads no
    graph at all. Callers with a memo pass its lookup instead.
    """
    from repro.algorithm import run_gcod

    def train():
        produce = graphs or partial(dataset_graph, store)
        graph = produce(task.dataset, task.scale, task.seed)
        return run_gcod(graph, task.arch, task.config)

    return get_or_compute(store, task.key(), train,
                          summary=lambda result: result.to_summary_dict())


def _execute_task(payload: Tuple[str, GCoDTask]) -> Tuple[str, str]:
    """Pool worker: train-or-load one GCoD task into the store.

    Failures are re-raised as :class:`GCoDTaskError` naming the task. The
    store's atomic writes guarantee a dying worker leaves no partial entry
    under a valid key — a rerun replans against whatever the surviving
    workers completed.
    """
    root, task = payload
    from repro.sparse.kernels import set_default_backend

    try:
        set_default_backend(task.kernel_backend)
        train_or_load(task, ArtifactStore(root))
    except Exception as exc:
        raise _task_error(task, exc) from exc
    return (task.dataset, task.arch)


def _task_error(task: GCoDTask, exc: Exception) -> GCoDTaskError:
    """The one wrapping used by every execution path (tests match on it)."""
    return GCoDTaskError(
        f"GCoD task ({task.dataset}, {task.arch}) failed: "
        f"{type(exc).__name__}: {exc}"
    )


def warm_tasks(
    tasks: Sequence[GCoDTask],
    context,
    jobs: int = 1,
    progress=None,
) -> int:
    """Train ``tasks`` into the context's store, possibly across a pool.

    The shared warming phase of ``repro report`` and ``repro sweep``:
    serially each task trains in-process (through ``context.gcod`` when
    the task matches the context's own config — populating the in-memory
    memo — or directly from ``task.config`` otherwise, so custom-config
    tasks are honored on every path); with ``jobs > 1`` and a store
    attached, workers run :func:`_execute_task` and hand results back
    *through* the store. Returns the effective pool width used (1 when
    serial).
    """
    store: Optional[ArtifactStore] = context.store
    say = progress or (lambda msg: None)
    if not tasks:
        return 1
    if jobs > 1 and store is None:
        # Workers hand results back through the shared store; without one
        # there is nothing to pool over.
        say(f"no artifact store attached: ignoring jobs={jobs}, "
            "training serially")
        jobs = 1
    say(f"warming {len(tasks)} GCoD run(s) with jobs={jobs}")
    if jobs > 1 and store is not None and len(tasks) > 1:
        # Pre-warm each unique graph from the parent (rendering needs them
        # anyway): otherwise every worker sharing a dataset would race the
        # store miss and regenerate the same graph.
        for dataset in dict.fromkeys(t.dataset for t in tasks):
            context.graph(dataset)
        ctx_mp = pool_context()
        # store.root is a *locator* (a directory path or a served-store
        # http(s) URL); ArtifactStore(locator) in the worker reconnects to
        # the same store either way.
        payloads = [(store.root, task) for task in tasks]
        with ctx_mp.Pool(processes=min(jobs, len(tasks))) as pool:
            for dataset, arch in pool.imap_unordered(_execute_task, payloads):
                say(f"  trained ({dataset}, {arch})")
        # The results live in the store now; nothing to pull into memory —
        # rendering loads exactly what it needs.
        return min(jobs, len(tasks))
    for task in tasks:
        context_key = context.gcod_store_key(task.dataset, task.arch)
        if task.key().digest == context_key.digest:
            # The context's own run: train through the memo so store-less
            # rendering reuses it without a second training.
            context.gcod(task.dataset, task.arch)
        else:
            # Custom-config task (a sweep point): train exactly what the
            # task says, never the context's re-derived config, and keep
            # it out of memory.
            try:
                train_or_load(task, store, context.graph_at)
            except Exception as exc:
                raise _task_error(task, exc) from exc
        say(f"  trained ({task.dataset}, {task.arch})")
    return 1


def execute_plan(
    plan: ExperimentPlan,
    context,
    jobs: int = 1,
    progress=None,
) -> RunReport:
    """Phase 2: warm the store (possibly in parallel), render, persist."""
    t0 = time.perf_counter()
    runs_before = counters.gcod_run_count()
    report = RunReport(deps_total=plan.deps_total,
                       tasks_executed=len(plan.tasks))
    store: Optional[ArtifactStore] = context.store
    say = progress or (lambda msg: None)

    warm_tasks(plan.tasks, context, jobs=jobs, progress=progress)

    for spec in plan.specs:
        t_exp = time.perf_counter()
        rendered = []

        def render(spec=spec):
            rendered.append(spec.name)
            return spec.runner(context)

        result = get_or_compute(store, plan.experiment_keys[spec.name],
                                render, summary=lambda r: {"name": r.name})
        if not rendered:  # read back from the store
            report.cache_hits.append(spec.name)
        report.results[spec.name] = result
        report.timings[spec.name] = time.perf_counter() - t_exp
        say(f"  {spec.name}: {report.timings[spec.name]:.2f}s"
            + (" (cached)" if spec.name in report.cache_hits else ""))

    report.gcod_runs = counters.gcod_run_count() - runs_before
    report.wall_s = time.perf_counter() - t0
    return report


def run_experiments(
    context,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    extra_deps: Sequence[Tuple[str, str]] = (),
    progress=None,
) -> RunReport:
    """Plan then execute in one call; the ``repro report`` entry point."""
    plan = plan_experiments(context, names=names, extra_deps=extra_deps)
    if progress:
        progress(plan.describe())
    return execute_plan(plan, context, jobs=jobs, progress=progress)
