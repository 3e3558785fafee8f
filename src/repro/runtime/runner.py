"""Plan/execute experiment runner, and the one executor loop.

The runner splits a report into two phases:

1. **Plan** — resolve the requested experiment specs, check which already
   have a rendered result in the artifact store, and collect the *union* of
   the remaining experiments' declared ``(dataset, arch)`` GCoD
   dependencies. The union is de-duplicated (Fig. 9, Fig. 11, Tab. VI and
   friends all want ``(cora, gcn)``; it is trained once) and filtered
   against the store, leaving only the runs that truly must execute.
2. **Execute** — warm the store with the unique GCoD tasks, then render
   every experiment in report order, where each ``context.gcod(...)``
   call now hits the memo or the warmed store. Rendered results are
   themselves persisted, so the next invocation skips straight to phase
   2's final step.

Every unit of work — a training run here, a design point in
:mod:`repro.sweep.engine` — goes through one loop, :func:`drain`, with
one work function per phase. The loop runs in this process, in each
child of :func:`drain_pool` (``--jobs N``: contiguous chunks, results
handed back through the store), or under the claims of a shared store's
work ledger (:mod:`repro.sweep.ledger`), which lets many processes on
many hosts split the items exactly once.

Determinism: every task carries its full config (seed included) and a
*resolved* kernel-backend name, and pool children run the same work
function the serial path runs — so ``--jobs 8`` produces byte-identical
reports (markdown/JSON/CSV) to ``--jobs 1``, just faster. The stored
artifacts are semantically identical too (every field compares equal);
only their pickle framing may differ, because children train on a
store-round-tripped graph object while the serial path trains on the
freshly generated one.
"""

from __future__ import annotations

import importlib
import multiprocessing as mp
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.runtime.keys import ArtifactKey, gcod_key, graph_key
from repro.runtime.registry import (
    ExperimentSpec,
    resolve_experiments,
)
from repro.runtime.store import ArtifactStore, get_or_compute
from repro.runtime import counters
from repro.utils.sysinfo import effective_cpu_count


class GCoDTaskError(ReproError, RuntimeError):
    """A training task failed in a pool child, or a sweep point failed.

    Carries one human-readable message naming the task or point (see
    :func:`failure`), so the parent process of a ``--jobs N`` run reports
    *which* run died rather than surfacing a bare worker traceback.
    In-process training failures propagate unwrapped. Single-argument by
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

    def key(self, walked_config: Any = None) -> ArtifactKey:
        """The task's store key, hashed once per task: the fields are
        frozen, so the key is too. ``walked_config`` is
        :func:`~repro.runtime.keys.walk_config` of ``self.config``, when
        the caller already has it."""
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = gcod_key(
                self.dataset,
                self.scale,
                self.arch,
                self.config,
                self.kernel_backend,
                self.seed,
                self.profile,
                walked_config=walked_config,
            )
        return key

    def __str__(self) -> str:
        return f"GCoD task ({self.dataset}, {self.arch})"


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
    from repro.sparse.kernels import backend_name

    backend = backend_name(context.kernel_backend)
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
    to spawn). :func:`drain_pool` and the multi-process tests and
    benchmarks all start their processes from it.
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


def failure(what, exc: Exception) -> GCoDTaskError:
    """The one failure wrapping (tests match on it):
    ``<what> failed: <type>: <message>``."""
    return GCoDTaskError(f"{what} failed: {type(exc).__name__}: {exc}")


def _never_done(item) -> bool:
    """``is_done`` of items this process owns outright: the planner has
    already filtered out everything stored."""
    return False


def drain(
    items: Dict[str, object],
    is_done: Callable[[object], bool],
    work: Callable[[object], object],
    claims=None,
) -> int:
    """The one executor loop: run every item to completion.

    ``items`` maps claim names to work items, in priority order. Each pass
    over the pending set drops finished items (``is_done``) and works the
    rest. With ``claims=None`` every item belongs to this process: the
    serial path and a pool child's chunk. With a claim source (a
    :class:`~repro.sweep.ledger.WorkLedger`) the process cooperates with
    peers through a shared store: it works only the items it wins a claim
    on, and when a pass makes no progress — every pending item is claimed
    by a live peer — it waits and re-scans; peers' completions (or their
    claims going stale) unblock it. Returns the number of items this
    process worked.

    ``work`` failures release the claim (a peer can retry) and propagate.
    """
    pending = dict(items)
    worked = 0
    while pending:
        progress = False
        for name, item in list(pending.items()):
            if is_done(item):
                del pending[name]
                progress = True
                continue
            if claims is not None and not claims.try_claim(name):
                continue
            try:
                # Re-check under the claim: the previous owner may have
                # finished right before its claim was released or expired.
                if claims is None or not is_done(item):
                    work(item)
                    worked += 1
            finally:
                if claims is not None:
                    claims.release(name)
            del pending[name]
            progress = True
        if pending and not progress:
            claims.wait()
    return worked


#: What a pool child's work function reaches: the training stack, every
#: model, and the accelerator models a sweep point is costed on. The
#: package roots import these lazily, so :func:`drain_pool` imports them
#: in the parent first; forked children then share them instead of each
#: importing numpy, scipy and the models again.
POOL_PRELOAD = (
    "repro.algorithm.pipeline",
    "repro.nn.models.gat",
    "repro.nn.models.gcn",
    "repro.nn.models.gin",
    "repro.nn.models.resgcn",
    "repro.nn.models.sage",
    "repro.hardware.accelerators",
    "repro.hardware.event_sim",
    "repro.hardware.pipeline",
)


def pool_width(jobs: int) -> int:
    """How many pool children ``jobs`` gets: no more than the CPUs this
    process may use, since a child beyond them only adds a fork and its
    share of pipeline loads."""
    return max(1, min(jobs, effective_cpu_count()))


def drain_pool(items: Dict[str, object], context, jobs: int,
               worker: Callable, graphs) -> int:
    """:func:`drain` ``items`` across :func:`pool_width` ``(jobs)`` pool
    children; returns the number of items they worked.

    ``worker(context)`` builds the work function the serial path runs.
    The parent first loads every ``(dataset, seed)`` graph of ``graphs``
    once, or children sharing a dataset would race the store miss and
    regenerate it. The items split into contiguous chunks: grid order
    keeps the platform variants of one trained pipeline adjacent, which
    bounds how many stored pipelines each child must unpickle. Each child
    rebuilds the context once from the store locator (a directory or a
    served store's URL) and hands its results back through the store.
    Every child runs to the end before the first failure is raised, so a
    failing item never tears down a healthy child mid-write. The modules
    of :data:`POOL_PRELOAD` are imported before the fork.
    """
    for module in POOL_PRELOAD:
        importlib.import_module(module)
    for dataset, seed in dict.fromkeys(graphs):
        context.graph_at(dataset, context.scale_for(dataset), seed)
    pairs = list(items.items())
    size = -(-len(pairs) // pool_width(jobs))
    chunks = [dict(pairs[k:k + size]) for k in range(0, len(pairs), size)]
    rebuild = (type(context), context.store.root, context.profile,
               context.seed, context._backend_name(),
               dict(context.dataset_scales))
    with pool_context().Pool(processes=len(chunks)) as pool:
        counts = pool.map_async(partial(_drain_chunk, rebuild, worker),
                                chunks, chunksize=1)
        pool.close()
        pool.join()
    return sum(counts.get())


def _drain_chunk(rebuild, worker: Callable, chunk: Dict[str, object]) -> int:
    """Pool child: rebuild the context, drain ``chunk`` with its worker."""
    from repro.sparse.kernels import set_default_backend

    cls, root, profile, seed, backend, scales = rebuild
    # Resolved in the parent; pinned process-wide so a spawn-started child
    # sees the default backend a fork child inherits.
    set_default_backend(backend)
    work = worker(cls(profile=profile, seed=seed, kernel_backend=backend,
                      store=ArtifactStore(root), dataset_scales=scales))

    def named(item) -> None:
        try:
            work(item)
        except GCoDTaskError:
            raise
        except Exception as exc:
            # Named where it crosses the process boundary: the parent
            # would otherwise see a bare worker traceback.
            raise failure(item, exc) from exc

    return drain(chunk, _never_done, named)


def trainer(context, say: Callable[[str], None] = lambda msg: None):
    """The one task work function: train-or-load a task into the store.

    The context's own runs train through ``context.gcod``, populating its
    in-memory memo, so store-less rendering reuses them without a second
    training. Any other task (a sweep point's custom config or scale)
    trains exactly what the task says and stays out of memory.
    """
    def work(task: GCoDTask) -> None:
        own = context.gcod_store_key(task.dataset, task.arch)
        if task.key().digest == own.digest:
            context.gcod(task.dataset, task.arch)
        else:
            train_or_load(task, context.store, context.graph_at)
        say(f"  trained ({task.dataset}, {task.arch})")

    return work


def warm_tasks(
    tasks: Sequence[GCoDTask],
    context,
    jobs: int = 1,
    progress=None,
    claims=None,
) -> int:
    """Train ``tasks`` into the context's store: the warming phase of
    ``repro report`` and ``repro sweep``.

    Every task runs :func:`trainer`'s work function through :func:`drain`:
    in this process, across a pool (``jobs > 1`` with a store attached),
    or through the claims of a shared store's work ledger. Returns the
    number of tasks this process (or its pool) worked.
    """
    store: Optional[ArtifactStore] = context.store
    say = progress or (lambda msg: None)
    if not tasks:
        return 0
    items = {"gcod-" + task.key().digest: task for task in tasks}
    if claims is not None:
        say(f"warming {len(tasks)} GCoD run(s) through the shared work "
            f"ledger (worker {claims.worker})")
        return drain(items, lambda task: store.contains(task.key()),
                     trainer(context, say), claims)
    if jobs > 1 and store is None:
        # Children hand results back through the shared store; without
        # one there is nothing to pool over.
        say(f"no artifact store attached: ignoring jobs={jobs}, "
            "training serially")
        jobs = 1
    jobs = pool_width(jobs)
    say(f"warming {len(tasks)} GCoD run(s) with jobs={jobs}")
    if jobs > 1 and len(tasks) > 1:
        return drain_pool(items, context, jobs, trainer,
                          ((task.dataset, task.seed) for task in tasks))
    return drain(items, _never_done, trainer(context, say))


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
