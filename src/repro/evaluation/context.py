"""Shared experiment context: dataset/GCoD-run caching and result plumbing.

Running GCoD training is the expensive part of every experiment, and several
tables need the same trained graphs, so :class:`EvalContext` memoizes
dataset generation and GCoD pipeline runs within a process — and, when an
:class:`~repro.runtime.store.ArtifactStore` is attached, persists them
across processes under stable content-addressed keys (see
:mod:`repro.runtime.keys`). The ``fast`` profile (default) uses reduced
scales and epoch budgets so the whole harness completes in minutes;
``full`` uses the paper's settings.

Cache keys include the kernel backend and the effective dataset scale, so
two contexts that share memo dictionaries (e.g. via ``dataclasses.replace``)
but differ in backend or scale can never serve each other stale entries.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.algorithm.config import GCoDConfig
from repro.runtime import keys as runtime_keys
from repro.runtime.runner import (
    GCoDTask,
    build_task,
    dataset_graph,
    train_or_load,
)
from repro.runtime.store import ArtifactStore, get_or_compute
from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.algorithm.pipeline import GCoDResult
    from repro.graphs.graph import Graph
    from repro.hardware.workload import GCNWorkload


def __getattr__(name: str):
    # ``extract_workload`` stays readable as this module's attribute (the
    # benchmark's tracer rebinds it here) without importing scipy when the
    # module loads.
    if name == "extract_workload":
        from repro.hardware.workload import extract_workload

        globals()[name] = extract_workload
        return extract_workload
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CITATION_DATASETS = ("cora", "citeseer", "pubmed")
LARGE_DATASETS = ("nell", "reddit")
ALL_DATASETS = CITATION_DATASETS + LARGE_DATASETS + ("ogbn-arxiv",)


def _plain(value):
    """Coerce a cell value to a JSON-friendly plain Python value."""
    try:
        return runtime_keys.jsonable(value)
    except TypeError:
        return str(value)  # an exotic cell type: serialize its repr


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    name: str
    headers: Sequence[str]
    rows: List[Sequence]
    extra_text: str = ""

    def render(self, float_fmt: str = ".2f") -> str:
        """The experiment as printable text."""
        table = format_table(self.headers, self.rows, title=self.name,
                             float_fmt=float_fmt)
        if self.extra_text:
            return table + "\n\n" + self.extra_text
        return table

    def as_dict(self) -> Dict[str, List]:
        """Column-oriented dict of the rows (for programmatic use)."""
        cols: Dict[str, List] = {h: [] for h in self.headers}
        for row in self.rows:
            for h, v in zip(self.headers, row):
                cols[h].append(v)
        return cols

    # ------------------------------------------------------------------
    # machine-readable serialization (`repro report --format json/csv`)
    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict:
        """A plain-Python dict round-trippable through JSON."""
        return {
            "name": self.name,
            "headers": [str(h) for h in self.headers],
            "rows": [[_plain(v) for v in row] for row in self.rows],
            "extra_text": self.extra_text,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The result as a JSON document."""
        return json.dumps(self.to_jsonable(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        data = json.loads(text)
        return cls(
            name=data["name"],
            headers=tuple(data["headers"]),
            rows=[tuple(row) for row in data["rows"]],
            extra_text=data.get("extra_text", ""),
        )

    def to_csv(self) -> str:
        """The rows as an RFC-4180 CSV document (headers included)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([str(h) for h in self.headers])
        for row in self.rows:
            writer.writerow([_plain(v) for v in row])
        return buf.getvalue()


@dataclass
class EvalContext:
    """Caches graphs, GCoD runs, and platform models across experiments."""

    profile: str = "fast"
    seed: int = 0
    #: SpMM kernel backend for every pipeline run this context performs
    #: (None = the registry default, "vectorized"; "reference" and "tiled"
    #: are the other registered engines).
    kernel_backend: Optional[str] = None
    dataset_scales: Dict[str, float] = field(default_factory=dict)
    #: optional persistent artifact store; when attached, graphs, GCoD
    #: results, and traces survive across processes.
    store: Optional[ArtifactStore] = None
    _graphs: Dict[tuple, Graph] = field(default_factory=dict, repr=False)
    _tasks: Dict[tuple, GCoDTask] = field(default_factory=dict, repr=False)
    _gcod: Dict[tuple, GCoDResult] = field(default_factory=dict, repr=False)
    _traces: Dict[tuple, object] = field(default_factory=dict, repr=False)
    _platforms: Optional[dict] = field(default=None, repr=False)

    # fast-profile scales chosen so each dataset trains in seconds while
    # keeping enough structure for the partitioner to be meaningful.
    _FAST_SCALES = {
        "cora": 0.3,
        "citeseer": 0.25,
        "pubmed": 0.05,
        "nell": 0.015,
        "ogbn-arxiv": 0.006,
        "reddit": 0.004,
    }

    def scale_for(self, dataset: str) -> Optional[float]:
        """The generation scale used for ``dataset`` under this profile."""
        if dataset in self.dataset_scales:
            return self.dataset_scales[dataset]
        if self.profile == "fast":
            return self._FAST_SCALES.get(dataset)
        return None  # full profile: each spec's default scale

    def _backend_name(self) -> str:
        """The kernel backend name with ``None`` resolved to the default."""
        from repro.sparse.kernels import backend_name

        return backend_name(self.kernel_backend)

    def gcod_config(self) -> GCoDConfig:
        """The GCoD hyper-parameters for this profile."""
        if self.profile == "fast":
            return GCoDConfig(
                pretrain_epochs=30,
                retrain_epochs=20,
                admm_iterations=2,
                admm_inner_steps=6,
                seed=self.seed,
                kernel_backend=self.kernel_backend,
            )
        return GCoDConfig(seed=self.seed, kernel_backend=self.kernel_backend)

    def gcod_config_for(self, arch: str) -> GCoDConfig:
        """The per-arch config :meth:`gcod` (and the runner) will use."""
        config = self.gcod_config()
        if arch == "resgcn":  # 28 layers is too deep for fast training
            config = replace(
                config, pretrain_epochs=min(config.pretrain_epochs, 15),
                retrain_epochs=min(config.retrain_epochs, 10),
            )
        return config

    # ------------------------------------------------------------------
    # cache keys (in-memory memo + persistent store)
    # ------------------------------------------------------------------
    def _gcod_memo_key(self, dataset: str, arch: str) -> tuple:
        # Backend, effective scale, and profile are part of the key:
        # contexts created via ``replace(ctx, kernel_backend=...)`` (or
        # ``profile=...``) share these memo dicts, and must never silently
        # share trained results. Profile matters even at an identical
        # explicit scale because it selects the epoch budgets.
        return (dataset, arch, self._backend_name(),
                self.scale_for(dataset), self.seed, self.profile)

    def gcod_task(self, dataset: str, arch: str = "gcn") -> GCoDTask:
        """The (cached) training task :meth:`gcod` runs for (dataset, arch).

        Cached under the memo key, which covers every input of the task, so
        repeated lookups (``has_gcod`` before ``gcod``, the planner, the
        service's warm path) hash the store key once.
        """
        memo = self._gcod_memo_key(dataset, arch)
        if memo not in self._tasks:
            self._tasks[memo] = build_task(self, dataset, arch)
        return self._tasks[memo]

    def gcod_store_key(
        self, dataset: str, arch: str = "gcn"
    ) -> runtime_keys.ArtifactKey:
        """The persistent-store key of this context's (dataset, arch) run."""
        return self.gcod_task(dataset, arch).key()

    def experiment_store_key(self, name: str) -> runtime_keys.ArtifactKey:
        """The persistent-store key of experiment ``name`` in this context."""
        return runtime_keys.experiment_key(
            name, self.profile, self.seed, self.kernel_backend,
            self.dataset_scales,
        )

    # ------------------------------------------------------------------
    # cached products
    # ------------------------------------------------------------------
    def graph(self, dataset: str) -> Graph:
        """The (cached) synthetic graph for ``dataset``."""
        return self.graph_at(dataset, self.scale_for(dataset), self.seed)

    def graph_at(self, dataset: str, scale: Optional[float],
                 seed: int) -> Graph:
        """The (cached) graph for an explicit (dataset, scale, seed)."""
        memo = (dataset, scale, seed)
        if memo not in self._graphs:
            self._graphs[memo] = dataset_graph(self.store, dataset, scale,
                                               seed)
        return self._graphs[memo]

    def has_gcod(self, dataset: str, arch: str = "gcn") -> bool:
        """True if (dataset, arch) is already trained (memory or store)."""
        if self._gcod_memo_key(dataset, arch) in self._gcod:
            return True
        return self.store is not None and self.store.contains(
            self.gcod_store_key(dataset, arch)
        )

    def gcod(self, dataset: str, arch: str = "gcn") -> GCoDResult:
        """The (cached) GCoD pipeline result for (dataset, arch)."""
        memo = self._gcod_memo_key(dataset, arch)
        if memo not in self._gcod:
            self._gcod[memo] = train_or_load(
                self.gcod_task(dataset, arch), self.store, self.graph_at
            )
        return self._gcod[memo]

    def platforms(self) -> dict:
        """The (cached) platform models, keyed by name."""
        if self._platforms is None:
            from repro.hardware.accelerators import all_platforms

            self._platforms = all_platforms()
        return self._platforms

    def measured_trace(self, dataset: str, arch: str = "gcn"):
        """The (cached) first-layer :class:`ExecutionTrace` of the trained
        model, functionally executed on the two-pronged schedule.

        This is the measured counterpart of the analytic model's assumed
        constants: pass it to ``GCoDAccelerator(measured_trace=...)`` to
        cost an inference with the *observed* chunk balance and
        query-forwarding rate instead of the paper's ~63%.
        """
        from repro.hardware.functional import execute_layer

        memo = self._gcod_memo_key(dataset, arch)
        if memo not in self._traces:
            def trace():
                result = self.gcod(dataset, arch)
                return execute_layer(
                    result.final_graph,
                    result.layout,
                    result.final_graph.features,
                    result.model.layers[0].weight.data,
                    kernel_backend=self.kernel_backend,
                ).trace

            key = runtime_keys.trace_key(self.gcod_store_key(dataset, arch))
            self._traces[memo] = get_or_compute(self.store, key, trace)
        return self._traces[memo]

    # ------------------------------------------------------------------
    # workload helpers
    # ------------------------------------------------------------------
    def baseline_workload(
        self, dataset: str, arch: str = "gcn", **kw
    ) -> GCNWorkload:
        """Paper-scale workload of the untreated graph (for baselines)."""
        from repro.hardware.workload import extract_workload

        return extract_workload(
            self.graph(dataset), None, arch, paper_scale=True, **kw
        )

    def gcod_workload(
        self, dataset: str, arch: str = "gcn", stage: str = "final", **kw
    ) -> GCNWorkload:
        """Paper-scale workload of a GCoD-trained graph.

        ``stage`` picks the pipeline stage: ``partitioned`` (Step 1 only,
        i.e. the accelerator without sparsification), ``tuned`` (Step 2), or
        ``final`` (all three steps).
        """
        from repro.hardware.workload import extract_workload

        result = self.gcod(dataset, arch)
        graph = {
            "partitioned": result.partitioned_graph,
            "tuned": result.tuned_graph,
            "final": result.final_graph,
        }[stage]
        return extract_workload(graph, result.layout, arch, paper_scale=True, **kw)

    def speedups_over_cpu(
        self,
        dataset: str,
        arch: str,
        platform_names: Sequence[str],
    ) -> Dict[str, float]:
        """Normalized speedups vs PyG-CPU for the named platforms (Fig. 9/10)."""
        plats = self.platforms()
        wl_base = self.baseline_workload(dataset, arch)
        cpu = plats["pyg-cpu"].run(wl_base)
        out = {}
        for name in platform_names:
            if name.startswith("gcod"):
                wl = self.gcod_workload(dataset, arch, stage="final")
            else:
                wl = wl_base
            report = plats[name].run(wl)
            out[name] = cpu.latency_s / report.latency_s
        return out


_DEFAULT: Optional[EvalContext] = None


def default_context(profile: str = "fast") -> EvalContext:
    """A process-wide shared context (so benchmarks reuse trained graphs)."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.profile != profile:
        _DEFAULT = EvalContext(profile=profile)
    return _DEFAULT
