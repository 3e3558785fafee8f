"""Declarative design-space sweeps: axes, grids, and their expansion.

A :class:`SweepSpec` names a cartesian grid over the design space the paper
explores in Sec. VI-C and the ROADMAP extends: dataset x model architecture
x GCoD hyper-parameters (``C`` classes, ``S`` subgraphs, weight sparsity)
x quantization ``bits`` x SpMM ``kernel_backend`` x accelerator
``hw_scale`` (a multiplier on the GCoD PE array) x ``tech_node`` (the
7/16/28 nm silicon the budget models cost the design at) x training
``seed`` (for mean/std variance columns). ``expand`` turns the
grid into concrete :class:`SweepPoint`\\ s against an
:class:`~repro.evaluation.context.EvalContext` — each point carries a fully
resolved :class:`~repro.algorithm.config.GCoDConfig` plus the raw axis
coordinates, and is content-addressed by
:func:`repro.runtime.keys.sweep_point_key` so the engine can plan against
the artifact store.

Axis semantics follow the legacy ``ablation_cs`` experiment exactly (so the
engine reproduces its output byte-for-byte): ``S`` is clamped up to ``C``
(a config needs at least one subgraph per class), and axes that are absent
inherit the context's profile defaults.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.runtime.keys import ArtifactKey, sweep_point_key
from repro.runtime.runner import GCoDTask


@dataclasses.dataclass(frozen=True)
class AxisDef:
    """One sweepable dimension: how to parse and validate its values."""

    name: str
    caster: Callable[[Any], Any]
    describe: str
    validate: Optional[Callable[[Any], bool]] = None

    def _invalid(self, value: Any) -> ConfigError:
        """The one message format for every bad axis value.

        Both failure paths — an uncastable input and a castable-but-
        out-of-range one — name the offending value *and its type*
        (``[1, 2]`` and ``"[1, 2]"`` render identically under ``!r``
        alone) plus what the axis wanted.
        """
        return ConfigError(
            f"axis {self.name!r}: invalid value {value!r} of type "
            f"{type(value).__name__} ({self.describe})"
        )

    def coerce(self, value: Any) -> Any:
        try:
            out = self.caster(value)
        except (TypeError, ValueError):
            raise self._invalid(value) from None
        if self.validate is not None and not self.validate(out):
            raise self._invalid(value)
        return out


def _canonical_workload(value: Any) -> str:
    """Coerce a workload-axis value to its canonical DAG shorthand.

    Parsing validates eagerly (datasets, archs, layer ranges, shares) and
    re-serializing normalizes spelling, so ``"Cora/GCN + citeseer/gat"``
    and ``"cora/gcn+citeseer/gat"`` coerce to the same axis value and
    therefore the same cache keys. ``ConfigError`` from the parser
    propagates as-is (``AxisDef.coerce`` only rewraps Type/ValueError).
    """
    from repro.hardware.pipeline import parse_workload

    if not isinstance(value, str):
        raise TypeError(f"workload axis wants a shorthand string, "
                        f"got {type(value).__name__}")
    return parse_workload(value).to_shorthand()


#: The sweepable axes, in canonical declaration order.
AXES: Dict[str, AxisDef] = {
    a.name: a
    for a in (
        AxisDef("dataset", str, "a dataset name from DATASET_SPECS"),
        AxisDef("arch", str, "a model architecture (gcn, gin, gat, ...)"),
        AxisDef(
            "workload",
            _canonical_workload,
            "a workload DAG shorthand like 'cora/gcn+citeseer/gat'",
        ),
        AxisDef("C", int, "number of degree classes, >= 1",
                lambda v: v >= 1),
        AxisDef("S", int, "number of subgraphs, >= 1", lambda v: v >= 1),
        AxisDef("sparsity", float, "weight prune ratio in [0, 1)",
                lambda v: 0.0 <= v < 1.0),
        AxisDef("bits", int, "platform precision: 8 or 32",
                lambda v: v in (8, 32)),
        AxisDef("kernel_backend", str, "a registered SpMM kernel backend"),
        AxisDef("hw_scale", float, "PE-array multiplier, > 0",
                lambda v: v > 0),
        # validated against the literal node set so a bad --grid fails
        # before any hardware module imports; repro.hardware.budget
        # asserts the same set (tests pin them equal).
        AxisDef("tech_node", int, "logic technology node in nm: 7, 16, 28",
                lambda v: v in (7, 16, 28)),
        AxisDef("seed", int, "a training seed, >= 0", lambda v: v >= 0),
    )
}


def unknown_axis_error(axis_name: str) -> ConfigError:
    """The one error every axis-validation site raises for a bad name.

    Names the full known-axis list (the CLI turns this into exit code 2)
    and suggests the near-miss when the typo is a case slip (``c=1,2``)
    or one edit away (``hwscale``) — the two ways a ``--grid`` string
    actually goes wrong.
    """
    from repro.errors import did_you_mean

    close = did_you_mean(axis_name, AXES)
    suggestion = f" (did you mean {close!r}?)" if close else ""
    return ConfigError(
        f"unknown sweep axis {axis_name!r}{suggestion}; choose from "
        f"{', '.join(AXES)}"
    )


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A named grid over the design space.

    ``axes`` maps axis names (see :data:`AXES`) to value sequences; the
    expansion order is the declaration order of the axes, last axis fastest
    — exactly ``itertools.product``. Instances are immutable and hashable
    (axes are normalized to nested tuples), so registered sweeps are safe
    module-level constants.
    """

    name: str
    title: str
    axes: Any  # Mapping[str, Sequence] at construction; tuple once frozen
    description: str = ""

    def __post_init__(self):
        if isinstance(self.axes, Mapping):
            items = tuple(self.axes.items())
        else:
            items = tuple(self.axes)
        normalized = []
        for axis_name, values in items:
            if axis_name not in AXES:
                raise unknown_axis_error(axis_name)
            axis = AXES[axis_name]
            values = tuple(axis.coerce(v) for v in values)
            if not values:
                raise ConfigError(f"axis {axis_name!r} has no values")
            normalized.append((axis_name, values))
        if not normalized:
            raise ConfigError(f"sweep {self.name!r} declares no axes")
        object.__setattr__(self, "axes", tuple(normalized))

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    @property
    def num_points(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def describe(self) -> str:
        dims = " x ".join(f"{name}[{len(vals)}]" for name, vals in self.axes)
        return f"{self.name}: {self.num_points} points ({dims})"


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One concrete design point: resolved config + platform variant.

    ``axes`` preserves the raw grid coordinates (what the spec said) even
    where resolution changed the config (``S`` clamped up to ``C``) — the
    long-form tables report coordinates, the cache key covers both.
    """

    dataset: str
    arch: str
    scale: Optional[float]
    seed: int
    profile: str
    #: resolved backend *name* (never None) — matches GCoDTask semantics.
    kernel_backend: str
    config: object  # GCoDConfig; loosely typed to keep imports light
    bits: int
    hw_scale: float
    tech_node: int
    axes: Tuple[Tuple[str, Any], ...]
    #: canonical workload-DAG shorthand for multi-model points (``None``
    #: for the classic single-model grid); ``dataset``/``arch`` then hold
    #: the DAG's *primary* (first-declared) node.
    workload: Optional[str] = None
    #: per-dataset generation scales every DAG node trained at, sorted by
    #: dataset — baked at expand time so the cache key covers the sizes
    #: of *all* node graphs, not just the primary's.
    workload_scales: Tuple[Tuple[str, Optional[float]], ...] = ()

    def key(self, walked_config: Any = None) -> ArtifactKey:
        """The point's store key; ``walked_config`` is
        :func:`~repro.runtime.keys.walk_config` of ``self.config``, when
        the caller already has it (a planner keying many points over one
        config)."""
        return sweep_point_key(
            self.dataset,
            self.scale,
            self.arch,
            self.config,
            self.kernel_backend,
            self.seed,
            self.profile,
            self.bits,
            self.hw_scale,
            self.tech_node,
            dict(self.axes),
            workload=self.workload,
            workload_scales=self.workload_scales,
            walked_config=walked_config,
        )

    # ``_tasks``, the runs behind the two methods below, is set by
    # :func:`expand` and is not a field: it follows from the fields, and
    # neither the key nor the stored shape sees it. ``expand`` hands every
    # point over one pipeline the same task object, so the planner's
    # dedupe and the evaluator hash each task key once.

    def gcod_task(self) -> GCoDTask:
        """The training run this point depends on (pool-schedulable)."""
        return self._tasks[0]

    def gcod_tasks(self) -> List[GCoDTask]:
        """Every training run this point depends on, primary first.

        A single-model point needs exactly :meth:`gcod_task`. A
        workload-DAG point needs one run per distinct (dataset, arch)
        node pair; all nodes train under the point's resolved config
        (the documented simplification — per-node hyper-parameter
        overrides would fork the config per task), so a DAG node naming
        the primary pair digests identically to the legacy task and
        shares its stored artifact.
        """
        return list(self._tasks)

    def label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.axes)


def parse_grid(text: str) -> Dict[str, Tuple[Any, ...]]:
    """Parse a CLI ``--grid`` string into an axes mapping.

    Syntax: semicolon-separated ``axis=v1,v2,...`` clauses, e.g.
    ``"dataset=cora,reddit;C=1,2,3,4;S=8,12,16,20"``. Values are coerced
    per axis (ints for ``C``/``S``/``bits``, floats for ``sparsity``/
    ``hw_scale``, strings otherwise).
    """
    axes: Dict[str, Tuple[Any, ...]] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ConfigError(
                f"--grid clause {clause!r} is not of the form axis=v1,v2"
            )
        axis_name, _, values = clause.partition("=")
        axis_name = axis_name.strip()
        if axis_name not in AXES:
            raise unknown_axis_error(axis_name)
        if axis_name in axes:
            raise ConfigError(f"axis {axis_name!r} appears twice in --grid")
        axis = AXES[axis_name]
        parsed = tuple(
            axis.coerce(v.strip()) for v in values.split(",") if v.strip()
        )
        if not parsed:
            raise ConfigError(f"axis {axis_name!r} has no values in --grid")
        axes[axis_name] = parsed
    if not axes:
        raise ConfigError("--grid selected no axes")
    return axes


#: The axes a point's training config is resolved from (besides ``arch``).
_CONFIG_AXES = ("C", "S", "sparsity", "seed", "kernel_backend")


def _point_config(context, arch: str, coords: Mapping[str, Any]):
    """Resolve the grid coordinates into a concrete GCoDConfig.

    Reads ``arch`` and the :data:`_CONFIG_AXES` coordinates only, which
    is what lets :func:`expand` resolve each distinct config once.
    """
    from repro.sparse.kernels import backend_name

    config = context.gcod_config_for(arch)
    changes: Dict[str, Any] = {}
    if "C" in coords:
        changes["num_classes"] = coords["C"]
    effective_c = changes.get("num_classes", config.num_classes)
    if "S" in coords:
        # The legacy ablation's clamp: at least one subgraph per class.
        changes["num_subgraphs"] = max(coords["S"], effective_c)
    elif effective_c > config.num_subgraphs:
        changes["num_subgraphs"] = effective_c
    if "sparsity" in coords:
        changes["prune_ratio"] = coords["sparsity"]
    if "seed" in coords:
        # The seed axis varies the *training* randomness: the config's
        # seed and the point's seed move together (the cache key covers
        # both through the config payload and the seed component).
        changes["seed"] = coords["seed"]
    backend = backend_name(
        coords.get("kernel_backend", context.kernel_backend)
    )
    changes["kernel_backend"] = backend
    return replace(config, **changes), backend


def expand(spec: SweepSpec, context) -> List[SweepPoint]:
    """Expand ``spec`` into concrete points, in grid order.

    Dataset and arch names are validated eagerly (a typo should fail
    before any training starts, not at point 17 of 24).
    """
    from repro.graphs.datasets import DATASET_SPECS
    from repro.nn.models import MODEL_ARCHS
    from repro.errors import UnknownDatasetError

    if "workload" in spec.axis_names:
        clash = sorted({"dataset", "arch"} & set(spec.axis_names))
        if clash:
            raise ConfigError(
                f"the 'workload' axis already names each node's dataset "
                f"and arch; drop the {', '.join(repr(c) for c in clash)} "
                f"axis"
            )

    for name, values in spec.axes:
        if name == "dataset":
            for ds in values:
                if str(ds).lower() not in DATASET_SPECS:
                    raise UnknownDatasetError(
                        f"unknown dataset {ds!r}; choose from "
                        f"{sorted(DATASET_SPECS)}"
                    )
        if name == "arch":
            for arch in values:
                if str(arch).lower() not in MODEL_ARCHS:
                    raise ConfigError(
                        f"unknown architecture {arch!r}; choose from "
                        f"{sorted(MODEL_ARCHS)}"
                    )

    names = spec.axis_names
    # Normalize case so "Cora"/"cora" share cache keys (load_dataset
    # lowercases anyway: same numerics, so they must be the same run).
    grid = [
        tuple(str(v).lower() for v in values)
        if name in ("dataset", "arch") else values
        for name, values in spec.axes
    ]
    # One config per distinct arch and config-axis coordinates: points
    # over one pipeline share one GCoDConfig object, which nothing
    # mutates. repr keeps -0.0 apart from 0.0: equal floats, different
    # key payloads.
    config_at = [i for i, name in enumerate(names) if name in _CONFIG_AXES]
    configs: Dict[Tuple[str, ...], Tuple[Any, str]] = {}
    # One task per distinct (config, dataset, arch, scale, seed), beside
    # the config memo that keeps each config object alive.
    tasks: Dict[Tuple[Any, ...], GCoDTask] = {}

    def task_for(config, backend: str, dataset: str, arch: str,
                 seed: int) -> GCoDTask:
        scale = context.scale_for(dataset)
        memo = (id(config), dataset, arch, scale, seed)
        if memo not in tasks:
            tasks[memo] = GCoDTask(
                dataset=dataset,
                arch=arch,
                scale=scale,
                seed=seed,
                profile=context.profile,
                kernel_backend=backend,
                config=config,
            )
        return tasks[memo]

    points = []
    for combo in itertools.product(*grid):
        coords = dict(zip(names, combo))
        workload = coords.get("workload")
        workload_scales: Tuple[Tuple[str, Optional[float]], ...] = ()
        if workload is not None:
            # The DAG's first-declared node is the point's primary
            # (dataset, arch); the scales of *every* node dataset are
            # baked in so the cache key covers all the node graphs.
            from repro.hardware.pipeline import parse_workload

            nodes = parse_workload(workload).nodes
            dataset, arch = nodes[0].dataset, nodes[0].arch
            workload_scales = tuple(sorted(
                (ds, context.scale_for(ds))
                for ds in {n.dataset for n in nodes}
            ))
            pairs = list(dict.fromkeys((n.dataset, n.arch) for n in nodes))
        else:
            dataset = coords.get("dataset", "cora")
            arch = coords.get("arch", "gcn")
            pairs = [(dataset, arch)]
        resolved = (arch,) + tuple([repr(combo[i]) for i in config_at])
        if resolved not in configs:
            configs[resolved] = _point_config(context, arch, coords)
        config, backend = configs[resolved]
        seed = coords.get("seed", context.seed)
        point = SweepPoint(
            dataset=dataset,
            arch=arch,
            scale=context.scale_for(dataset),
            seed=seed,
            profile=context.profile,
            kernel_backend=backend,
            config=config,
            bits=coords.get("bits", 32),
            hw_scale=float(coords.get("hw_scale", 1.0)),
            tech_node=coords.get("tech_node", 16),
            axes=tuple(zip(names, combo)),
            workload=workload,
            workload_scales=workload_scales,
        )
        object.__setattr__(point, "_tasks", tuple(
            task_for(config, backend, ds, a, seed) for ds, a in pairs
        ))
        points.append(point)
    return points
