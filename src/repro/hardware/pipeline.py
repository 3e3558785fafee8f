"""Workload-DAG evaluation: multi-model, shared-accelerator costing.

The single-model path (``extract_workload`` -> ``GCoDAccelerator.run``)
hard-codes one model on one accelerator. This module generalizes it to a
declarative **workload DAG**:

* a :class:`WorkloadGraph` of named :class:`WorkloadNode`\\ s — each a
  (dataset, arch, layer-range) with optional per-node kernel-backend and
  PE-allocation (``share``) choices, plus ``after`` dependencies;
* an evaluator that takes each node through three fixed steps — extract
  its workload (the only pluggable one, through
  ``PipelineSettings.extract_fn``), map it onto its PE slice as a
  :class:`~repro.hardware.accelerators.gcod.GCoDAccelerator`, and cost it
  with the existing analytic model;
* a merge step with shared-accelerator contention accounting: nodes of a
  concurrent level time-slice one PE array
  (:meth:`~repro.hardware.pe.PEArray.allocate`), a level's latency is the
  max over its nodes, sequential levels sum, and DRAM/energy add up
  through ``PhaseStats.__add__`` / ``EnergyBreakdown.__add__``.

A single-node DAG reduces exactly to the legacy path: ``allocate([1.0])``
returns the full PE array, so the node's ``GCoDAccelerator`` is
numerically identical to the default construction and its
:class:`~repro.hardware.accelerators.base.AcceleratorReport` is
byte-identical (tests pin this parity).

Shorthand grammar (the ``--workload`` / sweep-axis syntax)::

    workload := phase (">" phase)*          sequential phases
    phase    := node ("+" node)*            concurrent, share the array
    node     := dataset "/" arch [
                "/" start ["-" stop]]       inclusive layer range
                ["@" share]                 PE-allocation fraction

e.g. ``"cora/gcn+citeseer/gat"`` (two models sharing the accelerator) or
``"cora/gcn/0@0.75 > cora/gcn/1"`` (a pipelined layer split). The JSON
form (see :func:`workload_from_json`) expresses arbitrary DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, did_you_mean
from repro.hardware.budget import DEFAULT_TECH_NODE_NM
from repro.hardware.units import DEFAULT_PES, GCOD_CLOCK_HZ

if TYPE_CHECKING:
    # Parsing a DAG (a sweep axis coerces every workload value) needs none
    # of the models; evaluating one imports them where it starts.
    from repro.hardware.accelerators.base import AcceleratorReport, PhaseStats
    from repro.hardware.pe import PEArray
    from repro.hardware.workload import GCNWorkload


# ----------------------------------------------------------------------
# the DAG description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadNode:
    """One model (or layer-range of a model) in a workload DAG."""

    name: str
    dataset: str
    arch: str = "gcn"
    #: inclusive layer range ``(start, stop)`` of the model, or ``None``
    #: for the whole model.
    layers: Optional[Tuple[int, int]] = None
    #: fraction of the shared PE array this node wants within its level
    #: (``None`` = an equal split with its concurrent peers).
    share: Optional[float] = None
    #: per-node SpMM kernel backend override for training/extraction.
    kernel_backend: Optional[str] = None
    #: names of nodes that must complete before this one starts.
    after: Tuple[str, ...] = ()

    def token(self) -> str:
        """This node as a shorthand token (``dataset/arch[/a-b][@s]``)."""
        out = f"{self.dataset}/{self.arch}"
        if self.layers is not None:
            start, stop = self.layers
            out += f"/{start}" if start == stop else f"/{start}-{stop}"
        if self.share is not None:
            out += f"@{self.share:g}"
        return out


@dataclass(frozen=True)
class WorkloadGraph:
    """A named DAG of workload nodes sharing one accelerator."""

    name: str
    nodes: Tuple[WorkloadNode, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ConfigError(f"workload {self.name!r} has no nodes")
        names = [n.name for n in self.nodes]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ConfigError(
                f"workload {self.name!r} has duplicate node names: "
                f"{sorted(dupes)}"
            )
        known = set(names)
        for node in self.nodes:
            for dep in node.after:
                if dep == node.name:
                    raise ConfigError(
                        f"workload node {node.name!r} depends on itself"
                    )
                if dep not in known:
                    close = did_you_mean(dep, known)
                    suggestion = f" (did you mean {close!r}?)" if close \
                        else ""
                    raise ConfigError(
                        f"workload node {node.name!r} depends on unknown "
                        f"node {dep!r}{suggestion}"
                    )

    def levels(self) -> List[List[WorkloadNode]]:
        """Topological levels: each level's nodes run concurrently.

        Declaration order is preserved within a level, so expansion is
        deterministic. A dependency cycle raises :class:`ConfigError`.
        """
        remaining = list(self.nodes)
        done: set = set()
        out: List[List[WorkloadNode]] = []
        while remaining:
            ready = [n for n in remaining
                     if all(d in done for d in n.after)]
            if not ready:
                stuck = ", ".join(n.name for n in remaining)
                raise ConfigError(
                    f"workload {self.name!r} has a dependency cycle "
                    f"among: {stuck}"
                )
            out.append(ready)
            done.update(n.name for n in ready)
            remaining = [n for n in remaining if n.name not in done]
        return out

    def to_shorthand(self) -> str:
        """The canonical shorthand string for a level-sequential DAG.

        Only DAGs whose dependencies are exactly "every node of the
        previous level" are expressible; anything sparser needs the JSON
        form and raises here.
        """
        levels = self.levels()
        previous: Tuple[str, ...] = ()
        for level in levels:
            for node in level:
                if set(node.after) != set(previous):
                    raise ConfigError(
                        f"workload {self.name!r} is not level-sequential "
                        f"(node {node.name!r} has sparse dependencies); "
                        "use the JSON form"
                    )
            previous = tuple(n.name for n in level)
        return " > ".join(
            "+".join(n.token() for n in level) for level in levels
        )

    def to_jsonable(self) -> Dict[str, Any]:
        """The JSON form :func:`workload_from_json` round-trips."""
        return {
            "name": self.name,
            "nodes": [
                {
                    "name": n.name,
                    "dataset": n.dataset,
                    "arch": n.arch,
                    **({"layers": list(n.layers)} if n.layers else {}),
                    **({"share": n.share} if n.share is not None else {}),
                    **({"kernel_backend": n.kernel_backend}
                       if n.kernel_backend else {}),
                    **({"after": list(n.after)} if n.after else {}),
                }
                for n in self.nodes
            ],
        }


# ----------------------------------------------------------------------
# parsing: shorthand and JSON
# ----------------------------------------------------------------------
def _validate_node_names(nodes) -> None:
    """Eager dataset/arch validation, matching the sweep expansion's."""
    from repro.errors import UnknownDatasetError
    from repro.graphs.datasets import DATASET_SPECS
    from repro.nn.models import MODEL_ARCHS

    for node in nodes:
        if node.dataset not in DATASET_SPECS:
            raise UnknownDatasetError(
                f"unknown dataset {node.dataset!r}; choose from "
                f"{sorted(DATASET_SPECS)}"
            )
        if node.arch not in MODEL_ARCHS:
            raise ConfigError(
                f"unknown architecture {node.arch!r}; choose from "
                f"{sorted(MODEL_ARCHS)}"
            )


def _parse_layer_range(text: str, token: str) -> Tuple[int, int]:
    start_text, sep, stop_text = text.partition("-")
    try:
        start = int(start_text)
        stop = int(stop_text) if sep else start
    except ValueError:
        raise ConfigError(
            f"workload node {token!r}: layer range {text!r} is not "
            f"'start' or 'start-stop'"
        ) from None
    if start < 0 or stop < start:
        raise ConfigError(
            f"workload node {token!r}: layer range {text!r} wants "
            f"0 <= start <= stop"
        )
    return (start, stop)


def _parse_node_token(
    token: str, after: Tuple[str, ...], taken: set
) -> WorkloadNode:
    body, at, share_text = token.partition("@")
    share: Optional[float] = None
    if at:
        try:
            share = float(share_text)
        except ValueError:
            raise ConfigError(
                f"workload node {token!r}: share {share_text!r} is not "
                f"a number"
            ) from None
        if share <= 0:
            raise ConfigError(
                f"workload node {token!r}: share must be positive"
            )
    fields = [f.strip() for f in body.strip().split("/")]
    if not 2 <= len(fields) <= 3 or not all(fields):
        raise ConfigError(
            f"workload node {token!r} is not of the form "
            f"dataset/arch[/start-stop][@share]"
        )
    dataset, arch = fields[0].lower(), fields[1].lower()
    layers = _parse_layer_range(fields[2], token) if len(fields) == 3 \
        else None
    base = f"{dataset}/{arch}"
    name, k = base, 2
    while name in taken:
        name, k = f"{base}#{k}", k + 1
    taken.add(name)
    return WorkloadNode(
        name=name, dataset=dataset, arch=arch, layers=layers,
        share=share, after=after,
    )


def parse_workload(text: str, name: Optional[str] = None) -> WorkloadGraph:
    """Parse the shorthand grammar into a validated :class:`WorkloadGraph`.

    ``+`` joins concurrent nodes (one level, sharing the PE array), ``>``
    joins sequential phases (each phase depends on all of the previous).
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(
            "empty workload: expected shorthand like "
            "'cora/gcn+citeseer/gat'"
        )
    nodes: List[WorkloadNode] = []
    taken: set = set()
    previous: Tuple[str, ...] = ()
    for phase in text.split(">"):
        tokens = [t.strip() for t in phase.split("+") if t.strip()]
        if not tokens:
            raise ConfigError(
                f"workload {text!r} has an empty phase (stray '>' or '+')"
            )
        level = [_parse_node_token(t, previous, taken) for t in tokens]
        nodes.extend(level)
        previous = tuple(n.name for n in level)
    _validate_node_names(nodes)
    graph = WorkloadGraph(name=name or "workload", nodes=tuple(nodes))
    return graph


#: The keys a JSON node object may carry.
_JSON_NODE_KEYS = ("name", "dataset", "arch", "layers", "share",
                   "kernel_backend", "after")


def workload_from_json(data: Any) -> WorkloadGraph:
    """Build a :class:`WorkloadGraph` from its JSON form.

    Schema: ``{"name": str?, "nodes": [{"dataset": str, "arch": str,
    "name": str?, "layers": [start, stop]?, "share": float?,
    "kernel_backend": str?, "after": [str, ...]?}, ...]}``.
    """
    if not isinstance(data, dict) or not isinstance(data.get("nodes"),
                                                    list):
        raise ConfigError(
            "workload JSON wants an object with a 'nodes' list"
        )
    nodes: List[WorkloadNode] = []
    taken: set = set()
    for i, item in enumerate(data["nodes"]):
        if not isinstance(item, dict):
            raise ConfigError(f"workload node #{i} is not an object")
        unknown = sorted(set(item) - set(_JSON_NODE_KEYS))
        if unknown:
            raise ConfigError(
                f"workload node #{i} has unknown key(s) {unknown}; "
                f"allowed: {list(_JSON_NODE_KEYS)}"
            )
        if "dataset" not in item:
            raise ConfigError(f"workload node #{i} is missing 'dataset'")
        dataset = str(item["dataset"]).lower()
        arch = str(item.get("arch", "gcn")).lower()
        layers = item.get("layers")
        if layers is not None:
            if (not isinstance(layers, (list, tuple))
                    or len(layers) != 2
                    or not all(isinstance(v, int) for v in layers)
                    or layers[0] < 0 or layers[1] < layers[0]):
                raise ConfigError(
                    f"workload node #{i}: 'layers' wants [start, stop] "
                    f"with 0 <= start <= stop, got {layers!r}"
                )
            layers = (layers[0], layers[1])
        share = item.get("share")
        if share is not None:
            share = float(share)
            if share <= 0:
                raise ConfigError(
                    f"workload node #{i}: share must be positive"
                )
        base = str(item.get("name") or f"{dataset}/{arch}")
        name, k = base, 2
        while name in taken:
            name, k = f"{base}#{k}", k + 1
        taken.add(name)
        nodes.append(WorkloadNode(
            name=name,
            dataset=dataset,
            arch=arch,
            layers=layers,
            share=share,
            kernel_backend=item.get("kernel_backend"),
            after=tuple(item.get("after", ())),
        ))
    _validate_node_names(nodes)
    return WorkloadGraph(
        name=str(data.get("name") or "workload"), nodes=tuple(nodes)
    )


def slice_workload(workload: GCNWorkload,
                   node: WorkloadNode) -> GCNWorkload:
    """The node's layer-range view of a full-model workload."""
    if node.layers is None:
        return workload
    start, stop = node.layers
    if stop >= len(workload.layers):
        raise ConfigError(
            f"workload node {node.name!r}: layer range ({start}, {stop}) "
            f"is out of range for {workload.name!r} "
            f"({len(workload.layers)} layers)"
        )
    import dataclasses

    return dataclasses.replace(
        workload,
        name=f"{workload.name}[{start}-{stop}]",
        layers=workload.layers[start:stop + 1],
    )


# ----------------------------------------------------------------------
# evaluation + merge
# ----------------------------------------------------------------------
@dataclass
class PipelineSettings:
    """The GCoD variant a workload DAG is costed on, and its extraction."""

    bits: int = 32
    hw_scale: float = 1.0
    tech_node: int = DEFAULT_TECH_NODE_NM
    #: override the extraction source: ``(node, context) -> GCNWorkload``
    #: returning the *full-model* workload (the evaluator applies the
    #: node's layer range). The sweep engine injects its own store-backed
    #: extraction here.
    extract_fn: Optional[Callable[[WorkloadNode, Any], GCNWorkload]] = None


def _trained_workload(node: WorkloadNode, context) -> GCNWorkload:
    """The node's full-model workload from ``context``'s GCoD pipeline."""
    if node.kernel_backend is not None:
        # Shares the memo dicts deliberately (keys include the backend),
        # exactly like the serve path's resolution.
        context = replace(context, kernel_backend=node.kernel_backend)
    return context.gcod_workload(node.dataset, node.arch)


@dataclass
class WorkloadGraphReport:
    """A multi-model report: per-node costs + contention-merged totals."""

    workload: str
    platform: str
    combination: PhaseStats
    aggregation: PhaseStats
    #: sum over levels of the max node latency within each level (the
    #: time-sliced shared accelerator).
    latency_s: float
    node_reports: Tuple[Tuple[str, AcceleratorReport], ...]
    #: PEs of the shared array each node was allocated.
    node_pes: Tuple[Tuple[str, int], ...]
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def energy(self):
        """Total energy over all nodes."""
        return self.combination.energy + self.aggregation.energy

    @property
    def offchip_bytes(self) -> float:
        """Total off-chip (DRAM) traffic over all nodes."""
        return (self.combination.offchip_bytes
                + self.aggregation.offchip_bytes)

    def merged(self) -> AcceleratorReport:
        """The whole DAG as one :class:`AcceleratorReport`."""
        from repro.hardware.accelerators.base import AcceleratorReport

        return AcceleratorReport(
            platform=self.platform,
            workload=self.workload,
            combination=self.combination,
            aggregation=self.aggregation,
            latency_s=self.latency_s,
            notes=dict(self.notes),
        )

    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-Python dict round-trippable through JSON."""
        import dataclasses

        from repro.runtime.keys import jsonable

        return {
            "workload": self.workload,
            "platform": self.platform,
            "latency_s": self.latency_s,
            "energy_j": self.energy.total_j,
            "offchip_bytes": self.offchip_bytes,
            "combination": jsonable(dataclasses.asdict(self.combination)),
            "aggregation": jsonable(dataclasses.asdict(self.aggregation)),
            "nodes": {
                name: jsonable(dataclasses.asdict(report))
                for name, report in self.node_reports
            },
            "node_pes": dict(self.node_pes),
            "notes": dict(self.notes),
        }


def full_pe_array(settings: PipelineSettings) -> PEArray:
    """The shared array the DAG's levels slice (Tab. V x ``hw_scale``)."""
    from repro.hardware.accelerators.gcod import gcod_pe_count
    from repro.hardware.pe import PEArray

    if settings.bits not in DEFAULT_PES:
        raise ConfigError(
            f"workload evaluation supports bits in "
            f"{sorted(DEFAULT_PES)}, got {settings.bits!r}"
        )
    return PEArray(gcod_pe_count(settings.bits, settings.hw_scale),
                   GCOD_CLOCK_HZ)


def evaluate_workload(
    graph: WorkloadGraph,
    context,
    settings: Optional[PipelineSettings] = None,
) -> WorkloadGraphReport:
    """Extract, map and cost every node, then merge the reports.

    Each node's workload comes from ``settings.extract_fn`` (default: the
    context's GCoD pipeline), cut to its layer range, and is costed on a
    :class:`GCoDAccelerator` of its PE slice. Nodes of one topological
    level run concurrently on slices of the shared PE array (``share``
    fractions, normalized by :meth:`PEArray.allocate`); the level's
    latency is the slowest node's.
    Sequential levels sum. Traffic and energy add across all nodes.
    """
    from repro.hardware.accelerators.base import PhaseStats
    from repro.hardware.accelerators.gcod import GCoDAccelerator

    settings = settings or PipelineSettings()
    extract = settings.extract_fn or _trained_workload
    full = full_pe_array(settings)
    levels = graph.levels()

    comb = PhaseStats()
    agg = PhaseStats()
    latency = 0.0
    node_reports: List[Tuple[str, AcceleratorReport]] = []
    node_pes: List[Tuple[str, int]] = []
    notes: Dict[str, float] = {"levels": float(len(levels))}

    for level in levels:
        shares = [n.share if n.share is not None else 1.0 for n in level]
        slices = full.allocate(shares)
        level_latency = 0.0
        for node, pes in zip(level, slices):
            workload = slice_workload(extract(node, context), node)
            platform = GCoDAccelerator(
                bits=settings.bits,
                num_pes=pes.num_pes,
                tech_node=settings.tech_node,
            )
            report = platform.run(workload)
            node_reports.append((node.name, report))
            node_pes.append((node.name, pes.num_pes))
            notes[f"pes[{node.name}]"] = float(pes.num_pes)
            comb = comb + report.combination
            agg = agg + report.aggregation
            level_latency = max(level_latency, report.latency_s)
        latency += level_latency

    return WorkloadGraphReport(
        workload=graph.name,
        platform="gcod-8bit" if settings.bits == 8 else "gcod",
        combination=comb,
        aggregation=agg,
        latency_s=latency,
        node_reports=tuple(node_reports),
        node_pes=tuple(node_pes),
        notes=notes,
    )


__all__ = [
    "PipelineSettings",
    "WorkloadGraph",
    "WorkloadGraphReport",
    "WorkloadNode",
    "evaluate_workload",
    "full_pe_array",
    "parse_workload",
    "slice_workload",
    "workload_from_json",
]
