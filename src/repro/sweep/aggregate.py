"""Sweep aggregation: long-form tables and N-dimensional Pareto frontiers.

The long-form table has one row per grid point — the declared axis
coordinates first (in axis order), then the canonical metric columns — so
it loads straight into pandas/R as tidy data via
:meth:`~repro.evaluation.context.ExperimentResult.to_csv`.

The Pareto helpers reduce the same results to the designs worth looking
at, under a *selectable objective set* (``--objectives speedup,energy,
dram``): each :class:`Objective` names a :class:`SweepPointResult` metric
and whether it is maximized or minimized, and :func:`pareto_frontier`
computes the non-dominated set under N-dimensional dominance. The default
pair (speedup over AWB-GCN, accuracy) reproduces the 2-D frontier the
engine has always reported, byte for byte.

Two optional layers ride on top:

* **budget constraints** (:mod:`repro.sweep.constraints`) — with a
  ``--constrain`` set, the frontier is computed over the
  constraint-feasible subset of the grid; the long form keeps every
  point and flags each in a ``feasible`` column;
* **seed variance** — when the grid sweeps a ``seed`` axis,
  :func:`seed_variance_result` groups points that differ only in seed
  and reports a mean/std column pair for every metric, so frontier
  winners carry error bars.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.evaluation.context import ExperimentResult
from repro.sweep.constraints import (
    ConstraintsLike,
    describe_constraints,
    is_feasible,
    resolve_constraints,
)
from repro.sweep.engine import SweepPointResult
from repro.sweep.spec import SweepSpec

#: Metric columns appended after the axis coordinates, in table order.
METRIC_HEADERS = (
    "speedup vs awb",
    "BW reduction vs hygcn",
    "accuracy %",
    "balance",
    "latency (ms)",
    "energy (mJ)",
    "dram (MB)",
    "agg sim kcycles",
    "dma util",
    "area (mm2)",
    "power (W)",
)


@dataclasses.dataclass(frozen=True)
class Objective:
    """One Pareto objective: a point metric plus an optimization sense."""

    name: str
    #: the :class:`SweepPointResult` attribute holding the metric.
    attr: str
    #: +1 to maximize, -1 to minimize.
    sense: int
    #: how the frontier's extra text names it (grammar: fits "Pareto-
    #: optimal on (<describe>, <describe>)").
    describe: str

    def score(self, result: SweepPointResult) -> float:
        """The sense-adjusted value: dominance always maximizes scores."""
        return self.sense * float(getattr(result, self.attr))


#: The selectable objectives, keyed by CLI name.
OBJECTIVES = {
    obj.name: obj
    for obj in (
        Objective("speedup", "speedup_vs_awb", +1, "speedup vs AWB-GCN"),
        Objective("accuracy", "accuracy", +1, "accuracy"),
        Objective("energy", "gcod_energy_j", -1, "energy"),
        Objective("dram", "gcod_dram_bytes", -1, "DRAM traffic"),
        Objective("latency", "gcod_latency_s", -1, "latency"),
        Objective("bandwidth", "gcod_required_bw_gbps", -1,
                  "required bandwidth"),
        Objective("power", "tdp_w", -1, "TDP"),
        Objective("area", "area_mm2", -1, "silicon area"),
    )
}

#: What the frontier optimizes when no ``--objectives`` is given — the
#: original 2-D speedup/accuracy frontier.
DEFAULT_OBJECTIVES: Tuple[str, str] = ("speedup", "accuracy")

ObjectivesLike = Union[None, str, Sequence[Union[str, Objective]]]


def _unknown_objective_error(name: str) -> ConfigError:
    """Usage error for a bad ``--objectives`` name, with a near-miss hint.

    Mirrors the grid-axis and sweep-name UX: a case slip (``Energy``) or
    a one-edit-away spelling (``dram_bytes``) exits 2 with the intended
    name instead of a raw unknown-objective line.
    """
    from repro.errors import did_you_mean

    # prefix=True catches the unit/suffix slips: `dram_bytes`, `latency_ms`
    close = did_you_mean(name, OBJECTIVES, prefix=True)
    suggestion = f" (did you mean {close!r}?)" if close else ""
    return ConfigError(
        f"unknown objective {name!r}{suggestion}; choose from "
        f"{', '.join(OBJECTIVES)}"
    )


def resolve_objectives(objectives: ObjectivesLike) -> Tuple[Objective, ...]:
    """Normalize an objective selection into :class:`Objective` instances.

    Accepts ``None`` (the default pair), a comma-separated CLI string, or a
    sequence of names/instances. Unknown names raise :class:`ConfigError`
    naming the known set (the CLI turns that into exit code 2), as do empty
    and duplicate selections — a repeated objective would silently degrade
    the frontier to a lower dimension.
    """
    if objectives is None:
        objectives = DEFAULT_OBJECTIVES
    if isinstance(objectives, str):
        objectives = [o.strip() for o in objectives.split(",") if o.strip()]
    resolved: List[Objective] = []
    for obj in objectives:
        if isinstance(obj, Objective):
            resolved.append(obj)
            continue
        if obj not in OBJECTIVES:
            raise _unknown_objective_error(obj)
        resolved.append(OBJECTIVES[obj])
    if not resolved:
        raise ConfigError(
            f"--objectives selected nothing; choose from "
            f"{', '.join(OBJECTIVES)}"
        )
    names = [o.name for o in resolved]
    if len(set(names)) != len(names):
        raise ConfigError(f"--objectives repeats a name: {', '.join(names)}")
    return tuple(resolved)


def dominates(
    p: SweepPointResult,
    q: SweepPointResult,
    objectives: ObjectivesLike = None,
) -> bool:
    """True when ``p`` Pareto-dominates ``q`` under ``objectives``.

    Dominance is the strict product order on sense-adjusted scores: ``p``
    is at least as good on every objective and strictly better on at least
    one. It is irreflexive, asymmetric, and transitive — a strict partial
    order (property-tested in ``tests/sweep/test_pareto_properties.py``).
    """
    objs = resolve_objectives(objectives)
    return _dominates(tuple(o.score(p) for o in objs),
                      tuple(o.score(q) for o in objs))


def _dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    return all(x >= y for x, y in zip(a, b)) and any(
        x > y for x, y in zip(a, b)
    )


def pareto_frontier(
    results: Sequence[SweepPointResult],
    objectives: ObjectivesLike = None,
    constraints: ConstraintsLike = None,
) -> List[SweepPointResult]:
    """The non-dominated set under the selected objectives.

    A point survives unless another point dominates it; exact ties all
    survive. The frontier is returned sorted by descending score on the
    first objective, then the second, ..., then grid order — a
    deterministic walk along the trade-off surface. The *membership* of
    the frontier is invariant under permutation of the points and of the
    objective columns; only this walk order depends on them.

    With ``constraints``, the frontier is computed over the
    constraint-feasible subset: infeasible points neither appear on nor
    dominate the frontier — the budgeted answer is the best of what can
    actually be built. When every constraint bounds a *minimized
    objective* from above (``--objectives speedup,energy --constrain
    "energy<=x"``), this coincides exactly with post-hoc filtering of
    the unconstrained frontier, because any dominator of a feasible
    point is then itself feasible.
    """
    objs = resolve_objectives(objectives)
    cons = resolve_constraints(constraints)
    scored = [
        (i, r, tuple(o.score(r) for o in objs))
        for i, r in enumerate(results)
        if not cons or is_feasible(r, cons)
    ]
    # Walk order first: anything that dominates a point sorts before it,
    # and dominance is transitive, so a point is dominated iff a point
    # already on the frontier dominates it.
    scored.sort(key=lambda irs: tuple(-v for v in irs[2]) + (irs[0],))
    frontier: List[Tuple[SweepPointResult, Tuple[float, ...]]] = []
    for _, r, s in scored:
        if not any(_dominates(other, s) for _, other in frontier):
            frontier.append((r, s))
    return [r for r, _ in frontier]


def _metric_cells(r: SweepPointResult) -> tuple:
    return (
        round(r.speedup_vs_awb, 2),
        f"{r.bw_reduction_vs_hygcn * 100:.0f}%",
        round(r.accuracy * 100, 1),
        round(r.balance, 3),
        # 4-significant-digit strings: micro-scale latencies would render
        # as 0.00 under the table's fixed two-decimal float format.
        f"{r.gcod_latency_s * 1e3:.4g}",
        f"{r.gcod_energy_j * 1e3:.4g}",
        f"{r.gcod_dram_bytes / 2**20:.4g}",
        f"{r.agg_sim_cycles / 1e3:.4g}",
        round(r.agg_dma_utilization, 3),
        f"{r.area_mm2:.4g}",
        f"{r.tdp_w:.4g}",
    )


def long_form_result(
    spec: SweepSpec,
    results: Sequence[SweepPointResult],
    constraints: ConstraintsLike = None,
) -> ExperimentResult:
    """The whole grid as one tidy table (grid order preserved).

    With ``constraints``, every point stays in the table — infeasible
    ones included, they document the boundary — and a trailing
    ``feasible`` column flags each.
    """
    cons = resolve_constraints(constraints)
    headers = spec.axis_names + METRIC_HEADERS
    if cons:
        headers = headers + ("feasible",)
    rows = []
    feasible_n = 0
    for r in results:
        row = tuple(value for _, value in r.axes) + _metric_cells(r)
        if cons:
            ok = is_feasible(r, cons)
            feasible_n += ok
            row = row + ("yes" if ok else "no",)
        rows.append(row)
    speedups = [r.speedup_vs_awb for r in results]
    accs = [r.accuracy for r in results]
    extra = (
        f"{len(results)} design points; speedup over AWB-GCN in "
        f"[{min(speedups):.2f}, {max(speedups):.2f}]; accuracy in "
        f"[{min(accs) * 100:.1f}%, {max(accs) * 100:.1f}%]."
    )
    if cons:
        extra += (
            f" {feasible_n} of {len(results)} satisfy "
            f"{describe_constraints(cons)}."
        )
    return ExperimentResult(
        name=f"Sweep: {spec.title}",
        headers=headers,
        rows=rows,
        extra_text=extra,
    )


def pareto_result(
    spec: SweepSpec,
    results: Sequence[SweepPointResult],
    objectives: ObjectivesLike = None,
    constraints: ConstraintsLike = None,
) -> ExperimentResult:
    """The Pareto frontier as a table (same columns as the long form)."""
    objs = resolve_objectives(objectives)
    cons = resolve_constraints(constraints)
    frontier = pareto_frontier(results, objs, cons)
    headers = spec.axis_names + METRIC_HEADERS
    rows = [
        tuple(value for _, value in r.axes) + _metric_cells(r)
        for r in frontier
    ]
    if cons:
        feasible_n = sum(1 for r in results if is_feasible(r, cons))
        extra = (
            f"{len(frontier)} of {feasible_n} feasible design points "
            f"({len(results)} in the grid) are Pareto-optimal on "
            f"({', '.join(o.describe for o in objs)}) under "
            f"{describe_constraints(cons)}."
        )
    else:
        extra = (
            f"{len(frontier)} of {len(results)} design points are "
            f"Pareto-optimal on ({', '.join(o.describe for o in objs)})."
        )
    return ExperimentResult(
        name=f"Pareto frontier: {spec.title}",
        headers=headers,
        rows=rows,
        extra_text=extra,
    )


#: The metric columns of the seed-variance table: (column stem, result
#: attribute). Every numeric metric a point reports gets a mean/std pair
#: — with a single seed the mean is the exact point value and the
#: (population) std is exactly 0.
VARIANCE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("speedup", "speedup_vs_awb"),
    ("bw_reduction", "bw_reduction_vs_hygcn"),
    ("accuracy", "accuracy"),
    ("balance", "balance"),
    ("latency_s", "gcod_latency_s"),
    ("energy_j", "gcod_energy_j"),
    ("dram_bytes", "gcod_dram_bytes"),
    ("bandwidth_gbps", "gcod_required_bw_gbps"),
    ("agg_cycles", "agg_sim_cycles"),
    ("dma_util", "agg_dma_utilization"),
    ("area_mm2", "area_mm2"),
    ("tdp_w", "tdp_w"),
)


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and *population* std (ddof=0): one sample has std exactly 0."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def seed_variance_result(
    spec: SweepSpec, results: Sequence[SweepPointResult]
) -> Optional[ExperimentResult]:
    """Per-point-group mean/std over the ``seed`` axis (error bars).

    Groups points that share every non-seed coordinate, in grid order,
    and reports a ``<metric> mean`` / ``<metric> std`` column pair for
    every metric. Returns ``None`` when the grid has no ``seed`` axis —
    a single-seed sweep has nothing to aggregate.
    """
    if "seed" not in spec.axis_names:
        return None
    group_axes = tuple(n for n in spec.axis_names if n != "seed")
    groups: Dict[tuple, List[SweepPointResult]] = {}
    for r in results:
        key = tuple(r.coord(a) for a in group_axes)
        groups.setdefault(key, []).append(r)
    headers = group_axes + ("seeds",) + tuple(
        f"{stem} {stat}"
        for stem, _ in VARIANCE_METRICS
        for stat in ("mean", "std")
    )
    rows = []
    for key, members in groups.items():
        cells: List[object] = list(key) + [len(members)]
        for _, attr in VARIANCE_METRICS:
            mean, std = _mean_std(
                [float(getattr(m, attr)) for m in members]
            )
            cells += [f"{mean:.6g}", f"{std:.6g}"]
        rows.append(tuple(cells))
    n_seeds = max(len(m) for m in groups.values())
    extra = (
        f"{len(groups)} point groups x up to {n_seeds} seed(s); std is "
        f"the population standard deviation (exactly 0 for one seed)."
    )
    return ExperimentResult(
        name=f"Seed variance: {spec.title}",
        headers=headers,
        rows=rows,
        extra_text=extra,
    )


def sweep_report_text(
    spec: SweepSpec,
    results: Sequence[SweepPointResult],
    objectives: ObjectivesLike = None,
    constraints: ConstraintsLike = None,
) -> str:
    """The printable ``repro sweep`` document: long form + frontier.

    A ``seed`` axis adds the variance table between the two; a
    constraint set threads into both standard tables.
    """
    parts = [f"# Sweep: {spec.name}", ""]
    if spec.description:
        parts += [spec.description, ""]
    parts += [long_form_result(spec, results, constraints).render()]
    variance = seed_variance_result(spec, results)
    if variance is not None:
        parts += ["", variance.render()]
    parts += ["", pareto_result(spec, results, objectives,
                                constraints).render()]
    return "\n".join(parts) + "\n"
