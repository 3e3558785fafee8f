"""Design-space sweeps over the GCoD cost model (``repro sweep``).

The declarative counterpart of the paper's Sec. VI-C ablation, generalized
the way `zigzag`-style DSE loops generalize a single cost-model query:

* :mod:`repro.sweep.spec` — :class:`SweepSpec` grids over dataset x arch x
  GCoD knobs (C, S, sparsity) x quantization bits x kernel backend x
  hardware scale, expanded into content-addressed :class:`SweepPoint`\\ s;
* :mod:`repro.sweep.engine` — the store-backed plan/execute flow (cached
  points skip; training runs and points drain through the one executor
  loop, serially, over ``--jobs`` pool children or under ledger claims);
* :mod:`repro.sweep.manifest` — the planned/done ledger behind
  ``repro sweep --resume``;
* :mod:`repro.sweep.ledger` — the claim-based work ledger that lets many
  workers on many hosts drain one grid through a shared store
  (``--store-url`` / ``--ledger``), exactly-once per live worker;
* :mod:`repro.sweep.aggregate` — long-form tidy tables, N-dimensional
  Pareto frontiers over selectable objectives (``--objectives
  speedup,energy,dram``), and seed-variance mean/std columns;
* :mod:`repro.sweep.constraints` — Lumos-style budget constraints
  (``--constrain "power<=5,area<=40"``) restricting the frontier to the
  feasible subset;
* :mod:`repro.sweep.registry` — named sweeps (``ablation-cs``,
  ``tab05-scale``, ``fig12-energy``) discovered by the CLI.
"""

from repro.sweep.aggregate import (
    DEFAULT_OBJECTIVES,
    METRIC_HEADERS,
    OBJECTIVES,
    VARIANCE_METRICS,
    Objective,
    dominates,
    long_form_result,
    pareto_frontier,
    pareto_result,
    resolve_objectives,
    seed_variance_result,
    sweep_report_text,
)
from repro.sweep.constraints import (
    CONSTRAINT_METRICS,
    Constraint,
    ConstraintMetric,
    describe_constraints,
    is_feasible,
    parse_constraints,
    resolve_constraints,
)
from repro.sweep.engine import (
    SweepPlan,
    SweepPointResult,
    SweepRunReport,
    execute_sweep,
    plan_sweep,
    run_sweep,
)
from repro.sweep.ledger import (
    DEFAULT_CLAIM_TTL_S,
    LedgerStats,
    WorkLedger,
    default_worker_id,
)
from repro.sweep.manifest import (
    SweepManifest,
    load_manifest,
    manifest_key,
)
from repro.sweep.registry import (
    all_sweeps,
    get_sweep,
    register_sweep,
)
from repro.sweep.spec import (
    AXES,
    SweepPoint,
    SweepSpec,
    expand,
    parse_grid,
)

__all__ = [
    "AXES",
    "CONSTRAINT_METRICS",
    "Constraint",
    "ConstraintMetric",
    "DEFAULT_CLAIM_TTL_S",
    "DEFAULT_OBJECTIVES",
    "LedgerStats",
    "METRIC_HEADERS",
    "OBJECTIVES",
    "Objective",
    "SweepManifest",
    "SweepPlan",
    "SweepPoint",
    "SweepPointResult",
    "SweepRunReport",
    "SweepSpec",
    "WorkLedger",
    "VARIANCE_METRICS",
    "all_sweeps",
    "default_worker_id",
    "describe_constraints",
    "dominates",
    "execute_sweep",
    "expand",
    "get_sweep",
    "is_feasible",
    "load_manifest",
    "long_form_result",
    "manifest_key",
    "pareto_frontier",
    "pareto_result",
    "parse_constraints",
    "parse_grid",
    "plan_sweep",
    "register_sweep",
    "resolve_constraints",
    "resolve_objectives",
    "run_sweep",
    "seed_variance_result",
    "sweep_report_text",
]
