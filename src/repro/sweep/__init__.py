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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".aggregate": ("DEFAULT_OBJECTIVES", "METRIC_HEADERS", "OBJECTIVES",
                   "VARIANCE_METRICS", "Objective", "dominates",
                   "long_form_result", "pareto_frontier", "pareto_result",
                   "resolve_objectives", "seed_variance_result",
                   "sweep_report_text"),
    ".constraints": ("CONSTRAINT_METRICS", "Constraint", "ConstraintMetric",
                     "describe_constraints", "is_feasible",
                     "parse_constraints", "resolve_constraints"),
    ".engine": ("SweepPlan", "SweepPointResult", "SweepRunReport",
                "execute_sweep", "plan_sweep", "run_sweep"),
    ".ledger": ("DEFAULT_CLAIM_TTL_S", "LedgerStats", "WorkLedger",
                "default_worker_id"),
    ".manifest": ("SweepManifest", "load_manifest", "manifest_key"),
    ".registry": ("all_sweeps", "get_sweep", "register_sweep"),
    ".spec": ("AXES", "SweepPoint", "SweepSpec", "expand", "parse_grid"),
})
