"""Static analysis for the platform's structural invariants (`repro lint`).

The repo's correctness now rests on properties no test tier can fully
guard at runtime: byte-identical warm reruns, content-addressed keys
that cover every config field, schema versioning that tracks serialized
shapes, and store mutations that only flow through the atomic backend.
This package enforces them as composable AST passes over the ``repro``
source tree itself — stdlib ``ast`` only, no third-party deps, no import
of the code under analysis (so the same passes run over mutated scratch
copies in the test suite).

Layout:

* :mod:`repro.analysis.core` — the engine: parsed tree,
  :class:`~repro.analysis.core.Rule` plugin interface,
  :class:`~repro.analysis.core.Finding`, per-line
  ``# repro: lint-ok[rule-id]`` suppressions;
* :mod:`repro.analysis.rules` — the seven shipped passes (determinism,
  key-coverage, schema-drift, store-write, except-swallow,
  registry-sync, orphan);
* :mod:`repro.analysis.baseline` — grandfathered-finding bookkeeping;
* :mod:`repro.analysis.lint` — the ``repro lint`` entry point: rule
  selection, text/JSON output, exit codes (0 clean / 1 new findings /
  2 usage).
"""

from repro.analysis.baseline import (
    default_baseline_path,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    run_rules,
)
from repro.analysis.lint import LintReport, default_lint_root, lint_tree
from repro.analysis.rules import ALL_RULES, resolve_rules, rule_ids

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "default_baseline_path",
    "default_lint_root",
    "lint_tree",
    "load_baseline",
    "resolve_rules",
    "rule_ids",
    "run_rules",
    "split_by_baseline",
    "write_baseline",
]
