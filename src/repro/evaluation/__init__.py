"""Evaluation harness: one module per table/figure of the paper.

Every experiment module exposes ``run(...) -> ExperimentResult``; the
result carries structured rows plus a ``render()`` method that prints the
table/figure as monospace text. ``repro.evaluation.reference`` holds the
paper-reported values the "Headline shape checks" header of
:mod:`repro.evaluation.report` compares against.
"""

from repro._lazy import lazy_exports
from repro.evaluation import reference

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".context": ("EvalContext", "ExperimentResult", "default_context"),
}, own=("reference",))
