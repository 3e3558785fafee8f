"""Evaluation harness: one module per table/figure of the paper.

Every experiment module exposes ``run(...) -> ExperimentResult``; the
result carries structured rows plus a ``render()`` method that prints the
table/figure as monospace text. ``repro.evaluation.reference`` holds the
paper-reported values the "Headline shape checks" header of
:mod:`repro.evaluation.report` compares against.
"""

from repro.evaluation.context import (
    EvalContext,
    ExperimentResult,
    default_context,
)
from repro.evaluation import reference

__all__ = ["EvalContext", "ExperimentResult", "default_context", "reference"]
