"""The rule registry: every shipped pass, discoverable by id.

Adding a rule is one module implementing
:class:`~repro.analysis.core.Rule` plus one entry in :data:`ALL_RULES`.
``repro lint --rules a,b`` selects a subset; unknown ids fail with the
house did-you-mean hint (exit code 2 via the CLI's ConfigError path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.core import Rule
from repro.analysis.rules.cache_keys import KeyCoverageRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exception_hygiene import ExceptionHygieneRule
from repro.analysis.rules.orphan import OrphanRule
from repro.analysis.rules.registry_sync import RegistrySyncRule
from repro.analysis.rules.schema_drift import SchemaDriftRule
from repro.analysis.rules.store_writes import StoreWriteRule

from repro.errors import ConfigError

#: Every shipped rule, in report order. The schema-drift pass owns two
#: finding ids (``schema-drift`` and ``schema-golden-stale``); selecting
#: either id runs the pass.
ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    KeyCoverageRule(),
    SchemaDriftRule(),
    StoreWriteRule(),
    ExceptionHygieneRule(),
    RegistrySyncRule(),
    OrphanRule(),
)

#: Selection ids -> the rule instance that produces them.
_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
_BY_ID["schema-golden-stale"] = _BY_ID["schema-drift"]


def rule_ids() -> Tuple[str, ...]:
    """The selectable rule ids, in report order."""
    return tuple(rule.id for rule in ALL_RULES)


def resolve_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Rule instances for ``names`` (all rules when ``None``).

    Accepts a comma-separated string or a sequence; unknown names raise
    :class:`ConfigError` with a near-miss suggestion, matching the
    sweep/objective selection UX.
    """
    if names is None:
        return list(ALL_RULES)
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    import difflib

    selected: Dict[str, Rule] = {}
    for name in names:
        rule = _BY_ID.get(name)
        if rule is None:
            by_fold = {rid.casefold(): rid for rid in _BY_ID}
            close = by_fold.get(name.casefold()) or next(
                iter(difflib.get_close_matches(name, _BY_ID, n=1,
                                               cutoff=0.6)),
                None,
            )
            hint = f" (did you mean {close!r}?)" if close else ""
            raise ConfigError(
                f"unknown lint rule {name!r}{hint}; choose from "
                f"{', '.join(rule_ids())}"
            )
        selected[rule.id] = rule
    if not selected:
        raise ConfigError(
            f"--rules selected nothing; choose from {', '.join(rule_ids())}"
        )
    return list(selected.values())


__all__ = [
    "ALL_RULES",
    "DeterminismRule",
    "ExceptionHygieneRule",
    "KeyCoverageRule",
    "OrphanRule",
    "RegistrySyncRule",
    "SchemaDriftRule",
    "StoreWriteRule",
    "resolve_rules",
    "rule_ids",
]
