"""The sweep registry: named, reusable :class:`SweepSpec` instances.

Modules that own a design-space axis register their grid here (the Sec.
VI-C ablation registers ``ablation-cs``; the Tab. V module registers the
hardware-scale axis as ``tab05-scale``), and ``repro sweep <name>``
discovers them the same way ``repro report`` discovers experiments.
Ad-hoc grids (``repro sweep --grid ...``) bypass the registry entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import UnknownSweepError
from repro.sweep.spec import SweepSpec

_REGISTRY: Dict[str, SweepSpec] = {}


def register_sweep(spec: SweepSpec) -> SweepSpec:
    """Register ``spec`` under its name; returns it (decorator-friendly)."""
    _ensure_populated()
    if spec.name in _REGISTRY:
        raise ValueError(
            f"sweep {spec.name!r} is already registered; names must be unique"
        )
    _REGISTRY[spec.name] = spec
    return spec


def all_sweeps() -> List[SweepSpec]:
    """Every registered sweep, sorted by name."""
    _ensure_populated()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_sweep(name: str) -> SweepSpec:
    """The spec registered under ``name`` (raises UnknownSweepError)."""
    import difflib

    _ensure_populated()
    try:
        return _REGISTRY[name]
    except KeyError:
        close = difflib.get_close_matches(name, _REGISTRY, n=1, cutoff=0.6)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise UnknownSweepError(
            f"unknown sweep {name!r}{hint}; choose from "
            f"{', '.join(sorted(_REGISTRY)) or '(none registered)'}"
        ) from None


_populated = False


def _ensure_populated() -> None:
    # The builtin sweeps live next to the experiments they refactor
    # (ablation_cs, tab05_systems), so importing the experiments package
    # registers them. Same re-entrancy/failure discipline as the
    # experiment registry: flag set before the import, cleared on failure.
    global _populated
    if not _populated:
        _populated = True
        try:
            import repro.evaluation.experiments  # noqa: F401
        except BaseException:
            _populated = False
            raise
