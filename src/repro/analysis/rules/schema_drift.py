"""Rules ``schema-drift`` / ``schema-golden-stale``: shapes vs version.

Every artifact in the store is a pickled dataclass; every cache key
embeds ``CODE_SCHEMA_VERSION``. The contract (runtime/keys.py): change
what a cached artifact *means* — its dataclass layout — and you bump the
version so stale entries orphan themselves. Nothing enforced that until
now: a field added to ``SweepPointResult`` without a bump silently
unpickles old entries into the new layout.

The enforcement is a golden fingerprint. ``schema_golden.json`` (checked
in next to this package) records a SHA-256 over the *source-level
shapes* — field names, annotations, defaults — of every dataclass that
gets serialized, together with the ``CODE_SCHEMA_VERSION`` current when
it was written. Two rules fall out:

* ``schema-drift`` — the shapes changed but the version did not: the
  exact bug class this guards. Fails until ``CODE_SCHEMA_VERSION`` is
  bumped.
* ``schema-golden-stale`` — the version was bumped but the golden file
  was not regenerated: run ``repro lint --write-golden`` so the *next*
  drift is measured against the new shapes (otherwise a second change
  could ride the same bump forever).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    dataclass_fields,
    find_class,
    literal_dict,
)
from repro.runtime.keys import stable_hash

#: Where the golden fingerprint lives, relative to the package root.
GOLDEN_REL = "analysis/schema_golden.json"

#: The serialized dataclasses: everything pickled into the store or
#: written as a machine-readable document, keyed by defining module.
SERIALIZED_SHAPES: Dict[str, Tuple[str, ...]] = {
    "graphs/graph.py": ("Graph",),
    "algorithm/config.py": ("GCoDConfig",),
    "algorithm/pipeline.py": ("GCoDResult",),
    "sweep/spec.py": ("SweepSpec", "SweepPoint"),
    "sweep/engine.py": ("SweepPointResult",),
    "sweep/manifest.py": ("SweepManifest",),
    "evaluation/context.py": ("ExperimentResult",),
    "runtime/store.py": ("StoreEntry",),
    "serve/schema.py": ("ServeRequest", "ServeResponse"),
    "hardware/pipeline.py": (
        "WorkloadNode",
        "WorkloadGraph",
        "WorkloadGraphReport",
    ),
}


def collect_shapes(ctx: LintContext) -> Optional[Dict[str, List]]:
    """The source-level field shapes of every serialized dataclass.

    Returns ``None`` on a partial tree (any declared module missing):
    a fingerprint over a subset would spuriously differ from the golden.
    """
    shapes: Dict[str, List] = {}
    for module_rel, class_names in SERIALIZED_SHAPES.items():
        src = ctx.get(module_rel)
        if src is None:
            return None
        for cls_name in class_names:
            node = find_class(src, cls_name)
            if node is None:
                return None
            shapes[cls_name] = [
                list(triple) for triple in dataclass_fields(node)
            ]
    return shapes


def fingerprint(shapes: Dict[str, List]) -> str:
    """Stable digest of the shape map (sorted-keys canonical JSON)."""
    return stable_hash(shapes)


def current_schema_version(ctx: LintContext) -> Optional[int]:
    keys_src = ctx.get("runtime/keys.py")
    if keys_src is None:
        return None
    version = literal_dict(keys_src, "CODE_SCHEMA_VERSION")
    return version if isinstance(version, int) else None


def golden_path(ctx: LintContext) -> str:
    return os.path.join(ctx.root, *GOLDEN_REL.split("/"))


def load_golden(ctx: LintContext) -> Optional[Dict]:
    try:
        with open(golden_path(ctx), "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def write_golden(ctx: LintContext) -> Optional[str]:
    """Regenerate the golden file from the current tree; returns its path.

    Called by ``repro lint --write-golden``. Returns ``None`` on a
    partial tree (nothing sensible to record).
    """
    shapes = collect_shapes(ctx)
    version = current_schema_version(ctx)
    if shapes is None or version is None:
        return None
    path = golden_path(ctx)
    payload = {
        "schema_version": version,
        "fingerprint": fingerprint(shapes),
        # the shapes ride along so a failing diff can say *what* moved
        "shapes": shapes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _shape_diff(old: Dict[str, List], new: Dict[str, List]) -> str:
    """A one-line summary of which classes/fields changed."""
    parts = []
    for cls in sorted(set(old) | set(new)):
        if cls not in old:
            parts.append(f"{cls} (new class)")
        elif cls not in new:
            parts.append(f"{cls} (removed)")
        elif old[cls] != new[cls]:
            old_names = {f[0] for f in old[cls]}
            new_names = {f[0] for f in new[cls]}
            added = sorted(new_names - old_names)
            removed = sorted(old_names - new_names)
            bits = []
            if added:
                bits.append(f"+{', +'.join(added)}")
            if removed:
                bits.append(f"-{', -'.join(removed)}")
            if not bits:
                bits.append("annotations/defaults changed")
            parts.append(f"{cls} ({'; '.join(bits)})")
    return "; ".join(parts) or "shapes differ"


class SchemaDriftRule(Rule):
    id = "schema-drift"
    description = (
        "serialized-dataclass shapes must not change without a "
        "CODE_SCHEMA_VERSION bump (golden fingerprint)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        shapes = collect_shapes(ctx)
        version = current_schema_version(ctx)
        if shapes is None or version is None:
            return  # partial tree: structural rule needs all modules
        golden = load_golden(ctx)
        if golden is None:
            yield Finding(
                rule="schema-golden-stale",
                path=GOLDEN_REL,
                line=1,
                message="golden schema fingerprint file is missing or "
                        "unreadable",
                hint="run `repro lint --write-golden` and check the "
                     "regenerated file in",
            )
            return
        current = fingerprint(shapes)
        recorded = golden.get("fingerprint")
        recorded_version = golden.get("schema_version")
        if current == recorded:
            return
        diff = _shape_diff(golden.get("shapes", {}), shapes)
        if version == recorded_version:
            yield Finding(
                rule="schema-drift",
                path="runtime/keys.py",
                line=1,
                message=(
                    f"serialized dataclass shapes changed without a "
                    f"CODE_SCHEMA_VERSION bump (still {version}): {diff}"
                ),
                hint=(
                    "bump CODE_SCHEMA_VERSION in runtime/keys.py (old "
                    "cache entries then orphan themselves), then run "
                    "`repro lint --write-golden`"
                ),
            )
        else:
            yield Finding(
                rule="schema-golden-stale",
                path=GOLDEN_REL,
                line=1,
                message=(
                    f"CODE_SCHEMA_VERSION was bumped "
                    f"({recorded_version} -> {version}) but the golden "
                    f"fingerprint was not regenerated: {diff}"
                ),
                hint="run `repro lint --write-golden` and check the "
                     "regenerated file in, so the next drift is "
                     "measured against the new shapes",
            )
