"""Sweep run manifests: what a sweep planned, what it finished.

A :class:`SweepManifest` is written into the artifact store the moment a
sweep starts executing and records the full list of planned point digests
(grid order) alongside which of them are done. If the sweep dies mid-grid
— a worker raising :class:`~repro.runtime.runner.GCoDTaskError`, a SIGINT,
a pulled plug — the manifest survives, and ``repro sweep --resume``
reloads it to evaluate *exactly* the missing points.

Two design rules keep resume honest:

* the manifest's identity (its store key) is the grid plus the context
  knobs the point keys inherit — never the sweep's registered name — so a
  registered sweep and an ad-hoc ``--grid`` spelling of the same axes
  share one manifest;
* :meth:`SweepManifest.missing_indices` is computed against *store
  membership* of the point entries, not the manifest's own ``done`` list.
  The ``done`` list is advisory bookkeeping (refreshed in a ``finally``
  when the sweep unwinds); the store is the truth, so a
  process killed between a point write and a manifest update can never
  strand a completed point as "missing" forever — resume just skips it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.runtime.keys import (
    KIND_SWEEP,
    ArtifactKey,
    CODE_SCHEMA_VERSION,
    sweep_manifest_key,
)
from repro.runtime.store import ArtifactStore
from repro.sweep.spec import SweepSpec


@dataclasses.dataclass
class SweepManifest:
    """The planned/done ledger of one sweep execution (the stored artifact)."""

    sweep: str
    title: str
    axes: Tuple[Tuple[str, tuple], ...]
    #: planned point digests, in grid order.
    planned: List[str]
    #: human-readable point labels, same order (for progress/diagnostics).
    labels: List[str]
    #: digests observed complete (advisory; the store is the truth).
    done: List[str] = dataclasses.field(default_factory=list)
    complete: bool = False
    schema: int = CODE_SCHEMA_VERSION

    def missing_indices(self, store: ArtifactStore) -> List[int]:
        """Grid indices of planned points with no stored result."""
        return [
            i for i, digest in enumerate(self.planned)
            if not store.contains_digest(KIND_SWEEP, digest)
        ]

    def missing_labels(self, store: ArtifactStore) -> List[str]:
        """Labels of the missing points — what ``--resume`` will evaluate."""
        return [self.labels[i] for i in self.missing_indices(store)]

    def refresh(self, store: ArtifactStore) -> "SweepManifest":
        """Recompute ``done``/``complete`` from store membership."""
        missing = set(self.missing_indices(store))
        self.done = [
            digest for i, digest in enumerate(self.planned)
            if i not in missing
        ]
        self.complete = not missing
        return self

    def to_summary_dict(self) -> dict:
        """Scalar summary for cache-entry metadata (``repro cache ls``)."""
        return {
            "sweep": self.sweep,
            "points": len(self.planned),
            "done": len(self.done),
            "complete": self.complete,
        }


def manifest_key(context, spec: SweepSpec) -> ArtifactKey:
    """The store key of ``spec``'s manifest under ``context``."""
    return sweep_manifest_key(
        dict(spec.axes),
        context.profile,
        context.seed,
        context.kernel_backend,
        context.dataset_scales,
    )


def load_manifest(
    store: Optional[ArtifactStore], context, spec: SweepSpec
) -> Optional[SweepManifest]:
    """The stored manifest for (``context``, ``spec``), or ``None``."""
    if store is None:
        return None
    manifest = store.get(manifest_key(context, spec))
    return manifest if isinstance(manifest, SweepManifest) else None


def write_manifest(
    store: ArtifactStore, context, spec: SweepSpec, manifest: SweepManifest
) -> SweepManifest:
    """Persist ``manifest`` (atomic overwrite of any prior version)."""
    store.put(
        manifest_key(context, spec),
        manifest,
        summary=manifest.to_summary_dict(),
    )
    return manifest


def begin_manifest(
    store: ArtifactStore, context, spec: SweepSpec, points, keys, cached
) -> SweepManifest:
    """Open (or re-open) the manifest for a sweep that is about to execute.

    ``done`` starts as the planned points the store already holds — the
    set of grid indices ``cached``, which the plan has just checked — so
    an interrupted sweep's second run, with or without ``--resume``,
    begins from an accurate ledger without asking the store again. When
    the store already holds an equal manifest (a re-run of a finished
    sweep), nothing is written.
    """
    planned = [key.digest for key in keys]
    manifest = SweepManifest(
        sweep=spec.name,
        title=spec.title,
        axes=spec.axes,
        planned=planned,
        labels=[point.label() for point in points],
        done=[digest for i, digest in enumerate(planned) if i in cached],
        complete=len(cached) == len(planned),
    )
    # contains() first, so a cold sweep, which has no manifest yet, makes
    # no extra get.
    if store.contains(manifest_key(context, spec)) and \
            load_manifest(store, context, spec) == manifest:
        return manifest
    return write_manifest(store, context, spec, manifest)
