"""Experiment runtime: artifact store, run counters, registry, runner.

This package is the substrate under ``repro report``:

* :mod:`repro.runtime.keys` — stable content-addressed cache keys
  (``CODE_SCHEMA_VERSION`` lives here);
* :mod:`repro.runtime.backends` — the :class:`StoreBackend` byte-blob
  interface the store sits on: :class:`LocalDirBackend` (the reference
  on-disk layout) and :class:`HTTPStoreBackend` (a served store shared
  across hosts, selected by an ``http(s)://`` locator);
* :mod:`repro.runtime.store` — the :class:`ArtifactStore` (one blob per
  entry, a JSON metadata line then the pickle, over whichever backend
  the locator names);
* :mod:`repro.runtime.server` — the stdlib HTTP object-store server
  behind ``repro store serve``;
* :mod:`repro.runtime.counters` — process-wide counters of real training
  runs (the zero-runs-when-warm guarantee is asserted against these);
* :mod:`repro.runtime.registry` — :class:`ExperimentSpec` descriptors that
  the report generator and CLI discover instead of hard-coding lists;
* :mod:`repro.runtime.runner` — the plan/execute split with ``--jobs N``
  process-pool GCoD warming (imported lazily: it pulls in the algorithm
  stack, which low-level users of the store/counters don't need).
"""

from repro.runtime.keys import (
    CODE_SCHEMA_VERSION,
    ArtifactKey,
    experiment_key,
    gcod_key,
    graph_key,
    stable_hash,
    sweep_manifest_key,
    sweep_point_key,
    trace_key,
)
from repro.runtime.backends import (
    HTTPStoreBackend,
    LocalDirBackend,
    StoreBackend,
    StoreBackendError,
    is_remote_locator,
    open_backend,
)
from repro.runtime.store import (
    STORE_URL_ENV,
    ArtifactStore,
    default_cache_dir,
)
from repro.runtime.registry import (
    ExperimentSpec,
    all_experiments,
    experiment_names,
    get_experiment,
    register_experiment,
    resolve_experiments,
)
from repro.runtime import counters

__all__ = [
    "CODE_SCHEMA_VERSION",
    "STORE_URL_ENV",
    "ArtifactKey",
    "ArtifactStore",
    "ExperimentSpec",
    "HTTPStoreBackend",
    "LocalDirBackend",
    "StoreBackend",
    "StoreBackendError",
    "all_experiments",
    "counters",
    "default_cache_dir",
    "experiment_key",
    "experiment_names",
    "gcod_key",
    "get_experiment",
    "graph_key",
    "is_remote_locator",
    "open_backend",
    "register_experiment",
    "resolve_experiments",
    "stable_hash",
    "sweep_manifest_key",
    "sweep_point_key",
    "trace_key",
]
