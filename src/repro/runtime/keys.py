"""Stable, content-addressed cache keys for experiment artifacts.

Every artifact the runtime persists — generated graphs, GCoD pipeline
results, execution traces, rendered experiment results — is addressed by a
SHA-256 digest of a *canonical JSON payload* describing exactly what went
into producing it: dataset, generation scale, model architecture, the full
:class:`~repro.algorithm.config.GCoDConfig`, the kernel backend, the seed,
the evaluation profile, and :data:`CODE_SCHEMA_VERSION`.

The payload is built only from JSON primitives with sorted keys, so the
digest is stable across processes and machines (Python's randomized
``hash()`` is never involved). Bump :data:`CODE_SCHEMA_VERSION` whenever a
code change alters what any cached artifact *means* (pipeline numerics, the
``GCoDResult`` layout, experiment row formats): every existing cache entry
is then automatically invalidated because no new key can match it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

#: Version of the cached-artifact schema. Part of every cache key: bumping
#: it orphans (and therefore invalidates) all previously stored artifacts.
#: v2: SweepPointResult gained the multi-objective metric fields (per-phase
#: energy breakdowns, DRAM traffic, event-sim cycles).
#: v3: the `repro serve` wire dataclasses (ServeRequest/ServeResponse)
#: joined the serialized-shape set, and the `compiled` kernel tier gained
#: its own cache-key series (the fallback spelling still resolves to
#: `vectorized`, so only machines with numba mint new keys).
#: v4: budget-constrained DSE — SweepPoint gained `tech_node` (and the
#: point key a tech_node component), SweepPointResult gained
#: `tech_node`/`area_mm2`/`tdp_w`, so stored sweep artifacts changed
#: meaning and layout.
#: v5: workload DAGs — SweepPoint gained `workload`/`workload_scales`
#: (and the point key matching components), so a multi-model point and
#: the single-model point sharing its primary node can never collide.
#: v6: training reads node features as a sparse input and draws dropout
#: over its stored entries, so every trained artifact's numbers changed.
#: v7: `Graph.features` is a canonical CSR matrix, so stored graphs and
#: GCoD results changed layout (and stored models no longer carry
#: gradients).
#: v8: a store entry is one blob — its metadata header line, then the
#: pickled payload — instead of a `.pkl` beside a `.json` sidecar.
CODE_SCHEMA_VERSION = 8

#: Artifact kinds the store recognises (one subdirectory per kind).
KIND_GRAPH = "graph"
KIND_GCOD = "gcod"
KIND_TRACE = "trace"
KIND_EXPERIMENT = "experiment"
KIND_SWEEP = "sweep"
KIND_MANIFEST = "manifest"
#: work-ledger claim entries (atomic put-if-absent; not content-addressed
#: artifacts — they carry liveness metadata, not computation results).
KIND_CLAIM = "claim"

#: Every artifact kind, in store-listing order. CLI surfaces (the cache
#: ``--kind`` filter) derive their choices from this tuple — never a
#: hand-maintained list, which is how ``claim`` went missing from the
#: PR 6 help text (`repro lint`'s registry-sync rule now guards this).
ALL_KINDS = (
    KIND_GRAPH,
    KIND_GCOD,
    KIND_TRACE,
    KIND_EXPERIMENT,
    KIND_SWEEP,
    KIND_MANIFEST,
    KIND_CLAIM,
)

#: The cache-key coverage contract, checked by `repro lint`'s
#: key-coverage rule: for each key-relevant dataclass, every field must
#: appear in exactly one of these tuples. ``covered`` fields reach the
#: digest (GCoDConfig travels wholesale through :func:`jsonable` in
#: :func:`gcod_key`/:func:`sweep_point_key`; SweepSpec contributes its
#: ``axes`` to :func:`sweep_manifest_key`); ``exempt`` fields are
#: consciously presentation-only (a sweep's registered name and title
#: must NOT enter the manifest key — `--grid` spellings of the same axes
#: resume the same manifest). Adding a dataclass field without extending
#: this declaration (and bumping :data:`CODE_SCHEMA_VERSION`) is a lint
#: error — the exact regression that once served stale entries when memo
#: keys missed ``kernel_backend``/``scale``/``seed``. Must stay a pure
#: literal: the lint rule reads it from source without importing.
KEY_FIELD_COVERAGE = {
    "GCoDConfig": {
        "covered": (
            "num_classes",
            "num_groups",
            "num_subgraphs",
            "pretrain_epochs",
            "early_bird",
            "early_bird_threshold",
            "early_bird_patience",
            "early_bird_prune_ratio",
            "prune_ratio",
            "pola_weight",
            "admm_rho",
            "admm_iterations",
            "admm_inner_steps",
            "admm_lr",
            "protect_connectivity",
            "patch_threshold",
            "patch_size",
            "off_diagonal_only",
            "retrain_epochs",
            "lr",
            "weight_decay",
            "seed",
            "kernel_backend",
        ),
        "exempt": (),
    },
    "SweepSpec": {
        "covered": ("axes",),
        "exempt": ("name", "title", "description"),
    },
    # Every SweepPoint field reaches sweep_point_key — the whole point of
    # the dataclass is to be the digest's input, so nothing is exempt.
    "SweepPoint": {
        "covered": (
            "dataset", "arch", "scale", "seed", "profile",
            "config", "kernel_backend", "bits", "hw_scale",
            "tech_node", "axes", "workload", "workload_scales",
        ),
        "exempt": (),
    },
}


#: Types :func:`jsonable` returns unchanged. Exact types only: a subclass
#: (``np.float64`` is a ``float``, an ``IntEnum`` an ``int``) takes the
#: general path below.
_PRIMITIVES = frozenset((str, int, float, bool, type(None)))


def jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-stable primitives.

    Handles dataclasses, dicts (keys coerced to ``str``), sequences, and
    numpy scalars; anything else must already be a JSON primitive. A
    dataclass becomes a dict of its fields, in field order, as with
    :func:`dataclasses.asdict`, but without deep-copying every field
    first (key building calls this on every sweep point).
    """
    cls = type(obj)
    if cls in _PRIMITIVES:
        return obj
    if dataclasses.is_dataclass(cls):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(cls)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        # numpy scalar: unwrap to the native Python number. Real arrays
        # (ndim > 0) are rejected below — silently unwrapping a size-1
        # array would make array([x]) and x hash identically.
        if getattr(obj, "ndim", 0) == 0:
            return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot build a stable cache key from {type(obj).__name__}")


def canonical_json(payload: Any) -> str:
    """The canonical (sorted-keys, no-whitespace) JSON form of ``payload``."""
    return dumps_canonical(jsonable(payload))


def dumps_canonical(walked: Any) -> str:
    """:func:`canonical_json` of what :func:`jsonable` already returned."""
    return json.dumps(walked, sort_keys=True, separators=(",", ":"))


def stable_hash(payload: Any) -> str:
    """SHA-256 of the canonical JSON of ``payload``, already JSON-native."""
    return hashlib.sha256(dumps_canonical(payload).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class ArtifactKey:
    """A content address: artifact kind + digest (+ the payload behind it)."""

    kind: str
    digest: str
    payload: Dict[str, Any] = dataclasses.field(compare=False, hash=False)

    @property
    def short(self) -> str:
        return f"{self.kind}/{self.digest[:12]}"


def _resolve_backend_name(kernel_backend: Optional[str]) -> str:
    """Resolve ``None`` to the process-wide default backend's name.

    Two runs that differ only in *how they spelled* the default backend
    (``None`` vs ``"vectorized"``) produce identical numbers and must share
    cache entries.
    """
    from repro.sparse.kernels import get_backend

    return get_backend(kernel_backend).name


def make_key(kind: str, **components: Any) -> ArtifactKey:
    """Build an :class:`ArtifactKey` for ``kind`` from ``components``."""
    payload = dict(components)
    payload["kind"] = kind
    payload["schema"] = CODE_SCHEMA_VERSION
    payload = jsonable(payload)
    return ArtifactKey(kind=kind, digest=stable_hash(payload), payload=payload)


def graph_key(
    dataset: str, scale: Optional[float], seed: int
) -> ArtifactKey:
    """Key for a generated :class:`~repro.graphs.graph.Graph`."""
    return make_key(KIND_GRAPH, dataset=dataset, scale=scale, seed=seed)


def gcod_key(
    dataset: str,
    scale: Optional[float],
    arch: str,
    config: Any,
    kernel_backend: Optional[str],
    seed: int,
    profile: str,
) -> ArtifactKey:
    """Key for a :class:`~repro.algorithm.pipeline.GCoDResult`."""
    backend = _resolve_backend_name(kernel_backend)
    config_payload = jsonable(config)
    if isinstance(config_payload, dict) and "kernel_backend" in config_payload:
        # Normalize the config's backend spelling too: a config saying
        # ``None`` (process default) and one naming the default explicitly
        # produce identical numbers, so they must share a digest.
        config_payload["kernel_backend"] = _resolve_backend_name(
            config_payload["kernel_backend"]
        )
    return make_key(
        KIND_GCOD,
        dataset=dataset,
        scale=scale,
        arch=arch,
        config=config_payload,
        kernel_backend=backend,
        seed=seed,
        profile=profile,
    )


def trace_key(gcod: ArtifactKey) -> ArtifactKey:
    """Key for the measured first-layer execution trace of a GCoD run."""
    return make_key(KIND_TRACE, gcod_digest=gcod.digest)


def sweep_point_key(
    dataset: str,
    scale: Optional[float],
    arch: str,
    config: Any,
    kernel_backend: Optional[str],
    seed: int,
    profile: str,
    bits: int,
    hw_scale: float,
    tech_node: int,
    axes: Dict[str, Any],
    workload: Optional[str] = None,
    workload_scales: Any = (),
) -> ArtifactKey:
    """Key for one evaluated design point of a ``repro sweep``.

    The payload covers everything the point's metrics depend on — the full
    training config (backend spellings normalized exactly like
    :func:`gcod_key`), the platform variant (``bits``, ``hw_scale``,
    ``tech_node``) — plus the raw axis values, because two points may
    share a resolved config (e.g. ``S`` clamped up to ``C``) while
    reporting different coordinates. Multi-model points additionally
    carry the canonical workload-DAG shorthand and the per-dataset
    generation scales every node trained at — without the scales, two
    contexts generating ``citeseer`` at different sizes would collide on
    the key minted from the primary node alone.
    """
    backend = _resolve_backend_name(kernel_backend)
    config_payload = jsonable(config)
    if isinstance(config_payload, dict) and "kernel_backend" in config_payload:
        config_payload["kernel_backend"] = _resolve_backend_name(
            config_payload["kernel_backend"]
        )
    return make_key(
        KIND_SWEEP,
        dataset=dataset,
        scale=scale,
        arch=arch,
        config=config_payload,
        kernel_backend=backend,
        seed=seed,
        profile=profile,
        bits=bits,
        hw_scale=float(hw_scale),
        tech_node=int(tech_node),
        axes=dict(sorted(axes.items())),
        workload=workload,
        workload_scales=dict(sorted(dict(workload_scales).items())),
    )


def sweep_manifest_key(
    axes: Any,
    profile: str,
    seed: int,
    kernel_backend: Optional[str],
    dataset_scales: Dict[str, float],
) -> ArtifactKey:
    """Key for a sweep's run manifest (planned/done point digests).

    The manifest's identity is the *grid* plus everything the point keys
    inherit from the context — deliberately **not** the sweep's registered
    name, so ``repro sweep ablation-cs --resume`` and an ad-hoc ``--grid``
    spelling of the same axes resume the same manifest.
    """
    return make_key(
        KIND_MANIFEST,
        axes=jsonable(axes),
        profile=profile,
        seed=seed,
        kernel_backend=_resolve_backend_name(kernel_backend),
        dataset_scales=dict(sorted(dataset_scales.items())),
    )


def experiment_key(
    name: str,
    profile: str,
    seed: int,
    kernel_backend: Optional[str],
    dataset_scales: Dict[str, float],
) -> ArtifactKey:
    """Key for a rendered :class:`~repro.evaluation.context.ExperimentResult`."""
    return make_key(
        KIND_EXPERIMENT,
        name=name,
        profile=profile,
        seed=seed,
        kernel_backend=_resolve_backend_name(kernel_backend),
        dataset_scales=dict(sorted(dataset_scales.items())),
    )


__all__: Tuple[str, ...] = (
    "ALL_KINDS",
    "CODE_SCHEMA_VERSION",
    "KEY_FIELD_COVERAGE",
    "KIND_CLAIM",
    "KIND_EXPERIMENT",
    "KIND_GCOD",
    "KIND_GRAPH",
    "KIND_MANIFEST",
    "KIND_SWEEP",
    "KIND_TRACE",
    "ArtifactKey",
    "canonical_json",
    "dumps_canonical",
    "experiment_key",
    "gcod_key",
    "graph_key",
    "jsonable",
    "make_key",
    "stable_hash",
    "sweep_manifest_key",
    "sweep_point_key",
    "trace_key",
)
