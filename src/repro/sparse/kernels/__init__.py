"""Pluggable SpMM kernel backends.

The GCoD reproduction executes every GCN phase as SpMM, in one of the two
product orders the accelerator distinguishes (Fig. 7): row-wise product
(combination, CSR) and column-wise product (distributed aggregation, CSC).
The *hardware* models count traffic against those loop-order semantics; the
*numerics* are the same product either way, so how fast the arithmetic runs
is an implementation choice. This package makes that choice pluggable:

* ``reference`` — the original per-row / per-column Python loop kernels and
  ``np.ufunc.at`` scatter primitives, kept as ground truth;
* ``vectorized`` — fully batched kernels: product-order SpMM lowers to
  compiled CSR/CSC sparse-times-dense routines, scatter/gather segment
  reductions lower to ``bincount`` / selection-matrix products, and
  ``spmm_batch`` runs a whole list of (sparse, dense) pairs as one
  block-diagonal product without transposing anything;
* ``tiled`` — block-granular kernels mirroring the accelerator's chunk
  schedule: fixed-size row blocks / CSC column runs for the plain kernel
  families, and layout-driven execution (``tiled_spmm``) that follows a
  ``BlockLayout`` and returns a per-tile work profile (owner chunk, nnz,
  MACs, DMA bytes) next to the numbers.

Backends register by name; ``get_backend(None)`` returns the process-wide
default (``vectorized``). Everything downstream — ``GraphOps``, the training
loop, the GCoD pipeline, the functional emulator, the CLI — resolves its
backend through this registry, so ``--kernel-backend reference`` swaps the
arithmetic engine of the whole stack without touching the hardware model's
traffic accounting. CLI surfaces derive their choices from
:func:`backend_choices`; any other name raises :class:`KernelError`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import KernelError, ShapeError


def check_spmm_shapes(a_shape: Tuple[int, ...], b: np.ndarray) -> None:
    """Validate the dense operand of ``A @ B`` against ``A``'s shape."""
    if b.ndim != 2:
        raise ShapeError("dense operand must be 2-D")
    if a_shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a_shape} by {b.shape}: inner dims differ"
        )


class KernelBackend:
    """One implementation of the SpMM + segment-reduce kernel family.

    Sparse operands are anything with ``shape`` / ``indptr`` / ``indices`` /
    ``data`` attributes — both this package's :class:`~repro.sparse.csr.CSRMatrix`
    / :class:`~repro.sparse.csc.CSCMatrix` containers and scipy's
    ``csr_matrix`` / ``csc_matrix`` qualify, so callers never convert.
    """

    name: str = "abstract"

    # -- product-order SpMM kernels ------------------------------------
    def spmm_row_product(self, a, b: np.ndarray) -> np.ndarray:
        """Row-wise-product SpMM of a CSR operand (emit whole output rows)."""
        raise NotImplementedError

    def spmm_column_product(self, a, b: np.ndarray) -> np.ndarray:
        """Column-wise-product SpMM of a CSC operand (distributed aggregation)."""
        raise NotImplementedError

    def spmm(self, a, b: np.ndarray) -> np.ndarray:
        """Dispatch on storage format: CSR -> row order, CSC -> column order."""
        fmt = getattr(a, "format", None)
        if fmt == "csr" or _looks_like(a, "CSRMatrix"):
            return self.spmm_row_product(a, b)
        if fmt == "csc" or _looks_like(a, "CSCMatrix"):
            return self.spmm_column_product(a, b)
        if fmt is not None:  # other scipy formats: canonicalize to CSR
            return self.spmm_row_product(a.tocsr(), b)
        raise TypeError(f"unsupported sparse operand type {type(a).__name__}")

    def spmm_batch(
        self, mats: Sequence, denses: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """SpMM over paired (sparse, dense) operands, one output per pair."""
        if len(mats) != len(denses):
            raise ShapeError("spmm_batch needs one dense operand per matrix")
        return [self.spmm(a, b) for a, b in zip(mats, denses)]

    # -- segment primitives (the training-side scatter/gather family) --
    @staticmethod
    def check_segment_ids(segments, num_segments: int) -> np.ndarray:
        """``segments`` as int64, each id checked to lie in
        ``[0, num_segments)``: numpy would wrap ``-1`` onto the last
        segment and ``bincount`` would drop or grow past the end."""
        segments = np.asarray(segments, dtype=np.int64)
        if segments.size and not (
            0 <= segments.min() and segments.max() < num_segments
        ):
            raise IndexError(
                f"segment ids must lie in [0, {num_segments}); "
                f"got [{segments.min()}, {segments.max()}]"
            )
        return segments

    def segment_sum(
        self, values: np.ndarray, segments: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Sum rows of ``values`` into ``out[segments[e]]`` (1-D or 2-D)."""
        raise NotImplementedError

    def segment_max(
        self, values: np.ndarray, segments: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Per-segment elementwise max; empty segments stay ``-inf``."""
        segments = self.check_segment_ids(segments, num_segments)
        out = np.full((num_segments,) + values.shape[1:], -np.inf)
        np.maximum.at(out, segments, values)
        return out

    def coo_spmm(
        self,
        weights: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        x: np.ndarray,
        num_rows: int,
        order=None,
    ) -> np.ndarray:
        """Edge-weighted aggregation ``out[rows[e]] += weights[e] * x[cols[e]]``.

        ``order`` is the edge list's :class:`CSROrder` or ``None``; a
        backend that assembles a CSR matrix may reuse it instead of
        sorting the edges on every call, and any other may ignore it.
        """
        raise NotImplementedError


def _looks_like(a, cls_name: str) -> bool:
    # Avoid importing the containers here (they sit below this package).
    return type(a).__name__ == cls_name


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, KernelBackend] = {}
_DEFAULT_NAME = "vectorized"

BackendLike = Union[None, str, KernelBackend]


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry under ``backend.name``."""
    if not backend.name or backend.name == "abstract":
        raise KernelError("kernel backends must define a concrete name")
    _REGISTRY[backend.name] = backend
    return backend


def backend_choices() -> Tuple[str, ...]:
    """Every registered backend name, sorted. CLI ``choices=`` must use
    this, never a literal list."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: BackendLike = None) -> KernelBackend:
    """Resolve ``backend`` (name, instance, or None for the default)."""
    if backend is None:
        backend = _DEFAULT_NAME
    if isinstance(backend, KernelBackend):
        return backend
    if backend in _REGISTRY:
        return _REGISTRY[backend]
    raise KernelError(
        f"unknown kernel backend {backend!r}; "
        f"available: {', '.join(backend_choices())}"
    )


def default_backend() -> KernelBackend:
    """The backend used when callers do not name one."""
    return get_backend(None)


def set_default_backend(backend: Union[str, KernelBackend]) -> str:
    """Set the process-wide default backend; returns the previous name."""
    global _DEFAULT_NAME
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = get_backend(backend).name
    return previous


# Populate the registry (imports at the bottom to avoid cycles: the backend
# modules import the helpers defined above).
from repro.sparse.kernels.reference import ReferenceBackend  # noqa: E402
from repro.sparse.kernels.vectorized import (  # noqa: E402
    CSROrder,
    VectorizedBackend,
)
from repro.sparse.kernels.tiled import (  # noqa: E402
    TiledBackend,
    TileProfile,
    TileWork,
    layout_tile_profile,
    tiled_spmm,
)

register_backend(ReferenceBackend())
register_backend(VectorizedBackend())
register_backend(TiledBackend())

__all__ = [
    "BackendLike",
    "CSROrder",
    "KernelBackend",
    "ReferenceBackend",
    "TileProfile",
    "TileWork",
    "TiledBackend",
    "VectorizedBackend",
    "layout_tile_profile",
    "tiled_spmm",
    "backend_choices",
    "check_spmm_shapes",
    "default_backend",
    "get_backend",
    "register_backend",
    "set_default_backend",
]
