"""The chunk-schedule kernel backend: block-granular SpMM with work profiles.

The GCoD accelerator never sees a whole adjacency matrix at once — the
denser branch consumes one diagonal subgraph block per chunk and the
sparser branch sweeps the off-diagonal remainder in CSC column runs
(Sec. V-B). This backend executes SpMM in exactly that granularity:

* every kernel-family call is tiled into fixed-size row blocks / column
  runs, each lowered to one compiled sparse-times-dense product, so the
  backend stays within 1e-12 of ``reference`` while running at
  ``vectorized``-class speed;
* :func:`tiled_spmm` follows a :class:`~repro.partition.layout.BlockLayout`
  instead of fixed-size tiles — one product per chunk's diagonal block plus
  a CSC column-run sweep over the remainder — and returns, next to the
  numeric result, a :class:`TileProfile`: the per-tile work list (``owner``
  chunk, ``nnz``, ``macs``, ``dma_bytes``) that the event simulator and the
  analytic model consume as the single source of truth for tile accounting.

The profile's byte costs mirror the event simulator's DMA units: dense
diagonal blocks stream block-local COO (8 bytes/nnz), the sparser remainder
streams CSC (one fewer index, 6 bytes/nnz).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.sparse.kernels import check_spmm_shapes
from repro.sparse.kernels.vectorized import (
    VectorizedBackend,
    _as_scipy_csc,
    _as_scipy_csr,
)

#: Rows / columns per tile when no layout dictates the block structure —
#: matches the event simulator's ~1024-column sparser-branch runs.
DEFAULT_TILE = 1024

#: Byte cost per nnz of a block-local COO stream (denser branch).
COO_BYTES_PER_NNZ = 8
#: Byte cost per nnz of a CSC column run (sparser branch, one fewer index).
CSC_BYTES_PER_NNZ = COO_BYTES_PER_NNZ - 2


@dataclass(frozen=True)
class TileWork:
    """One scheduled unit of SpMM work and its hardware cost."""

    owner: str  # "chunk<class>" for diagonal blocks, "sparse" for runs
    nnz: int
    macs: int
    dma_bytes: int


@dataclass
class TileProfile:
    """The per-tile work list of one block-granular SpMM execution."""

    tiles: List[TileWork] = field(default_factory=list)

    @property
    def total_nnz(self) -> int:
        """Non-zeros covered by all tiles (== the operand's nnz)."""
        return int(sum(t.nnz for t in self.tiles))

    @property
    def total_macs(self) -> int:
        """MACs across all tiles (== nnz * dense width)."""
        return int(sum(t.macs for t in self.tiles))

    @property
    def total_bytes(self) -> int:
        """DMA bytes across all tiles."""
        return int(sum(t.dma_bytes for t in self.tiles))

    def macs_by_owner(self) -> Dict[str, int]:
        """Total MACs per owning sub-accelerator."""
        out: Dict[str, int] = {}
        for t in self.tiles:
            out[t.owner] = out.get(t.owner, 0) + t.macs
        return out

    def chunk_balance(self) -> float:
        """mean/max MACs across denser chunks (1.0 = perfectly balanced)."""
        loads = np.array(
            [m for o, m in self.macs_by_owner().items() if o != "sparse"],
            dtype=float,
        )
        if loads.size == 0 or loads.max() == 0:
            return 1.0
        return float(loads.mean() / loads.max())


def _csr_row_block(csr: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Zero-copy view of rows ``[lo, hi)`` of a scipy CSR matrix."""
    p0, p1 = csr.indptr[lo], csr.indptr[hi]
    return sp.csr_matrix(
        (csr.data[p0:p1], csr.indices[p0:p1], csr.indptr[lo : hi + 1] - p0),
        shape=(hi - lo, csr.shape[1]),
        copy=False,
    )


def _csc_col_run(csc: sp.csc_matrix, lo: int, hi: int) -> sp.csc_matrix:
    """Zero-copy view of columns ``[lo, hi)`` of a scipy CSC matrix."""
    p0, p1 = csc.indptr[lo], csc.indptr[hi]
    return sp.csc_matrix(
        (csc.data[p0:p1], csc.indices[p0:p1], csc.indptr[lo : hi + 1] - p0),
        shape=(csc.shape[0], hi - lo),
        copy=False,
    )


def _as_square_scipy(adj) -> sp.csr_matrix:
    """Canonicalize a scipy matrix of any format (or a dense array) to CSR."""
    if sp.issparse(adj):
        return adj.tocsr()
    return sp.csr_matrix(adj)


def _profile_from_split(
    dense_csr: sp.csr_matrix,
    sparse_csc: sp.csc_matrix,
    layout,
    width: int,
    tile_columns: int,
    bytes_per_nnz: int,
) -> TileProfile:
    """Tile accounting read off an already-split adjacency.

    Per-span nnz is ``indptr[stop] - indptr[start]`` of the dense CSR
    (diagonal-block entries have both endpoints inside the span), per-run
    nnz the same difference on the sparse CSC — so the profile is derived
    from ``layout.split``'s partition, the single source of truth, and tile
    totals exactly equal the operand's nnz.
    """
    profile = TileProfile()
    row_ptr = dense_csr.indptr
    for span in layout.spans:
        nnz = int(row_ptr[span.stop] - row_ptr[span.start])
        profile.tiles.append(
            TileWork(
                owner=f"chunk{span.class_id}",
                nnz=nnz,
                macs=nnz * width,
                dma_bytes=nnz * bytes_per_nnz,
            )
        )
    col_ptr = sparse_csc.indptr
    n = sparse_csc.shape[1]
    for lo in range(0, max(n, 1), tile_columns):
        hi = min(lo + tile_columns, n)
        nnz = int(col_ptr[hi] - col_ptr[lo])
        profile.tiles.append(
            TileWork(
                owner="sparse",
                nnz=nnz,
                macs=nnz * width,
                dma_bytes=nnz * (bytes_per_nnz - 2),
            )
        )
    return profile


def layout_tile_profile(
    adj,
    layout,
    width: int,
    tile_columns: int = DEFAULT_TILE,
    bytes_per_nnz: int = COO_BYTES_PER_NNZ,
) -> TileProfile:
    """The :class:`TileProfile` of executing ``adj @ B`` under ``layout``.

    Pure accounting — no arithmetic. One tile per subgraph span (owner =
    its class's chunk, block-local nnz) plus one tile per
    ``tile_columns``-wide CSC column run of the off-diagonal remainder.
    """
    dense, sparse = layout.split(_as_square_scipy(adj))
    return _profile_from_split(
        dense.tocsr(), sparse.tocsc(), layout, width, tile_columns,
        bytes_per_nnz,
    )


def tiled_spmm(
    adj,
    b: np.ndarray,
    layout,
    tile_columns: int = DEFAULT_TILE,
    bytes_per_nnz: int = COO_BYTES_PER_NNZ,
) -> Tuple[np.ndarray, TileProfile]:
    """Execute ``adj @ b`` in block granularity following ``layout``.

    The accelerator's schedule, as arithmetic: each subgraph span's diagonal
    block is one block-local product into its own output rows (the denser
    branch), then the off-diagonal remainder is swept in CSC column runs
    (the sparser branch's distributed aggregation). Returns the numeric
    result together with the :class:`TileProfile` of the work performed.
    """
    a = _as_square_scipy(adj)
    check_spmm_shapes(a.shape, b)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeError("tiled_spmm needs a square adjacency operand")
    b = np.asarray(b, dtype=np.float64)
    dense, sparse = layout.split(a)
    out = np.zeros((n, b.shape[1]))

    dense_csr = dense.tocsr()
    for span in layout.spans:
        block = _csr_row_block(dense_csr, span.start, span.stop)
        if block.nnz:
            # Diagonal-block entries have both endpoints inside the span, so
            # the row block *is* the chunk's block-local product.
            out[span.start : span.stop] += block @ b

    sparse_csc = sparse.tocsc()
    for lo in range(0, max(n, 1), tile_columns):
        hi = min(lo + tile_columns, n)
        run = _csc_col_run(sparse_csc, lo, hi)
        if run.nnz:
            out += run @ b[lo:hi]

    profile = _profile_from_split(
        dense_csr, sparse_csc, layout, b.shape[1], tile_columns, bytes_per_nnz
    )
    return out, profile


class TiledBackend(VectorizedBackend):
    """Block-granular kernels mirroring the accelerator's chunk schedule.

    The plain :class:`~repro.sparse.kernels.KernelBackend` families run in
    fixed-size tiles (row blocks for the row-wise product, column runs for
    the column-wise product); :meth:`spmm_layout` follows a real
    :class:`~repro.partition.layout.BlockLayout` and also returns the
    :class:`TileProfile`. Segment primitives inherit the batched kernels —
    tiling only changes how the SpMM work is scheduled, never the numbers.
    """

    name = "tiled"

    def __init__(self, tile_size: int = DEFAULT_TILE):
        self.tile_size = tile_size

    def spmm_row_product(self, a, b: np.ndarray) -> np.ndarray:
        check_spmm_shapes(a.shape, b)
        csr = _as_scipy_csr(a)
        b = np.asarray(b, dtype=np.float64)
        out = np.zeros((a.shape[0], b.shape[1]))
        for lo in range(0, a.shape[0], self.tile_size):
            hi = min(lo + self.tile_size, a.shape[0])
            out[lo:hi] = _csr_row_block(csr, lo, hi) @ b
        return out

    def spmm_column_product(self, a, b: np.ndarray) -> np.ndarray:
        check_spmm_shapes(a.shape, b)
        csc = _as_scipy_csc(a)
        b = np.asarray(b, dtype=np.float64)
        out = np.zeros((a.shape[0], b.shape[1]))
        for lo in range(0, a.shape[1], self.tile_size):
            hi = min(lo + self.tile_size, a.shape[1])
            run = _csc_col_run(csc, lo, hi)
            if run.nnz:
                out += run @ b[lo:hi]
        return out

    def spmm_layout(
        self, a, b: np.ndarray, layout
    ) -> Tuple[np.ndarray, TileProfile]:
        """Layout-driven execution: the numeric result plus its profile."""
        return tiled_spmm(a, b, layout, tile_columns=self.tile_size)
