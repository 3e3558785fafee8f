"""Functional (behavioral) execution of the two-pronged accelerator.

The analytic models in :mod:`repro.hardware.accelerators` *cost* an
inference; this module *performs* one, scheduling the computation exactly
the way the GCoD accelerator does (Sec. V-B):

* **combination** runs on every sub-accelerator as a (row-wise-product)
  SpMM of the node features against the layer weights;
* the **denser branch** processes each subgraph's diagonal block as a
  block-local COO SpMM inside its class's chunk;
* the **sparser branch** walks the off-diagonal remainder in CSC order
  (distributed aggregation), skipping empty columns, and *queries the
  denser chunks' weight buffers* for the combined-feature rows it needs —
  forwarding hits and misses are counted, which turns the paper's "about
  63% of the data will be accessed through the query-based weight
  forwarding" from an assumed constant into a measured quantity;
* the two branches' partial outputs are accumulated by the output
  synchronization unit.

The result is bit-identical (up to float associativity) to the reference
``Â (X W)``, which the test suite asserts — the schedule changes *where*
work happens, never *what* is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.graphs.normalize import symmetric_normalize
from repro.partition.layout import BlockLayout
from repro.sparse.kernels import BackendLike, get_backend


@dataclass
class ExecutionTrace:
    """Counters collected while executing one layer on the two branches."""

    dense_macs_per_chunk: Dict[int, int] = field(default_factory=dict)
    sparse_macs: int = 0
    comb_macs: int = 0
    columns_processed: int = 0
    columns_skipped: int = 0
    forward_hits: int = 0
    forward_misses: int = 0
    output_sync_adds: int = 0

    @property
    def forward_rate(self) -> float:
        """Measured fraction of sparser-branch weight reads served by
        query-based forwarding (paper: ~0.63)."""
        total = self.forward_hits + self.forward_misses
        return self.forward_hits / total if total else 0.0

    @property
    def dense_macs(self) -> int:
        """Total denser-branch MACs across chunks."""
        return int(sum(self.dense_macs_per_chunk.values()))

    def chunk_balance(self) -> float:
        """mean/max MACs across chunks (1.0 = perfectly balanced chunks)."""
        loads = np.array(list(self.dense_macs_per_chunk.values()), dtype=float)
        if loads.size == 0 or loads.max() == 0:
            return 1.0
        return float(loads.mean() / loads.max())


class WeightBufferDirectory:
    """The denser chunks' weight buffers, as seen by the sparser branch.

    Each chunk's buffer holds the combined-feature rows (``XW`` rows) of the
    node range it is currently processing. The sparser branch queries by row
    index: a hit returns the row from the owning chunk's buffer; a miss
    means the row was already evicted (the chunk has moved past it) and
    must be fetched from off-chip memory.

    Eviction is modelled per chunk as a sliding window over that chunk's
    node ranges, sized by ``buffer_rows``. ``num_columns`` is the length of
    the sparser branch's sweep — the graph's column count, which equals
    ``layout.num_nodes`` except for layouts covering only part of a graph —
    so the scalar :meth:`query` and the batched :meth:`query_many` advance
    chunks at the identical pace.
    """

    def __init__(
        self,
        layout: BlockLayout,
        buffer_rows: int,
        num_columns: Optional[int] = None,
    ):
        self.layout = layout
        self.buffer_rows = buffer_rows
        self.num_columns = (
            layout.num_nodes if num_columns is None else num_columns
        )
        # Row -> owning span geometry, built span-wise (O(spans) slice
        # assignments, not O(N * spans) scalar writes).
        n = layout.num_nodes
        self._span_start = np.zeros(n, dtype=np.float64)
        self._span_size = np.zeros(n, dtype=np.float64)
        self._covered = np.zeros(n, dtype=bool)
        for span in layout.spans:
            self._span_start[span.start:span.stop] = span.start
            self._span_size[span.start:span.stop] = span.size
            self._covered[span.start:span.stop] = True
        self._progress = 0.0

    def advance(self, column: int) -> None:
        """The sparser branch moved on to ``column``.

        Chunks advance through their *own* node ranges at the matched pace
        (Sec. V-B: resource allocation makes all sub-accelerators finish
        together), i.e. each chunk is ``column/N`` of the way through every
        one of its subgraph spans.
        """
        self._progress = column / max(self.num_columns, 1)

    def query(self, row: int) -> bool:
        """True (hit) if row ``row`` of XW is currently held by its chunk.

        The owning chunk's sweep position inside ``row``'s span is
        ``start + progress * size``; the row is resident while the sweep is
        within ``buffer_rows`` of it. Because the branches are only
        synchronized at the end of aggregation, a row can be queried before
        its chunk produced it or after the buffer evicted it — those are
        the misses the paper sends to off-chip memory. A row outside every
        span has no owning chunk: always a miss.
        """
        if row >= self._covered.size or not self._covered[row]:
            return False
        sweep = self._span_start[row] + self._progress * self._span_size[row]
        return abs(row - sweep) <= self.buffer_rows

    def query_many(self, columns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`advance` + :meth:`query` for a column sweep.

        ``hits[i]`` is exactly what ``advance(columns[i]); query(columns[i])``
        would return — the geometry closed form evaluated as one array
        expression.
        """
        columns = np.asarray(columns, dtype=np.int64)
        hits = np.zeros(columns.shape, dtype=bool)
        inside = columns < self._covered.size
        idx = columns[inside]
        progress = idx / max(self.num_columns, 1)
        sweep = self._span_start[idx] + progress * self._span_size[idx]
        hits[inside] = (
            (np.abs(idx - sweep) <= self.buffer_rows) & self._covered[idx]
        )
        return hits


@dataclass
class LayerExecution:
    """Output + trace of one functionally-executed layer."""

    output: np.ndarray
    trace: ExecutionTrace


def execute_layer(
    graph: Graph,
    layout: BlockLayout,
    features: np.ndarray,
    weight: np.ndarray,
    buffer_rows: Optional[int] = None,
    apply_relu: bool = False,
    kernel_backend: BackendLike = None,
) -> LayerExecution:
    """Execute one GCN layer (combination + aggregation) as the accelerator does.

    ``buffer_rows`` sizes each chunk's weight buffer in XW rows; the default
    (a sixteenth of the graph) reproduces the paper's ~63% forwarding rate
    on polarized graphs. ``kernel_backend`` selects the SpMM kernels; every
    backend walks the *same* schedule, and all traffic counters are computed
    from the schedule's geometry, so the ``ExecutionTrace`` is identical
    whichever backend does the arithmetic.
    """
    n = graph.num_nodes
    if buffer_rows is None:
        buffer_rows = max(n // 16, 1)
    kernel = get_backend(kernel_backend)
    trace = ExecutionTrace()
    if sp.issparse(features):  # Graph.features: the datapath reads it dense
        features = features.toarray()

    # ------------------------------------------------------------------
    # combination: XW on all sub-accelerators (row-wise product)
    # ------------------------------------------------------------------
    xw = features @ weight
    trace.comb_macs = int(np.count_nonzero(features)) * weight.shape[1]

    a_hat = symmetric_normalize(graph.adj)
    dense, sparse = layout.split(a_hat)

    output = np.zeros((n, weight.shape[1]))
    _dense_branch(layout, dense, xw, output, weight.shape[1], trace, kernel)
    sparse_out = _sparse_branch(
        sparse, layout, buffer_rows, xw, weight.shape[1], n, trace, kernel
    )

    # output synchronization: accumulate the two branches' partials.
    output += sparse_out
    trace.output_sync_adds += 1
    if apply_relu:
        output = np.maximum(output, 0.0)
    return LayerExecution(output=output, trace=trace)


def _dense_branch(layout, dense, xw, output, width, trace, kernel) -> None:
    """Denser branch: every chunk's block-local products, one schedule.

    Diagonal-block entries have both endpoints in one subgraph, so the
    per-chunk workloads partition the dense nnz by the row's subgraph: the
    MAC counters are read off a bincount of that partition while the
    selected backend performs the arithmetic as one scatter-aggregation.
    Self-loops of Â live on the diagonal = inside every subgraph block;
    ``layout.split`` assigns them to the dense branch already (row == col).
    """
    dense_coo = dense.tocoo()
    output += kernel.coo_spmm(
        dense_coo.data, dense_coo.row, dense_coo.col, xw, output.shape[0]
    )
    per_span = np.bincount(
        layout.node_subgraph[dense_coo.row], minlength=layout.num_subgraphs
    )
    for span in layout.spans:
        nnz = int(per_span[span.subgraph_id])
        chunk = span.class_id
        trace.dense_macs_per_chunk[chunk] = trace.dense_macs_per_chunk.get(
            chunk, 0
        ) + nnz * width
        trace.output_sync_adds += int(nnz > 0)


def _sparse_branch(
    sparse, layout, buffer_rows, xw, width, n, trace, kernel
) -> np.ndarray:
    """Sparser branch: CSC column sweep with query-based weight forwarding.

    The directory query for column ``j`` depends only on geometry — the
    owning span of row ``j`` and the matched sweep progress ``j / n`` — so
    the hit/miss decisions of all non-empty columns are evaluated as one
    :meth:`WeightBufferDirectory.query_many` call, and the arithmetic is a
    single column-product SpMM through the selected backend.
    """
    csc = sparse.tocsc()
    col_nnz = np.diff(csc.indptr)
    nonempty = np.nonzero(col_nnz > 0)[0]
    trace.columns_processed += int(nonempty.size)
    trace.columns_skipped += int(n - nonempty.size)
    trace.sparse_macs += int(col_nnz.sum()) * width

    directory = WeightBufferDirectory(layout, buffer_rows, num_columns=n)
    hits = directory.query_many(nonempty)
    trace.forward_hits += int(hits.sum())
    trace.forward_misses += int(nonempty.size - hits.sum())

    return kernel.spmm_column_product(csc, xw)


def execute_gcn(
    graph: Graph,
    layout: BlockLayout,
    weights: List[np.ndarray],
    buffer_rows: Optional[int] = None,
    kernel_backend: BackendLike = None,
) -> Tuple[np.ndarray, List[ExecutionTrace]]:
    """Execute a full multi-layer GCN the accelerator way.

    ``weights`` is the list of layer weight matrices (biases omitted: the
    accelerator folds them into the activation unit). ReLU is applied
    between layers, matching Eq. (1). Returns (logits, per-layer traces).
    """
    h = graph.features
    traces: List[ExecutionTrace] = []
    for i, w in enumerate(weights):
        result = execute_layer(
            graph,
            layout,
            h,
            w,
            buffer_rows=buffer_rows,
            apply_relu=(i < len(weights) - 1),
            kernel_backend=kernel_backend,
        )
        h = result.output
        traces.append(result.trace)
    return h, traces


def reference_gcn(graph: Graph, weights: List[np.ndarray]) -> np.ndarray:
    """The mathematical reference: ``Â(...Â(Â X W0)W1...)`` with ReLU."""
    a_hat = symmetric_normalize(graph.adj)
    h = graph.features.toarray()
    for i, w in enumerate(weights):
        h = a_hat @ (h @ w)
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return np.asarray(h)
