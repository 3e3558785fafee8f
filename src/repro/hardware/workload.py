"""Workload extraction: from (graph, layout, model) to hardware quantities.

The accelerator models never see a ``Graph`` directly; they consume a
:class:`GCNWorkload`, which captures exactly the structural facts the paper's
evaluation depends on:

* per-layer dimensions and input-feature density (accelerators exploit
  sparse features; CPU/GPU frameworks run dense GEMMs);
* the adjacency's non-zero counts, *split* into dense diagonal-block
  workload per class and the off-diagonal sparser remainder (GCoD's two
  branches), with the measured subgraph balance;
* storage footprints in COO/CSC (on-chip feasibility of the sparser branch)
  and the fraction of fully-empty columns (structural-sparsity skips).

``paper_scale=True`` rescales node/edge/feature counts to the full Tab. III
sizes while keeping the *measured structure* (balance, dense fraction,
density ratios), so headline tables can be produced at paper scale from
laptop-size training runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import invalid_value_error
from repro.graphs.graph import Graph
from repro.partition.layout import BlockLayout

#: 32-bit indices, matching the accelerator's index buffers.
INDEX_BYTES = 4
#: 32-bit fixed-point values (Tab. V: GCoD uses 32-bit PEs).
VALUE_BYTES = 4


def storage_bytes(fmt: str, shape: Tuple[int, int], nnz: int) -> int:
    """Bytes to store an ``nnz``-entry matrix of ``shape`` in ``fmt``.

    COO keeps two indices and a value per entry. CSR (CSC) keeps one
    pointer per row (column) plus one, then an index and a value per
    entry, which is why the sparser branch reads CSC "because of its
    smaller storage footprint" (Sec. V-B). Stored duplicates and explicit
    zeros count as entries, as scipy's ``nnz`` counts them.
    """
    if fmt == "coo":
        return nnz * (2 * INDEX_BYTES + VALUE_BYTES)
    if fmt in ("csr", "csc"):
        pointers = shape[0] if fmt == "csr" else shape[1]
        return (pointers + 1) * INDEX_BYTES + nnz * (INDEX_BYTES + VALUE_BYTES)
    raise invalid_value_error("fmt", fmt, "one of 'coo', 'csr', 'csc'")


@dataclass(frozen=True)
class LayerSpec:
    """One combination(+aggregation) stage of a model."""

    f_in: int
    f_out: int
    x_density: float = 1.0  # density of this layer's input features
    aggregate: bool = True  # is an aggregation phase attached?
    agg_dim: int = 0  # feature width during aggregation (0 = f_out)
    comb_multiplier: float = 1.0  # e.g. GraphSAGE's two transforms
    edge_macs_per_nnz: float = 0.0  # GAT attention score compute

    @property
    def aggregation_dim(self) -> int:
        """Feature width the aggregation runs at."""
        return self.agg_dim or self.f_out


@dataclass(frozen=True)
class AdjacencyProfile:
    """Structural facts about the (possibly GCoD-trained) adjacency."""

    num_nodes: int
    nnz: int
    dense_nnz_per_class: tuple
    sparse_nnz: int
    class_balance: float  # mean/max subgraph workload within classes
    num_subgraphs: int
    max_subgraph_nodes: int
    skipped_col_fraction: float
    coo_bytes: int
    csc_bytes: int  # CSC footprint of the *sparser* part only
    num_classes: int

    @property
    def dense_nnz(self) -> int:
        """Total nnz inside diagonal subgraph blocks."""
        return int(sum(self.dense_nnz_per_class))

    @property
    def dense_fraction(self) -> float:
        """Share of nnz handled by the denser branch."""
        return self.dense_nnz / max(self.nnz, 1)


@dataclass(frozen=True)
class GCNWorkload:
    """Everything an accelerator model needs to cost one inference."""

    name: str
    dataset: str
    arch: str
    layers: tuple
    adjacency: AdjacencyProfile
    num_nodes: int

    def comb_macs(self, layer: LayerSpec, sparse_aware: bool) -> float:
        """Combination MACs: ``nnz(X) * f_out`` if the platform exploits
        feature sparsity, else the dense ``N * f_in * f_out``."""
        density = layer.x_density if sparse_aware else 1.0
        return (
            self.num_nodes * layer.f_in * density * layer.f_out
            * layer.comb_multiplier
        )

    def agg_macs(self, layer: LayerSpec) -> float:
        """Aggregation MACs: one MAC per nnz per feature."""
        if not layer.aggregate:
            return 0.0
        edge_extra = self.adjacency.nnz * layer.edge_macs_per_nnz
        return self.adjacency.nnz * layer.aggregation_dim + edge_extra

    def total_macs(self, sparse_aware: bool = True) -> float:
        """All MACs of one inference."""
        return sum(
            self.comb_macs(l, sparse_aware) + self.agg_macs(l) for l in self.layers
        )

    def feature_bytes(self, layer: LayerSpec, bytes_per_value: int = 4) -> int:
        """Bytes of this layer's input feature matrix (dense storage)."""
        return int(self.num_nodes * layer.f_in * bytes_per_value)

    def weight_bytes(self, layer: LayerSpec, bytes_per_value: int = 4) -> int:
        """Bytes of this layer's weights."""
        return int(layer.f_in * layer.f_out * layer.comb_multiplier * bytes_per_value)

    def output_bytes(self, layer: LayerSpec, bytes_per_value: int = 4) -> int:
        """Bytes of this layer's output feature matrix."""
        return int(self.num_nodes * layer.f_out * bytes_per_value)


def layer_specs(
    arch: str,
    f_in: int,
    hidden: int,
    num_classes: int,
    x_density: float,
    resgcn_layers: int = 28,
) -> List[LayerSpec]:
    """Per-layer specs for the Tab. IV model configurations."""
    arch = arch.lower()
    if arch == "gcn":
        return [
            LayerSpec(f_in, hidden, x_density=x_density),
            LayerSpec(hidden, num_classes),
        ]
    if arch == "gin":
        # Three GIN layers; each aggregates at its input width then applies
        # a 2-layer MLP (modelled as comb_multiplier=2 at the hidden width).
        return [
            LayerSpec(f_in, hidden, x_density=x_density, agg_dim=f_in,
                      comb_multiplier=2.0),
            LayerSpec(hidden, hidden, agg_dim=hidden, comb_multiplier=2.0),
            LayerSpec(hidden, num_classes, agg_dim=hidden, comb_multiplier=2.0),
        ]
    if arch == "gat":
        heads = 8
        return [
            LayerSpec(
                f_in,
                hidden * heads,
                x_density=x_density,
                edge_macs_per_nnz=heads * (2 * hidden + 5),
            ),
            LayerSpec(
                hidden * heads,
                num_classes,
                edge_macs_per_nnz=2 * num_classes + 5,
            ),
        ]
    if arch in ("sage", "graphsage"):
        # Mean aggregation commutes with the linear neighbour transform
        # (mean(X) W == mean(X W)), so the accelerator aggregates at the
        # narrow output width — unlike GIN, whose MLP blocks the reorder.
        return [
            LayerSpec(f_in, hidden, x_density=x_density, comb_multiplier=2.0),
            LayerSpec(hidden, num_classes, comb_multiplier=2.0),
        ]
    if arch == "resgcn":
        specs = [LayerSpec(f_in, 128, x_density=x_density, aggregate=False)]
        specs += [LayerSpec(128, 128) for _ in range(resgcn_layers)]
        specs.append(LayerSpec(128, num_classes, aggregate=False))
        return specs
    raise ValueError(f"unknown architecture {arch!r}")


def adjacency_profile(
    adj: sp.spmatrix, layout: Optional[BlockLayout] = None
) -> AdjacencyProfile:
    """Measure the structural facts of ``adj`` under ``layout``.

    Without a layout the whole matrix is one sparser workload (the view a
    baseline accelerator has of an untreated graph).
    """
    adj = sp.csr_matrix(adj)
    n = adj.shape[0]
    nnz = int(adj.nnz)

    if layout is None:
        # The full-matrix CSC (and its empty-column count) is only needed
        # on this branch: the layout branch recomputes both over the
        # sparser split, so building them unconditionally wasted O(nnz)
        # on the hot extraction path.
        csc = adj.tocsc()
        empty_cols = int((np.diff(csc.indptr) == 0).sum())
        coo_bytes = storage_bytes("coo", adj.shape, nnz)
        csc_bytes = storage_bytes("csc", adj.shape, nnz)
        return AdjacencyProfile(
            num_nodes=n,
            nnz=nnz,
            dense_nnz_per_class=(),
            sparse_nnz=nnz,
            class_balance=1.0,
            num_subgraphs=1,
            max_subgraph_nodes=n,
            skipped_col_fraction=empty_cols / max(n, 1),
            coo_bytes=coo_bytes,
            csc_bytes=csc_bytes,
            num_classes=1,
        )

    dense, sparse = layout.split(adj)
    per_class = tuple(int(v) for v in layout.class_block_workloads(adj))
    max_sub = max((s.size for s in layout.spans), default=n)
    sparse_csc = sp.csc_matrix(sparse)
    sparse_empty = int((np.diff(sparse_csc.indptr) == 0).sum())
    return AdjacencyProfile(
        num_nodes=n,
        nnz=nnz,
        dense_nnz_per_class=per_class,
        sparse_nnz=int(sparse.nnz),
        class_balance=layout.balance_within_classes(adj),
        num_subgraphs=layout.num_subgraphs,
        max_subgraph_nodes=int(max_sub),
        skipped_col_fraction=sparse_empty / max(n, 1),
        coo_bytes=storage_bytes("coo", dense.shape, int(dense.nnz)),
        csc_bytes=storage_bytes("csc", sparse.shape, int(sparse.nnz)),
        num_classes=layout.num_classes,
    )


def extract_workload(
    graph: Graph,
    layout: Optional[BlockLayout] = None,
    arch: str = "gcn",
    hidden: Optional[int] = None,
    paper_scale: bool = False,
    resgcn_layers: int = 28,
) -> GCNWorkload:
    """Build the :class:`GCNWorkload` for ``graph`` under model ``arch``.

    ``layout`` defaults to ``graph.meta["layout"]`` when present (set by
    :func:`repro.partition.partition_graph`).
    """
    if layout is None:
        layout = graph.meta.get("layout")
    from repro.nn.models import hidden_dim_for

    if hidden is None:
        hidden = hidden_dim_for(graph.name)
    elif hidden <= 0:
        # `hidden or default` would silently swap 0 for the dataset
        # default; an explicit non-positive width is a config mistake.
        raise invalid_value_error(
            "hidden", hidden,
            "a positive hidden width, or None for the dataset default",
        )
    # Graph.features is canonical CSR: its stored entries are its non-zeros.
    rows, cols = graph.features.shape
    x_density = float(graph.features.nnz / max(rows * cols, 1))
    profile = adjacency_profile(graph.adj, layout)
    f_in = graph.num_features
    num_classes = max(graph.num_classes, 2)
    num_nodes = graph.num_nodes

    if paper_scale and "paper_stats" in graph.meta:
        stats = graph.meta["paper_stats"]
        node_scale = stats["nodes"] / max(num_nodes, 1)
        # Scale against the *originally generated* (unpruned) nnz so that
        # GCoD's edge pruning survives rescaling: a graph with 10% fewer
        # edges than its baseline keeps 10% fewer at paper scale too.
        base_nnz = graph.meta.get("generated_nnz", profile.nnz)
        nnz_scale = (2 * stats["edges"]) / max(base_nnz, 1)
        profile = _rescale_profile(profile, node_scale, nnz_scale)
        f_in = stats["features"]
        num_classes = stats["classes"]
        num_nodes = stats["nodes"]

    specs = layer_specs(
        arch, f_in, hidden, num_classes, x_density, resgcn_layers=resgcn_layers
    )
    return GCNWorkload(
        name=f"{graph.name}/{arch}",
        dataset=graph.name,
        arch=arch,
        layers=tuple(specs),
        adjacency=profile,
        num_nodes=num_nodes,
    )


def _rescale_profile(
    profile: AdjacencyProfile, node_scale: float, nnz_scale: float
) -> AdjacencyProfile:
    """Scale a measured profile up to paper-size node/edge counts.

    Structure-derived ratios (dense fraction, balance, skip fraction) are
    preserved; counts and byte footprints scale linearly.

    Per-class dense counts round independently, so their sum can exceed
    the (separately rounded) total ``nnz`` by up to half a count per
    class — which used to surface as ``dense_fraction > 1.0`` while
    ``sparse_nnz`` silently clamped to 0. The excess is shaved off the
    largest classes (deterministically, ties broken by index) so
    ``dense_nnz <= nnz`` and every fraction stays in [0, 1].
    """
    dense_per_class = [
        int(round(v * nnz_scale)) for v in profile.dense_nnz_per_class
    ]
    nnz = int(round(profile.nnz * nnz_scale))
    excess = sum(dense_per_class) - nnz
    while excess > 0 and dense_per_class:
        # Bounded by ~len(classes)/2 rounding error, so the loop is short.
        largest = max(range(len(dense_per_class)),
                      key=lambda i: (dense_per_class[i], -i))
        take = min(excess, dense_per_class[largest])
        dense_per_class[largest] -= take
        excess -= take
        if take == 0:  # every class is already at zero: nnz itself is 0
            break
    dense_per_class = tuple(dense_per_class)
    sparse_nnz = max(0, nnz - sum(dense_per_class))
    return replace(
        profile,
        num_nodes=int(round(profile.num_nodes * node_scale)),
        nnz=nnz,
        dense_nnz_per_class=dense_per_class,
        sparse_nnz=sparse_nnz,
        max_subgraph_nodes=int(round(profile.max_subgraph_nodes * node_scale)),
        coo_bytes=int(round(profile.coo_bytes * nnz_scale)),
        csc_bytes=int(round(profile.csc_bytes * nnz_scale)),
    )
