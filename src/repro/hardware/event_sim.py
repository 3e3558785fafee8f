"""A cycle-approximate schedule of the GCoD aggregation phase.

The analytic model (:mod:`repro.hardware.accelerators.gcod`) costs an
inference in closed form; this simulator *schedules* it tile by tile:
every chunk consumes its work tiles in order, the HBM is one shared
channel serving DMA requests first come, first served, and each chunk
double-buffers, fetching its next tile while it computes the current one.
It exists to validate the analytic model's two central assumptions on
real workloads:

1. the chunk array finishes nearly together when fed GCoD-balanced
   subgraphs (static balance replaces AWB-GCN's runtime autotuning);
2. aggregation latency is the max of the two branches, plus a small
   synchronization tail.

The schedule needs no event queue. Under double buffering a chunk keeps
exactly one DMA request outstanding and issues the next one at the instant
its previous DMA ends. The channel is never idle once started, so DMA end
times are a running sum of tile transfer times, and the oldest outstanding
request is always that of the chunk served longest ago: the FCFS channel
serves the chunks round-robin, in ``pe_rate`` order, skipping chunks whose
tiles are used up. A tile's compute then starts when both its DMA and the
chunk's previous tile are done. ``tests/hardware/test_event_sim_oracle.py``
keeps the event-queue simulation and asserts equal reports.

Tests assert the simulated cycle count stays within a factor of the
analytic estimate and that balanced layouts finish closer together than
degree-sorted ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.hardware import units
from repro.hardware.workload import GCNWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sparse.kernels import TileProfile


@dataclass
class WorkTile:
    """One unit of aggregation work: a subgraph block or a CSC column run."""

    owner: str  # chunk name
    macs: int
    dma_bytes: int


@dataclass
class EventSimReport:
    """Outcome of one simulated aggregation phase."""

    cycles: float
    chunk_finish_cycles: Dict[str, float]
    dma_busy_cycles: float
    events_processed: int

    @property
    def dma_utilization(self) -> float:
        """Fraction of the simulated span the shared DMA channel was busy.

        The per-tile bandwidth-accounting summary the sweep engine records
        per design point: near 1.0 means the HBM channel, not the PE
        array, bounds the aggregation.
        """
        if self.cycles <= 0:
            return 0.0
        return min(self.dma_busy_cycles / self.cycles, 1.0)

    @property
    def finish_skew(self) -> float:
        """max/mean finish time across denser chunks (1.0 = perfect)."""
        denser = [
            t for name, t in self.chunk_finish_cycles.items()
            if name.startswith("chunk")
        ]
        if not denser or max(denser) == 0:
            return 1.0
        return max(denser) / (sum(denser) / len(denser))


class EventDrivenAggregator:
    """Schedules the aggregation phase tile by tile.

    Each chunk alternates DMA (fetch the tile's adjacency bytes over the
    shared channel, FCFS) and compute (tile MACs at the chunk's PE rate).
    DMA overlaps compute via double buffering: a chunk prefetches its next
    tile while computing the current one. The FCFS channel therefore
    serves the chunks round-robin (see the module docstring), and each
    chunk's compute follows ``free = max(dma_end, free) + macs / rate``.
    ``events_processed`` counts the three events of each tile — DMA
    request, tile ready, tile done — that an event-queue simulation of
    the same schedule would process.
    """

    def __init__(
        self,
        pe_rate_per_chunk: Dict[str, float],  # MACs per cycle
        dma_bytes_per_cycle: float,
        sync_cycles: float = 64.0,
    ):
        self.pe_rate = pe_rate_per_chunk
        self.dma_rate = dma_bytes_per_cycle
        self.sync_cycles = sync_cycles

    def run(self, tiles: List[WorkTile]) -> EventSimReport:
        """Simulate the given tiles to completion."""
        queues: Dict[str, List[WorkTile]] = {name: [] for name in self.pe_rate}
        for tile in tiles:
            if tile.owner not in queues:
                raise KeyError(f"tile owner {tile.owner!r} has no PE rate")
            queues[tile.owner].append(tile)

        dma_rate = max(self.dma_rate, 1e-12)
        dma_free_at = 0.0
        dma_busy = 0.0
        finished_at = {name: 0.0 for name in self.pe_rate}
        # Round r serves every chunk's r-th tile, in pe_rate order,
        # skipping chunks whose queue is already drained; the rounds up to
        # the shortest pending queue's length all serve the same chunks.
        pending = [
            (name, queue, max(self.pe_rate[name], 1e-12))
            for name, queue in queues.items() if queue
        ]
        start = 0
        while pending:
            stop = min(len(queue) for _, queue, _ in pending)
            for index in range(start, stop):
                for name, queue, rate in pending:
                    tile = queue[index]
                    duration = tile.dma_bytes / dma_rate
                    dma_free_at += duration
                    dma_busy += duration
                    finished_at[name] = (
                        max(dma_free_at, finished_at[name]) + tile.macs / rate
                    )
            start = stop
            pending = [entry for entry in pending if len(entry[1]) > stop]

        total = max(finished_at.values(), default=0.0) + self.sync_cycles
        return EventSimReport(
            cycles=total,
            chunk_finish_cycles=finished_at,
            dma_busy_cycles=dma_busy,
            events_processed=3 * len(tiles),
        )


def _even_shares(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` near-equal integers summing exactly.

    Plain ``total // parts`` per part silently drops up to ``parts - 1``
    units; distributing the remainder keeps tile totals equal to the
    workload's nnz, so MAC and DMA accounting never undercounts.
    """
    base, remainder = divmod(int(total), parts)
    return [base + 1 if i < remainder else base for i in range(parts)]


def _scaled_shares(counts: List[int], total: int) -> List[int]:
    """Scale ``counts`` to integers summing exactly to ``total``.

    Largest-remainder rounding: each count takes the floor of its exact
    share ``count * total / sum(counts)``, and the units still missing go
    to the largest fractional parts, earlier counts first on ties. Counts
    that already sum to ``total`` come back unchanged; all-zero counts
    split ``total`` near-evenly.
    """
    current = sum(counts)
    if not current:
        return _even_shares(total, len(counts)) if counts else []
    quotas = [divmod(count * total, current) for count in counts]
    shares = [share for share, _ in quotas]
    by_remainder = sorted(range(len(counts)), key=lambda i: -quotas[i][1])
    for i in by_remainder[:total - sum(shares)]:
        shares[i] += 1
    return shares


def tiles_from_profile(
    profile: "TileProfile",
    agg_dim: int,
) -> List[WorkTile]:
    """Work tiles from a measured :class:`~repro.sparse.kernels.TileProfile`.

    The tiled kernel backend records exactly which diagonal block / column
    run carried how many non-zeros and how many DMA bytes it streamed; the
    byte costs are taken verbatim from the profile while MACs are
    recomputed at ``agg_dim`` (the profile may have been taken at a
    different feature width). Zero-work tiles are dropped — they exist in
    the profile for accounting, not scheduling.
    """
    return [
        WorkTile(
            owner=tile.owner,
            macs=tile.nnz * agg_dim,
            dma_bytes=tile.dma_bytes,
        )
        for tile in profile.tiles
        if tile.nnz
    ]


def tiles_from_workload(
    workload: GCNWorkload,
    agg_dim: int,
    subgraph_workloads: Optional[np.ndarray] = None,
    subgraph_classes: Optional[List[int]] = None,
    bytes_per_nnz: int = 8,
) -> List[WorkTile]:
    """Build aggregation work tiles from a workload's adjacency profile.

    One tile per subgraph block (owner = its class's chunk) plus one tile
    per ~1024 sparser-branch columns (owner = the sparser sub-accelerator).
    When per-subgraph workloads are not supplied, class totals are split
    near-evenly (the balanced case GCoD's Step 1 engineers), with division
    remainders distributed so the tile totals exactly cover every nnz.

    Supplied per-subgraph workloads are measured on the graph the layout
    partitioned, while a paper-scale workload's class totals are rescaled
    to the full dataset; each class's counts are therefore scaled, with
    largest-remainder rounding, to sum exactly to its
    ``dense_nnz_per_class`` total. On a workload measured on the same
    graph the counts already sum to it and pass through unchanged.
    """
    adj = workload.adjacency
    tiles: List[WorkTile] = []
    if subgraph_workloads is not None and subgraph_classes is not None:
        classes = list(subgraph_classes)
        counts = [int(nnz) for nnz, _ in zip(subgraph_workloads, classes)]
        for cls, class_nnz in enumerate(adj.dense_nnz_per_class):
            members = [i for i, c in enumerate(classes) if c == cls]
            shares = _scaled_shares([counts[i] for i in members], class_nnz)
            for i, share in zip(members, shares):
                counts[i] = share
        for nnz, cls in zip(counts, classes):
            tiles.append(
                WorkTile(
                    owner=f"chunk{cls}",
                    macs=nnz * agg_dim,
                    dma_bytes=nnz * bytes_per_nnz,
                )
            )
    else:
        per_class = max(adj.num_subgraphs // max(adj.num_classes, 1), 1)
        for cls, class_nnz in enumerate(adj.dense_nnz_per_class):
            for share in _even_shares(class_nnz, per_class):
                tiles.append(
                    WorkTile(
                        owner=f"chunk{cls}",
                        macs=share * agg_dim,
                        dma_bytes=share * bytes_per_nnz,
                    )
                )
    # Sparser branch: column runs of ~1024 columns each. Their near-even
    # shares take at most two values, so equal runs share one tile
    # object (tiles are read, never mutated).
    n_tiles = max(adj.num_nodes // 1024, 1)
    runs: Dict[int, WorkTile] = {}
    for share in _even_shares(adj.sparse_nnz, n_tiles):
        if share not in runs:
            runs[share] = WorkTile(
                owner="sparse",
                macs=share * agg_dim,
                dma_bytes=share * (bytes_per_nnz - 2),  # CSC
            )
        tiles.append(runs[share])
    return tiles


def simulate_aggregation(
    workload: GCNWorkload,
    agg_dim: int,
    total_pes: Optional[int] = None,
    clock_hz: Optional[float] = None,
    bandwidth_gbps: float = 460.0,
    layout_tiles: Optional[Tuple[np.ndarray, List[int]]] = None,
    tile_profile: Optional["TileProfile"] = None,
) -> EventSimReport:
    """End-to-end: allocate PEs per chunk, tile the workload, simulate.

    PE shares follow the analytic model's complexity-proportional rule so
    the two models are directly comparable. ``tile_profile`` (a measured
    :class:`~repro.sparse.kernels.TileProfile` from the tiled kernel
    backend) takes precedence over ``layout_tiles`` and over the near-even
    split: the simulator then schedules the exact blocks/column runs the
    kernel executed. ``total_pes`` and ``clock_hz`` default to the 32-bit
    GCoD array of :mod:`repro.hardware.units`.
    """
    if total_pes is None:
        total_pes = units.DEFAULT_PES[32]
    if clock_hz is None:
        clock_hz = units.GCOD_CLOCK_HZ
    adj = workload.adjacency
    total_nnz = max(adj.nnz, 1)
    pe_rate: Dict[str, float] = {}
    for cls, class_nnz in enumerate(adj.dense_nnz_per_class):
        pe_rate[f"chunk{cls}"] = max(
            total_pes * (class_nnz / total_nnz), 1.0
        )
    pe_rate["sparse"] = max(total_pes * (adj.sparse_nnz / total_nnz), 1.0)
    dma_bytes_per_cycle = bandwidth_gbps * 1e9 / clock_hz

    if tile_profile is not None:
        tiles = tiles_from_profile(tile_profile, agg_dim)
    elif layout_tiles is not None:
        tiles = tiles_from_workload(
            workload, agg_dim,
            subgraph_workloads=layout_tiles[0],
            subgraph_classes=layout_tiles[1],
        )
    else:
        tiles = tiles_from_workload(workload, agg_dim)
    sim = EventDrivenAggregator(pe_rate, dma_bytes_per_cycle)
    return sim.run(tiles)
