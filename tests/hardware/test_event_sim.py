"""Event-driven aggregation simulator tests."""

import numpy as np
import pytest

from repro.hardware.event_sim import (
    EventDrivenAggregator,
    WorkTile,
    simulate_aggregation,
    tiles_from_workload,
)


def _simple_sim(**kw):
    defaults = dict(
        pe_rate_per_chunk={"chunk0": 10.0, "sparse": 5.0},
        dma_bytes_per_cycle=100.0,
        sync_cycles=0.0,
    )
    defaults.update(kw)
    return EventDrivenAggregator(**defaults)


def test_single_tile_compute_bound():
    sim = _simple_sim()
    report = sim.run([WorkTile("chunk0", macs=1000, dma_bytes=10)])
    # DMA 0.1 cycles then 100 cycles of compute.
    assert report.cycles == pytest.approx(100.1)


def test_single_tile_dma_bound():
    sim = _simple_sim()
    report = sim.run([WorkTile("chunk0", macs=10, dma_bytes=10000)])
    assert report.cycles == pytest.approx(100.0 + 1.0)


def test_double_buffering_overlaps():
    sim = _simple_sim()
    tiles = [WorkTile("chunk0", macs=1000, dma_bytes=1000) for _ in range(4)]
    report = sim.run(tiles)
    # Compute 100 cycles/tile dominates the 10-cycle DMA: total ~ 4x100
    # + first fetch, far below the serialized 4x110.
    assert report.cycles < 4 * 110
    assert report.cycles >= 4 * 100


def test_parallel_chunks_run_concurrently():
    sim = _simple_sim(
        pe_rate_per_chunk={"chunk0": 10.0, "chunk1": 10.0, "sparse": 5.0}
    )
    tiles = [
        WorkTile("chunk0", macs=1000, dma_bytes=1),
        WorkTile("chunk1", macs=1000, dma_bytes=1),
    ]
    report = sim.run(tiles)
    assert report.cycles < 150  # not 200: the chunks overlap


def test_shared_dma_serializes():
    sim = _simple_sim(
        pe_rate_per_chunk={"chunk0": 1e9, "chunk1": 1e9, "sparse": 1.0},
        dma_bytes_per_cycle=10.0,
    )
    tiles = [
        WorkTile("chunk0", macs=1, dma_bytes=1000),
        WorkTile("chunk1", macs=1, dma_bytes=1000),
    ]
    report = sim.run(tiles)
    # Compute is free; the shared channel serializes 2 x 100 cycles.
    assert report.cycles >= 200.0
    assert report.dma_busy_cycles == pytest.approx(200.0)


def test_unknown_owner_rejected():
    sim = _simple_sim()
    with pytest.raises(KeyError):
        sim.run([WorkTile("chunk9", macs=1, dma_bytes=1)])


def test_sync_overhead_added():
    sim = _simple_sim(sync_cycles=50.0)
    report = sim.run([WorkTile("chunk0", macs=10, dma_bytes=1)])
    assert report.cycles >= 50.0


def test_tiles_from_workload_cover_all_nnz(gcod_result):
    from repro.hardware import extract_workload

    wl = extract_workload(gcod_result.final_graph, gcod_result.layout, "gcn")
    tiles = tiles_from_workload(wl, agg_dim=16)
    owners = {t.owner for t in tiles}
    assert "sparse" in owners
    assert any(o.startswith("chunk") for o in owners)
    # Near-even splitting distributes remainders: totals are exact.
    adj = wl.adjacency
    assert sum(t.macs for t in tiles) == (adj.dense_nnz + adj.sparse_nnz) * 16


def _workload(dense_per_class, sparse_nnz, num_nodes, num_subgraphs):
    """A synthetic GCNWorkload exposing only what the tiler reads."""
    from repro.hardware.workload import AdjacencyProfile, GCNWorkload

    profile = AdjacencyProfile(
        num_nodes=num_nodes,
        nnz=sum(dense_per_class) + sparse_nnz,
        dense_nnz_per_class=tuple(dense_per_class),
        sparse_nnz=sparse_nnz,
        class_balance=1.0,
        num_subgraphs=num_subgraphs,
        max_subgraph_nodes=num_nodes,
        skipped_col_fraction=0.0,
        coo_bytes=0,
        csc_bytes=0,
        num_classes=len(dense_per_class),
    )
    return GCNWorkload(
        name="synthetic", dataset="synthetic", arch="gcn",
        layers=(), adjacency=profile, num_nodes=num_nodes,
    )


@pytest.mark.parametrize(
    "dense_per_class,sparse_nnz,num_nodes,num_subgraphs",
    [
        ((7, 11, 5), 13, 3000, 7),   # nothing divides evenly
        ((1, 1), 1, 5000, 9),        # shares smaller than tile counts
        ((0, 17), 0, 2048, 5),       # empty class, empty sparser branch
        ((1023,), 4095, 4096, 4),    # remainders one short of the divisor
    ],
)
def test_tile_totals_exact_for_uneven_splits(
    dense_per_class, sparse_nnz, num_nodes, num_subgraphs
):
    agg_dim = 16
    wl = _workload(dense_per_class, sparse_nnz, num_nodes, num_subgraphs)
    tiles = tiles_from_workload(wl, agg_dim=agg_dim)
    dense_nnz = sum(dense_per_class)
    assert sum(t.macs for t in tiles) == (dense_nnz + sparse_nnz) * agg_dim
    dense_bytes = sum(t.dma_bytes for t in tiles if t.owner != "sparse")
    sparse_bytes = sum(t.dma_bytes for t in tiles if t.owner == "sparse")
    assert dense_bytes == dense_nnz * 8
    assert sparse_bytes == sparse_nnz * 6
    # Near-even: tile shares within one class differ by at most one nnz.
    for cls in range(len(dense_per_class)):
        macs = [t.macs for t in tiles if t.owner == f"chunk{cls}"]
        assert max(macs) - min(macs) <= agg_dim


@pytest.fixture(scope="module")
def cora_layout():
    """A partitioned fast-profile cora graph (it carries paper_stats)."""
    from repro.graphs.datasets import load_dataset
    from repro.partition import partition_graph

    graph = load_dataset("cora", scale=0.25, seed=0)
    return partition_graph(graph, num_classes=2, num_groups=2,
                           num_subgraphs=8, rng=0)


@pytest.mark.parametrize("paper_scale", [False, True])
def test_layout_tiles_cover_all_nnz(cora_layout, paper_scale):
    from repro.hardware import extract_workload

    graph, layout = cora_layout
    wl = extract_workload(graph, layout, "gcn", paper_scale=paper_scale)
    sub = layout.subgraph_workloads(graph.adj)
    classes = [s.class_id for s in layout.spans]
    tiles = tiles_from_workload(wl, agg_dim=16, subgraph_workloads=sub,
                                subgraph_classes=classes)
    adj = wl.adjacency
    assert sum(t.macs for t in tiles) == adj.nnz * 16
    for cls, class_nnz in enumerate(adj.dense_nnz_per_class):
        owned = [t for t in tiles if t.owner == f"chunk{cls}"]
        assert sum(t.macs for t in owned) == class_nnz * 16
        assert sum(t.dma_bytes for t in owned) == class_nnz * 8
    dense = [t.macs // 16 for t in tiles if t.owner != "sparse"]
    if paper_scale:  # rescaled to cora's published edge count
        assert adj.dense_nnz > 3 * int(sub.sum())
    else:  # measured on the same graph: the counts pass through as-is
        assert dense == [int(n) for n in sub]


@pytest.mark.parametrize("counts,total,expected", [
    ([3, 5, 2], 10, [3, 5, 2]),       # already exact: identity
    ([1, 1, 1], 10, [4, 3, 3]),       # tie: earlier count first
    ([1, 2, 7], 25, [3, 5, 17]),      # 2.5, 5, 17.5: halves tie, earlier first
    ([2, 3, 7], 30, [5, 8, 17]),      # 5, 7.5, 17.5: largest remainders
    ([0, 0], 5, [3, 2]),              # nothing to weight by: near-even
    ([4, 0, 6], 0, [0, 0, 0]),
    ([], 0, []),
])
def test_scaled_shares(counts, total, expected):
    from repro.hardware.event_sim import _scaled_shares

    assert _scaled_shares(counts, total) == expected


def test_tiles_from_profile_schedules_measured_blocks(partitioned):
    from repro.graphs.normalize import symmetric_normalize
    from repro.hardware import extract_workload
    from repro.hardware.event_sim import tiles_from_profile
    from repro.sparse.kernels import layout_tile_profile

    graph, layout = partitioned
    a_hat = symmetric_normalize(graph.adj)
    profile = layout_tile_profile(a_hat, layout, width=16)
    tiles = tiles_from_profile(profile, agg_dim=16)
    assert sum(t.macs for t in tiles) == a_hat.nnz * 16
    assert all(t.macs > 0 for t in tiles)  # zero-work tiles dropped

    wl = extract_workload(graph, layout, "gcn")
    report = simulate_aggregation(wl, agg_dim=16, tile_profile=profile)
    assert report.cycles > 0
    assert report.finish_skew >= 1.0


def test_simulated_chunks_finish_together(gcod_result):
    # The headline property: GCoD-balanced chunks finish nearly together.
    from repro.hardware import extract_workload

    wl = extract_workload(gcod_result.final_graph, gcod_result.layout, "gcn")
    sub_workloads = gcod_result.layout.subgraph_workloads(
        gcod_result.final_graph.adj
    )
    sub_classes = [s.class_id for s in gcod_result.layout.spans]
    report = simulate_aggregation(
        wl, agg_dim=16, layout_tiles=(sub_workloads, sub_classes)
    )
    assert report.finish_skew < 1.6


def test_simulation_vs_analytic_same_order(gcod_result):
    from repro.hardware import extract_workload
    from repro.hardware.accelerators import GCoDAccelerator

    wl = extract_workload(gcod_result.final_graph, gcod_result.layout, "gcn")
    sim = simulate_aggregation(wl, agg_dim=16)
    analytic = GCoDAccelerator().run(wl)
    analytic_cycles = analytic.aggregation.seconds * 330e6
    # Same order of magnitude: the models agree within 10x.
    assert analytic_cycles / 10 < sim.cycles < analytic_cycles * 10 + 1000
